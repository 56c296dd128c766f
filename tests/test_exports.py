"""Every name a module exports through ``__all__`` exists, so a removed
function cannot leave a dangling export behind."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wdro

MODULES = ["wdro"] + [
    f"wdro.{info.name}" for info in pkgutil.iter_modules(wdro.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


# the README's problem spec
README_SPEC = {
    "version": 1,
    "norm": "l1",
    "support": {"C": [[-1.0]], "d": [2.0]},
    "samples": [[0.0], [1.0]],
    "radius": 0.25,
    "loss": {"type": "max_affine", "slopes": [[0.0], [1.0]], "intercepts": [0.0, 0.0]},
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    """README's python blocks run in order in one namespace, so an example
    that calls a removed API fails here rather than misleading a reader."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_solve_and_worstcase_load_no_scipy(tmp_path):
    """The package, its CLI and the ``solve``/``worstcase`` commands run on
    numpy alone; scipy loads with the studies and oracles."""
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps(README_SPEC))
    script = (
        "import sys, wdro, wdro.cli\n"
        "for cmd in ('solve', 'worstcase'):\n"
        f"    assert wdro.cli.main([cmd, '--spec', {str(spec)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wdro.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_star_import_and_dir_list_the_whole_api():
    namespace = {}
    exec("from wdro import *", namespace)
    assert set(wdro.__all__) <= set(namespace)
    assert set(wdro.__all__) <= set(dir(wdro))


EAGER = [
    name for name in MODULES[1:]
    if name != "wdro.experiments" and hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", EAGER)
def test_package_exports_each_eager_module_list(name):
    """The package re-exports the whole ``__all__`` of every module that
    has one, but ``experiments``, whose names resolve lazily (see below)."""
    exported = importlib.import_module(name).__all__
    assert [n for n in exported if n not in wdro.__all__] == []


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_is_said_once():
    from setuptools.config.pyprojecttoml import read_configuration

    config = read_configuration(README.parent / "pyproject.toml", expand=True)
    assert config["project"]["version"] == wdro.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wdro.no_such_name


def test_lazy_names_are_the_experiments_exports():
    from wdro import experiments

    assert wdro._EXPERIMENTS == set(experiments.__all__)
