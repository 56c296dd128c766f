"""Every name a module exports through ``__all__`` exists, so a removed
function cannot leave a dangling export behind."""

import importlib
import json
import os
import pkgutil
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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wdro.no_such_name


def test_lazy_names_are_the_experiments_exports():
    from wdro import experiments

    assert wdro._EXPERIMENTS == set(experiments.__all__)
