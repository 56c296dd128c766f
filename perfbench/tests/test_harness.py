"""Tests of the benchmark harness itself: the output checks reject a
perturbed value, span self times add up to the traced wall time, tracing
leaves the program as it found it, and a run without the program fails.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _replace_table(report, name, rows):
    header, _ = report.tables[name]
    return dataclasses.replace(report, tables={**report.tables, name: (header, rows)})


@pytest.fixture(scope="module")
def small_portfolio_report():
    from wdro import PortfolioStudyConfig, run_portfolio_study

    cfg = PortfolioStudyConfig(runs=1, n_calibration=(30,), calibration_grid=(0.01, 0.1),
                               k_folds=2, master_seed=3)
    return run_portfolio_study(cfg)


def test_portfolio_check_passes_and_rejects_a_perturbed_certificate(small_portfolio_report):
    assert checks.check_portfolio_study(small_portfolio_report) == []
    _, rows = small_portfolio_report.tables["fig4_oos"]
    bad = [list(row) for row in rows]
    bad[3][3] += 1e-6 * (1.0 + abs(bad[3][3]))
    report = _replace_table(small_portfolio_report, "fig4_oos", [tuple(r) for r in bad])
    errors = checks.check_portfolio_study(report)
    assert errors and "certificate" in errors[0]


def test_curve_check_rejects_a_convex_kink():
    curve = [(0.0, 1.0), (0.1, 1.1), (0.2, 1.3)]
    assert checks._concave_nondecreasing(curve, "c")
    assert checks._concave_nondecreasing([(0.0, 1.0), (0.1, 0.9)], "c")
    assert checks._concave_nondecreasing([(0.0, 1.0), (0.1, 1.2), (0.2, 1.3)], "c") == []


@pytest.fixture(scope="module")
def small_uq_run():
    from wdro import UqStudyConfig

    cfg = UqStudyConfig(runs=1, portfolio_grid=(0.01, 0.1), k_folds=2, master_seed=5)
    return workloads.run_uq_study_seen(cfg)


def test_uq_check_passes_and_rejects_perturbed_values(small_uq_run):
    report, seen, cfg = small_uq_run
    assert checks.check_uq_study(report, seen, cfg) == []
    _, rows = report.tables["fig10_uq_curves"]

    moved = [row[:5] + (row[5] + 1e-4,) + row[6:] for row in rows]
    errors = checks.check_uq_study(_replace_table(report, "fig10_uq_curves", moved), seen, cfg)
    assert any("p_true" in e for e in errors)

    swapped = [row[:3] + (row[4] + 0.1, row[4]) + row[5:] for row in rows]
    errors = checks.check_uq_study(_replace_table(report, "fig10_uq_curves", swapped), seen, cfg)
    assert any("bracket" in e for e in errors)


def test_event_probability_on_degenerate_portfolios():
    import numpy as np
    from scipy.stats import norm

    idx = np.arange(1.0, 11.0)
    mu, cov = 0.03 * idx, 0.02**2 + np.diag((0.025 * idx) ** 2)
    risky = np.eye(10)[[7, 8, 9]]
    # all weight on the last risky asset: its row vanishes, the other two remain
    x = np.eye(10)[9]
    two = risky[:2] - x
    expected = checks.event_probability(two, mu, cov)
    assert checks.event_probability(risky - x, mu, cov) == pytest.approx(expected, abs=1e-12)
    # one remaining row is a one-dimensional normal tail
    x = 0.5 * (np.eye(10)[8] + np.eye(10)[9])
    g = np.eye(10)[7] - x
    one = norm.cdf(-(g @ mu) / np.sqrt(g @ cov @ g))
    assert checks.event_probability(g[None, :], mu, cov) == pytest.approx(one, abs=1e-6)
    # weights spread over the risky assets only: the rows are dependent and
    # the event needs equal returns, which has probability zero
    assert checks.event_probability(risky - x, mu, cov) == pytest.approx(0.0, abs=1e-6)
    assert checks.event_probability(risky - risky, mu, cov) == 1.0


@pytest.fixture(scope="module")
def support_ops(tmp_path_factory):
    work = tmp_path_factory.mktemp("specs")
    ops = workloads.support_round(seed=0, r=0)
    workloads.write_specs(ops, work, 0)
    return {op.label.split("[")[0]: op for op in ops}


@pytest.mark.parametrize("label", ["uq_best", "separable_worstcase"])
def test_support_check_rejects_a_perturbed_cli_result(support_ops, label):
    op = support_ops[label]
    assert workloads.run_op(op) == 0
    assert checks.check(op, 0) == []
    out_path = Path(op.args["out_path"])
    doc = json.loads(out_path.read_text())
    key = "value" if "value" in doc else "objective_value"
    doc[key] += 1e-4 * (1.0 + abs(doc[key]))
    out_path.write_text(json.dumps(doc))
    assert checks.check(op, 0)


def test_worstcase_check_rejects_atoms_outside_the_ball(support_ops):
    op = support_ops["max_affine_worstcase"]
    assert workloads.run_op(op) == 0
    out_path = Path(op.args["out_path"])
    doc = json.loads(out_path.read_text())
    for atom in doc["atoms"]:
        atom["point"] = [x + 0.5 for x in atom["point"]]
    out_path.write_text(json.dumps(doc))
    assert any("distance" in e or "loss" in e for e in checks.check(op, 0))


def test_portfolio_halfspace_check_rejects_weights_off_the_simplex(support_ops):
    op = support_ops["portfolio_halfspace"]
    res = workloads.run_op(op)
    assert checks.check(op, res) == []
    bad = dataclasses.replace(res, weights=res.weights * 1.01)
    assert any("simplex" in e for e in checks.check(op, bad))


def test_span_self_times_add_up_to_the_traced_wall_time(support_ops, small_portfolio_report):
    import wdro
    from wdro import LpBuilder, reformulate, simplex

    solve, build, builders = simplex.solve_lp, LpBuilder.build, dict(reformulate._BUILDERS)
    ops = [support_ops["uq_best"], support_ops["two_stage_rhs"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert reformulate.solve_lp is not solve
        t0 = perf_counter()
        for op in ops:
            tracer.run_op(op.label, workloads.run_op, op)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()

    spans = tracer.spans
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == ["op", "op"]
    root_time = sum(s[2] - s[1] for s in roots)
    assert sum(tracing.self_times(spans)) == pytest.approx(root_time, rel=1e-9)
    assert 0.98 * wall - 1e-3 <= root_time <= wall
    assert all(t >= -1e-9 for t in tracing.self_times(spans))

    figures = tracing.layer_metrics(spans, [op.label for op in ops])
    assert figures["cli.calls"] == 2
    # the CLI builds each program twice, and the rhs builder nests a
    # max-affine build that counts once
    assert figures["reformulate.builds"] == 4
    assert figures["simplex.solves"] > 2 and figures["simplex.pivots"] > 0
    assert figures["geometry.helper_lps"] >= 1  # the rhs case enumerates vertices

    assert simplex.solve_lp is solve and reformulate.solve_lp is solve
    assert wdro.solve_lp is solve and LpBuilder.build is build
    assert reformulate._BUILDERS == builders


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uq-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "missing" in proc.stderr
