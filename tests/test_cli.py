"""Command-line round trips, exit codes and artifact determinism."""

import copy
import json
import math

import numpy as np
import pytest

import wdro.cli as cli
from wdro import errors
from wdro.cli import main, parse_problem_spec
from wdro.errors import SpecFileError
from wdro.geometry import GroundNorm


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def hinge_spec(radius=0.5):
    """One sample at the origin, pieces 0 and x: worst case moves mass
    toward +inf and the value equals the radius."""
    return {
        "version": 1,
        "norm": "l1",
        "support": "free",
        "samples": [[0.0]],
        "radius": radius,
        "loss": {"type": "max_affine", "slopes": [[0.0], [1.0]],
                 "intercepts": [0.0, 0.0]},
    }


def box_spec(radius=0.25):
    return {
        "version": 1,
        "norm": "l1",
        "support": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        "samples": [[-0.5], [0.5]],
        "radius": radius,
        "loss": {"type": "max_affine", "slopes": [[1.0]], "intercepts": [0.0]},
    }


class TestSolve:
    def test_hinge_value_equals_radius(self, tmp_path, capsys):
        code = main(["solve", "--spec", write_spec(tmp_path, hinge_spec(0.5))])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "optimal"
        assert out["value"] == pytest.approx(0.5, abs=1e-10)
        assert out["lp_stats"]["rows"] >= 1
        assert "lam" in " ".join(out["solution"])

    def test_zero_radius_prints_sample_average(self, tmp_path, capsys):
        doc = box_spec(0.0)
        code = main(["solve", "--spec", write_spec(tmp_path, doc)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        mean = np.mean([0.5, -0.5])
        assert out["value"] == pytest.approx(mean, abs=1e-12)
        assert float(out["value_text"]) == pytest.approx(mean, abs=1e-11)
        digits = out["value_text"].replace("-", "").replace(".", "")
        digits = digits.split("e")[0].lstrip("0")
        assert len(digits) <= 12

    def test_program_is_built_once(self, tmp_path, capsys, monkeypatch):
        from wdro.lp import LpBuilder

        builds = []
        build = LpBuilder.build
        monkeypatch.setattr(
            LpBuilder, "build", lambda self: builds.append(1) or build(self)
        )
        lp_path = tmp_path / "program.txt"
        code = main(["solve", "--spec", write_spec(tmp_path, hinge_spec(0.5)),
                     "--dump-lp", str(lp_path)])
        assert code == 0
        assert len(builds) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.5, abs=1e-10)
        assert out["lp_stats"]["iterations"] >= 1

    def test_epsilon_flag_overrides_radius(self, tmp_path, capsys):
        code = main(
            ["solve", "--spec", write_spec(tmp_path, hinge_spec(0.1)),
             "--epsilon", "1.0"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(1.0, abs=1e-10)

    def test_out_and_dump_lp_files(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        lp_path = tmp_path / "program.txt"
        code = main(
            ["solve", "--spec", write_spec(tmp_path, box_spec()),
             "--out", str(out_path), "--dump-lp", str(lp_path)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["status"] == "optimal"
        assert lp_path.read_text().startswith("min ")

    def test_unsupported_norm_exits_one_citing_the_choices(self, tmp_path, capsys):
        doc = hinge_spec()
        doc["norm"] = "l2"
        code = main(["solve", "--spec", write_spec(tmp_path, doc)])
        assert code == 1
        err = capsys.readouterr().err
        assert "l1" in err and "linf" in err

    def test_unknown_key_rejected_with_field(self, tmp_path, capsys):
        doc = hinge_spec()
        doc["extra"] = 1
        code = main(["solve", "--spec", write_spec(tmp_path, doc)])
        assert code == 1
        assert "extra" in capsys.readouterr().err

    def test_missing_file_and_usage_errors(self, tmp_path, capsys):
        assert main(["solve", "--spec", str(tmp_path / "nope.json")]) == 1
        capsys.readouterr()
        assert main(["solve"]) == 1

    def test_mathematically_empty_region_exits_two(self, tmp_path, capsys):
        doc = hinge_spec()
        doc["loss"] = {
            "type": "uq_best",
            "region": {"C": [[1.0], [-1.0]], "d": [-1.0, -1.0]},
        }
        code = main(["solve", "--spec", write_spec(tmp_path, doc)])
        assert code == 2

    def test_unbounded_recourse_dual_exits_two(self, tmp_path):
        doc = hinge_spec()
        doc["loss"] = {
            "type": "two_stage_rhs",
            "q": [0.0],
            "W": [[1.0], [-1.0]],
            "H": [[1.0], [0.0]],
            "h": [0.0, -1.0],
        }
        assert main(["solve", "--spec", write_spec(tmp_path, doc)]) == 2

    @pytest.mark.parametrize(
        "error, code",
        [(name, 2) for name in (
            "HypothesisViolated", "RecourseSetUnbounded", "DualPolytopeUnbounded",
            "EmptySupport", "UnboundedPolyhedron", "NoCoveringRadius",
            "EscapingMassPresent",
        )] + [("NumericalBreakdown", 1), ("SampleOutsideSupport", 1), ("WdroError", 1)],
    )
    def test_exit_code_follows_the_error_class(self, tmp_path, capsys, monkeypatch,
                                               error, code):
        def fail(doc):
            raise getattr(errors, error)("raised on purpose")

        monkeypatch.setattr(cli, "parse_problem_spec", fail)
        assert main(["solve", "--spec", write_spec(tmp_path, hinge_spec())]) == code
        assert "raised on purpose" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "worstcase"])
    @pytest.mark.parametrize(
        "support, sample, separable",
        [({"C": [[1.0], [-1.0]], "d": [0.0, -1.0]}, 0.5, False),
         ({"C": [[1.0], [-1.0]], "d": [0.0, -1e-7]}, 0.0, False),
         ({"C": [[1.0], [-1.0]], "d": [0.0, -1.0]}, 0.5, True)],
        ids=["sample-far-outside", "sample-within-tolerance", "separable-stage"],
    )
    def test_empty_support_exits_two(
        self, tmp_path, capsys, command, support, sample, separable
    ):
        doc = box_spec()
        doc["support"], doc["samples"] = support, [[sample]]
        if separable:
            stage = {"slopes": [[1.0]], "intercepts": [0.0]}
            doc["support"], doc["samples"] = "free", [[sample, 0.0]]
            doc["loss"] = {"type": "separable",
                           "stages": [{**stage, "support": support}, stage]}
        assert main([command, "--spec", write_spec(tmp_path, doc)]) == 2
        assert "support polytope is empty" in capsys.readouterr().err

    def test_sample_far_outside_a_support_exits_one_naming_the_spec(
        self, tmp_path, capsys
    ):
        doc = box_spec()
        doc["samples"] = [[1.5]]
        assert main(["solve", "--spec", write_spec(tmp_path, doc)]) == 1
        assert "(field: spec)" in capsys.readouterr().err

    def test_csv_samples_are_loaded(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("xi\n-0.5\n0.5\n")
        doc = box_spec(0.0)
        doc["samples"] = {"csv": str(csv_path)}
        code = main(["solve", "--spec", write_spec(tmp_path, doc)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.0, abs=1e-12)


class TestWorstcase:
    def test_compact_support_reports_membership(self, tmp_path, capsys):
        code = main(["worstcase", "--spec", write_spec(tmp_path, box_spec())])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert not out["mass_escapes"]
        assert out["escaping_mass"] == 0.0
        assert out["membership"]["within_ball"] is True
        assert out["membership"]["distance"] <= 0.25 + 1e-6
        total = sum(atom["weight"] for atom in out["atoms"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_escaping_mass_is_flagged(self, tmp_path, capsys):
        code = main(["worstcase", "--spec", write_spec(tmp_path, hinge_spec(0.5))])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mass_escapes"] is True
        assert out["membership"] is None
        assert len(out["escape_rays"]) == 1
        assert out["escape_rays"][0]["direction"] == [1.0]

    def test_zero_radius_returns_the_samples(self, tmp_path, capsys):
        code = main(
            ["worstcase", "--spec", write_spec(tmp_path, box_spec()),
             "--epsilon", "0"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        points = sorted(atom["point"][0] for atom in out["atoms"])
        assert points == pytest.approx([-0.5, 0.5])
        assert all(atom["weight"] == pytest.approx(0.5) for atom in out["atoms"])


class TestRoundTrip:
    def specs(self):
        yield hinge_spec()
        yield box_spec()
        doc = hinge_spec()
        doc["loss"] = {"type": "min_affine", "slopes": [[1.0], [-1.0]],
                       "intercepts": [0.0, 1.0]}
        yield doc
        doc = hinge_spec()
        doc["loss"] = {"type": "uq_worst",
                       "region": {"C": [[1.0]], "d": [1.0]}}
        yield doc
        doc = hinge_spec()
        doc["samples"] = [[1.0], [-1.0]]
        doc["support"] = {"C": [[1.0], [-1.0]], "d": [2.0, 2.0]}
        doc["loss"] = {"type": "two_stage_objective", "Q": [[1.0]],
                       "W": [[1.0], [-1.0]], "h": [0.0, -1.0]}
        yield doc
        doc = hinge_spec()
        doc["samples"] = [[0.0, 0.0]]
        doc["norm"] = "linf"
        doc["loss"] = {
            "type": "separable",
            "stages": [
                {"slopes": [[1.0]], "intercepts": [0.0],
                 "support": {"C": [[1.0]], "d": [1.0]}},
                {"slopes": [[0.0], [2.0]], "intercepts": [0.0, -1.0]},
            ],
        }
        doc["support"] = "free"
        yield doc

    def test_every_loss_type_parses(self):
        for doc in self.specs():
            problem = parse_problem_spec(doc)
            assert np.array_equal(problem.samples, np.asarray(doc["samples"]))
            assert problem.radius == doc["radius"]
            assert problem.norm is GroundNorm(doc["norm"])

    def test_rejects_missing_and_extra_loss_keys(self):
        doc = hinge_spec()
        del doc["loss"]["intercepts"]
        with pytest.raises(SpecFileError):
            parse_problem_spec(doc)
        doc = hinge_spec()
        doc["loss"]["region"] = {"C": [[1.0]], "d": [0.0]}
        with pytest.raises(SpecFileError):
            parse_problem_spec(doc)

    def test_rejects_bad_version_and_radius(self):
        doc = hinge_spec()
        doc["version"] = 2
        with pytest.raises(SpecFileError):
            parse_problem_spec(doc)
        doc = hinge_spec()
        doc["radius"] = -0.5
        with pytest.raises(SpecFileError):
            parse_problem_spec(doc)


class TestCalibrate:
    def test_kfold_on_synthetic_market(self, tmp_path, capsys):
        config = {
            "method": "kfold",
            "market": {"m": 3},
            "n_samples": 12,
            "grid": [0.01, 0.1],
            "folds": 3,
            "seed": 5,
        }
        code = main(["calibrate", "--spec", write_spec(tmp_path, config)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.01 <= out["radius"] <= 0.1
        assert len(out["fold_radii"]) == 3
        assert sum(out["weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_holdout_with_inline_samples_and_flags(self, tmp_path, capsys):
        config = {
            "method": "holdout",
            "samples": [[0.1, 0.0], [0.0, 0.1], [0.2, 0.1], [0.1, 0.2],
                        [0.0, 0.0], [0.3, 0.1]],
        }
        code = main(
            ["calibrate", "--spec", write_spec(tmp_path, config),
             "--grid", "0.001,0.01", "--seed", "3"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["radius"] in (0.001, 0.01)
        assert out["seed"] == 3

    def test_uq_kfold_emits_both_sides(self, tmp_path, capsys):
        config = {
            "method": "uq_kfold",
            "samples": [[-1.0], [-0.5], [0.2], [1.0], [-0.3], [0.4]],
            "region": {"C": [[1.0]], "d": [0.0]},
            "grid": [0.001, 0.1, 0.5, 2.0],
            "folds": 2,
        }
        code = main(["calibrate", "--spec", write_spec(tmp_path, config)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        sides = {b["side"] for b in out["bounds"]}
        assert sides == {"upper", "lower"}

    def test_uq_kfold_builds_no_probability_program(
        self, tmp_path, capsys, monkeypatch
    ):
        from wdro import reformulate

        calls = []
        for name in ("build_uq_best", "build_uq_worst"):
            def counting(p, _build=getattr(reformulate, name), _name=name):
                calls.append(_name)
                return _build(p)

            monkeypatch.setattr(reformulate, name, counting)
        config = {
            "method": "uq_kfold",
            "samples": [[-1.0, 0.2], [-0.5, 0.1], [0.2, -0.3], [1.0, 0.0],
                        [-0.3, 0.4], [0.4, 0.9]],
            "region": {"C": [[1.0, -1.0], [0.0, 1.0]], "d": [0.0, 0.5]},
            "grid": [0.01, 0.1, 1.0, 10.0],
            "folds": 3,
        }
        code = main(["calibrate", "--spec", write_spec(tmp_path, config)])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["bounds"]) == 2
        assert calls == []

    @pytest.mark.parametrize(
        "region, code",
        [
            ("free", 0),  # certain event: both bounds are 1
            ({"C": [[0.0], [1.0]], "d": [1.0, 0.0]}, 0),  # 0*x <= 1 is moot
            ({"C": [[0.0]], "d": [1.0]}, 2),  # the complement is unreachable
        ],
    )
    def test_uq_kfold_regions_without_a_reachable_boundary(
        self, tmp_path, capsys, region, code
    ):
        config = {
            "method": "uq_kfold",
            "samples": [[-1.0], [-0.5], [0.2], [1.0], [-0.3], [0.4]],
            "region": region,
            "grid": [0.001, 0.1, 0.5, 2.0],
            "folds": 2,
        }
        assert main(["calibrate", "--spec", write_spec(tmp_path, config)]) == code
        if region == "free":
            out = json.loads(capsys.readouterr().out)
            values = [b["value"] for b in out["bounds"]]
            assert values == pytest.approx([1.0, 1.0], abs=1e-12)
            assert [b["fold_radii"] for b in out["bounds"]] == [[0.001] * 2] * 2

    @pytest.mark.parametrize("grid", ["0.1,nan,0.3", "inf", "0.1,,0.3"])
    def test_non_finite_grid_flag_names_the_field(self, tmp_path, capsys, grid):
        config = {"method": "kfold", "market": {"m": 2}, "n_samples": 6}
        code = main(
            ["calibrate", "--spec", write_spec(tmp_path, config), "--grid", grid]
        )
        assert code == 1
        assert "(field: --grid)" in capsys.readouterr().err

    def test_negative_grid_flag_names_the_field(self, tmp_path, capsys):
        config = {"method": "kfold", "market": {"m": 2}, "n_samples": 6}
        code = main(
            ["calibrate", "--spec", write_spec(tmp_path, config),
             "--grid=0.1,-0.2"]
        )
        assert code == 1
        assert "(field: --grid)" in capsys.readouterr().err

    def test_negative_config_grid_names_the_field(self, tmp_path, capsys):
        config = {"method": "kfold", "market": {"m": 2}, "n_samples": 6,
                  "grid": [0.1, -0.2]}
        code = main(["calibrate", "--spec", write_spec(tmp_path, config)])
        assert code == 1
        assert "(field: config.grid)" in capsys.readouterr().err

    def test_missing_dataset_path_names_the_field(self, tmp_path, capsys):
        config = {
            "method": "kfold",
            "samples": {"csv": str(tmp_path / "absent.csv")},
        }
        code = main(["calibrate", "--spec", write_spec(tmp_path, config)])
        assert code == 1
        assert "config.samples.csv" in capsys.readouterr().err


# a malformed number in a calibrate or experiment config, and its field
MALFORMED_NUMBERS = [
    ("calibrate", {"method": "kfold", "market": {}, "folds": "five"},
     "config.folds"),
    ("calibrate", {"method": "kfold", "market": {}, "seed": "s"},
     "config.seed"),
    ("calibrate", {"method": "kfold", "market": {}, "n_samples": [3]},
     "config.n_samples"),
    ("calibrate", {"method": "holdout", "market": {}, "split": "most"},
     "config.split"),
    ("calibrate", {"method": "kfold", "market": {}, "grid": ["tiny"]},
     "config.grid"),
    ("calibrate", {"method": "kfold", "market": {"m": "ten"}},
     "config.market.m"),
    ("calibrate", {"method": "kfold", "market": {"idio_mean_step": None}},
     "config.market.idio_mean_step"),
    ("experiment", {"study": "uq", "runs": "many", "out_dir": "x"},
     "config.runs"),
    ("experiment", {"study": "uq", "master_seed": {}, "out_dir": "x"},
     "config.master_seed"),
]

# a number that converts but not exactly: a fractional int or a
# non-finite float
INEXACT_NUMBERS = [
    ("calibrate", {"method": "kfold", "market": {}, "folds": 2.5},
     "config.folds"),
    ("calibrate", {"method": "kfold", "market": {"systematic_scale": math.inf}},
     "config.market.systematic_scale"),
    ("calibrate", {"method": "holdout", "market": {}, "split": math.nan},
     "config.split"),
    ("experiment", {"study": "uq", "runs": 1.5, "out_dir": "x"},
     "config.runs"),
]

# a JSON boolean, which int() and float() would take as 0 or 1
BOOLEAN_NUMBERS = [
    ("calibrate", {"method": "kfold", "market": {"systematic_scale": True}},
     "config.market.systematic_scale"),
    ("calibrate", {"method": "kfold", "market": {}, "seed": True},
     "config.seed"),
    ("calibrate", {"method": "kfold", "market": {}, "folds": True},
     "config.folds"),
    ("experiment", {"study": "uq", "runs": True, "out_dir": "x"},
     "config.runs"),
]


@pytest.fixture
def no_study(tmp_path, monkeypatch):
    """Run in the temporary directory, where a relative out_dir lands, and
    fail the test if a study starts: every input here is rejected while
    it is read."""
    monkeypatch.chdir(tmp_path)
    for study in ("run_portfolio_study", "run_uq_study"):
        monkeypatch.setattr(f"wdro.experiments.{study}",
                            lambda config: pytest.fail("ran"))


def with_value(doc, path, value):
    """A copy of ``doc`` with the dotted key ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    *parents, last = path.split(".")
    obj = doc
    for key in parents:
        obj = obj[key]
    obj[last] = value
    return doc


# inputs that ran with a wrong value or crashed before each kind of value
# had one reader: a command with its flags, the spec or config, the field
LOOSE_INPUTS = [
    ("solve", with_value(hinge_spec(), "radius", True), "spec.radius"),
    ("solve", with_value(hinge_spec(), "version", True), "spec.version"),
    ("solve", with_value(hinge_spec(), "samples", [[True], [False]]),
     "spec.samples"),
    ("solve", with_value(box_spec(), "support.C", [[True], [-1.0]]),
     "spec.support.C"),
    ("solve", with_value(hinge_spec(), "loss.slopes", [[False], [True]]),
     "spec.loss.slopes"),
    ("solve", with_value(hinge_spec(), "samples", [[10**400]]), "spec.samples"),
    ("calibrate", {"method": "kfold", "market": {}, "version": 99},
     "config.version"),
    ("experiment", {"study": "uq", "version": "banana", "out_dir": "x"},
     "config.version"),
    ("calibrate --seed -1", {"method": "kfold", "market": {}}, "--seed"),
    ("calibrate", {"method": "kfold", "market": {}, "seed": -1}, "config.seed"),
    ("experiment --seed -5", {"study": "uq", "out_dir": "x"}, "--seed"),
    ("experiment", {"study": "uq", "master_seed": -3, "out_dir": "x"},
     "config.master_seed"),
    ("calibrate", {"method": "kfold", "market": {}, "portfolio": {"rho": True}},
     "config.portfolio.rho"),
    ("calibrate", {"method": "kfold", "market": {}, "portfolio": {"rho": "10"}},
     "config.portfolio.rho"),
    ("calibrate", {"method": "kfold", "market": {}, "portfolio": {"alpha": None}},
     "config.portfolio.alpha"),
    ("calibrate", {"method": "kfold", "market": {}, "portfolio": {"m": 2.5}},
     "config.portfolio.m"),
    ("experiment", {"study": "uq", "out_dir": 5}, "config.out_dir"),
    ("solve --epsilon -1", hinge_spec(), "--epsilon"),
    ("solve --epsilon 1", [hinge_spec()], "spec"),
    ("calibrate", {"method": "kfold", "market": {}, "n_samples": -1},
     "config.n_samples"),
    ("calibrate", {"method": "kfold", "samples": {"csv": 5}},
     "config.samples.csv"),
    ("calibrate", {"method": "uq_kfold", "samples": [[0.0], [1.0]],
                   "region": {"C": [[1.0]], "d": [True]}}, "config.region.d"),
]

# counts and fractions out of range, which the library once refused with
# no field named
RANGE_INPUTS = [
    ("calibrate", {"method": "kfold", "market": {}, "folds": 1}, "config.folds"),
    ("calibrate --folds 0", {"method": "kfold", "market": {}}, "--folds"),
    ("calibrate", {"method": "holdout", "market": {}, "split": 1.5}, "config.split"),
    ("calibrate", {"method": "holdout", "market": {}, "split": 0}, "config.split"),
    ("calibrate", {"method": "kfold", "market": {}, "n_samples": 0}, "config.n_samples"),
    ("calibrate", {"method": "kfold", "market": {}, "n_samples": 3}, "config.n_samples"),
    ("calibrate", {"method": "kfold", "samples": [[0.1], [0.2], [0.3]]}, "config.samples"),
    ("calibrate", {"method": "uq_kfold", "market": {}, "n_samples": 4, "folds": 5,
                   "region": {"C": [[1.0] * 10], "d": [0.0]}}, "config.n_samples"),
    ("calibrate", {"method": "holdout", "market": {}, "n_samples": 1}, "config.n_samples"),
    ("experiment --runs 0", {"study": "uq", "out_dir": "x"}, "--runs"),
    ("experiment", {"study": "uq", "runs": -2, "out_dir": "x"}, "config.runs"),
]

# inputs checked only after the work, or not at all, before output paths
# and the portfolio's asset count were read up front; spec.json is the
# spec file itself
LATE_INPUTS = [
    ("calibrate", {"method": "kfold", "market": {"m": 2}, "portfolio": {"m": 3}},
     "config.portfolio.m"),
    ("solve --out nodir/x.json", hinge_spec(), "--out"),
    ("solve --dump-lp nodir/x.lp", hinge_spec(), "--dump-lp"),
    ("worstcase --out nodir/x.json", hinge_spec(), "--out"),
    ("calibrate --out nodir/x.json", {"method": "kfold", "market": {}}, "--out"),
    ("experiment --out spec.json", {"study": "uq"}, "--out"),
    ("experiment --out spec.json/sub", {"study": "uq"}, "--out"),
    ("experiment", {"study": "uq", "out_dir": "spec.json"}, "config.out_dir"),
    ("experiment --full-scale", {"study": "uq", "out_dir": "x"}, "--full-scale"),
]


@pytest.mark.parametrize(
    "command, config, field",
    MALFORMED_NUMBERS + INEXACT_NUMBERS + BOOLEAN_NUMBERS + LOOSE_INPUTS
    + RANGE_INPUTS + LATE_INPUTS,
    ids=[field for _, _, field in MALFORMED_NUMBERS]
    + [f"{field}-inexact" for _, _, field in INEXACT_NUMBERS]
    + [f"{field}-bool" for _, _, field in BOOLEAN_NUMBERS]
    + [f"{command.split()[0]}:{field}-loose" for command, _, field in LOOSE_INPUTS]
    + [f"{command.split()[0]}:{field}-range" for command, _, field in RANGE_INPUTS]
    + [f"{command.split()[0]}:{field}-late" for command, _, field in LATE_INPUTS],
)
def test_malformed_config_number_names_the_field(
    tmp_path, capsys, no_study, command, config, field
):
    name, *flags = command.split()
    code = main([name, "--spec", write_spec(tmp_path, config), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert f"(field: {field})" in err
    assert err.count(field) == 1


# every scalar number a spec or config holds, on a base that reads them all
SWEEP_BASES = {
    "solve": hinge_spec(),
    "calibrate": {"method": "holdout", "market": {"m": 2},
                  "portfolio": {"m": 2}, "n_samples": 6, "grid": [0.1]},
    "experiment": {"study": "uq", "out_dir": "x"},
}
SWEEP_KEYS = [
    ("solve", "version"), ("solve", "radius"),
    ("calibrate", "version"), ("calibrate", "seed"), ("calibrate", "folds"),
    ("calibrate", "n_samples"), ("calibrate", "split"),
    ("calibrate", "market.m"), ("calibrate", "market.systematic_scale"),
    ("calibrate", "market.idio_mean_step"),
    ("calibrate", "market.idio_scale_step"),
    ("calibrate", "portfolio.m"), ("calibrate", "portfolio.rho"),
    ("calibrate", "portfolio.alpha"),
    ("experiment", "version"), ("experiment", "runs"),
    ("experiment", "master_seed"),
]
SEED_KEYS = ("seed", "master_seed")


@pytest.mark.parametrize(
    "command, key", SWEEP_KEYS, ids=[f"{c}:{k}" for c, k in SWEEP_KEYS]
)
def test_every_number_rejects_non_numbers(tmp_path, capsys, no_study, command, key):
    field = ("spec." if command == "solve" else "config.") + key
    values = [True, None, "x", [1]] + ([-1] if key in SEED_KEYS else [])
    for value in values:
        doc = with_value(SWEEP_BASES[command], key, value)
        assert main([command, "--spec", write_spec(tmp_path, doc)]) == 1, value
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and err.count(field) == 1, (value, err)


class TestExperiment:
    def test_portfolio_study_writes_deterministic_artifacts(self, tmp_path, capsys):
        config = {"study": "portfolio", "runs": 2, "master_seed": 44}
        spec = write_spec(tmp_path, config)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--spec", spec, "--out", str(out_a)]) == 0
        listing = json.loads(capsys.readouterr().out)["artifacts"]
        assert "fig5_reliability" in listing and "manifest" in listing
        assert main(["experiment", "--spec", spec, "--out", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("fig4_oos", "fig5_reliability", "fig6_calibration",
                     "fig9_radii", "manifest"):
            suffix = ".json" if name == "manifest" else ".csv"
            assert (out_a / f"{name}{suffix}").read_bytes() == (
                out_b / f"{name}{suffix}"
            ).read_bytes()

    def test_uq_study_smoke(self, tmp_path, capsys):
        config = {"study": "uq", "runs": 1, "master_seed": 9}
        out_dir = tmp_path / "uq"
        code = main(
            ["experiment", "--spec", write_spec(tmp_path, config),
             "--out", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        header = (out_dir / "fig11_calibrated.csv").read_text().splitlines()[0]
        assert header.startswith("run,n_samples,upper_radius")

    def test_unknown_study_rejected(self, tmp_path, capsys):
        config = {"study": "options"}
        code = main(
            ["experiment", "--spec", write_spec(tmp_path, config), "--out", "x"]
        )
        assert code == 1
        assert "portfolio" in capsys.readouterr().err
