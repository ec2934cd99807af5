"""Command-line workflows: exit codes, file outputs, determinism."""

import contextlib
import csv
import hashlib
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrcscatter import cli, serialize
from mrcscatter.cli import EXIT_ERROR, EXIT_OK, EXIT_UNCONVERGED, build_parser, main

SOLVE_CFG = {
    "schema_version": 1,
    "surface": {"type": "sphere", "radius": 1.0},
    "k": 1.0,
    "alpha": [0.0, 0.0],
    "bc": "dirichlet",
    "eps_target": 1e-8,
    "L_max": 12,
}

SYNTH_CFG = {
    "schema_version": 1,
    "surface": {"type": "sphere", "radius": 1.0},
    "R": 3.0,
    "quadrature": {"n_theta": 16, "n_phi": 32},
    "entries": [
        {"k": 1.0, "alpha": [0.0, 0.0]},
        {"k": 1.5, "alpha": [1.5707963267948966, 0.0]},
    ],
    "delta": 0.0,
    "forward": {"eps_target": 1e-9, "L_max": 16},
}

INVERT_CFG = {
    "schema_version": 1,
    "directions": {"type": "fibonacci", "count": 20},
    "bracket": [0.3, 2.5],
    "L_schedule": [3, 4, 5, 6],
    "stability_tol": 1e-4,
}


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSolve:
    def test_sphere_solve_produces_valid_converged_solution(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.json", SOLVE_CFG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "solution.json").read_text())
        serialize.validate(doc, "direct_solution")
        assert doc["converged"] is True
        assert doc["residual"] <= 1e-8

    def test_malformed_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope')
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_ERROR

    def test_zero_eps_rejected_by_validation(self, tmp_path):
        cfg = dict(SOLVE_CFG, eps_target=0)
        path = write_cfg(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_ERROR

    def test_nonpositive_surface_rejected(self, tmp_path):
        cfg = dict(SOLVE_CFG, surface={"type": "perturbed_sphere", "radius": 1.0, "bumps": [[2, 0, 1.5]]})
        path = write_cfg(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_ERROR

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_ERROR

    @pytest.mark.parametrize("axis", [1e200, 1e-170])
    def test_semi_axis_out_of_float_range_is_one_error_line(self, tmp_path, capsys, axis):
        # schema-valid (any positive number), but its square is not a positive finite float
        cfg = dict(SOLVE_CFG, surface={"type": "ellipsoid", "semi_axes": [axis, 1.0, 1.0]})
        path = write_cfg(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid surface: semi-axis")

    @pytest.mark.parametrize("surface", [
        {"type": "sphere", "radius": 1e-170},
        {"type": "perturbed_sphere", "radius": 1e-170, "bumps": [[2, 0, 1e-171]]},
    ], ids=["sphere", "perturbed_sphere"])
    def test_radius_whose_square_underflows_is_one_error_line(self, tmp_path, capsys, surface):
        # schema-valid, but the boundary weight would underflow to 0 and the residual be NaN
        path = write_cfg(tmp_path / "cfg.json", dict(SOLVE_CFG, surface=surface))
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid surface: ")
        assert not (tmp_path / "solution.json").exists()


class TestSynthesize:
    def test_deterministic_under_seed(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.json", SYNTH_CFG)
        for out in ("a", "b"):
            assert main([
                "synthesize", "--config", cfg, "--out", str(tmp_path / out), "--seed", "42",
            ]) == EXIT_OK
        assert sha256(tmp_path / "a" / "near_field.json") == sha256(tmp_path / "b" / "near_field.json")

    def test_provenance_header_and_noise_norm(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.json", dict(SYNTH_CFG, delta=0.05))
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "n"), "--seed", "7"]) == EXIT_OK
        doc = json.loads((tmp_path / "n" / "near_field.json").read_text())
        serialize.validate(doc, "near_field_data")
        for key in ("surface", "forward_eps", "forward_L", "delta", "seed"):
            assert key in doc["provenance"]
        # regenerate the clean field and verify the documented noise convention
        cfg_clean = write_cfg(tmp_path / "cfg0.json", SYNTH_CFG)
        assert main(["synthesize", "--config", cfg_clean, "--out", str(tmp_path / "c"), "--seed", "7"]) == EXIT_OK
        clean = serialize.near_field_from_jsonable(
            json.loads((tmp_path / "c" / "near_field.json").read_text())
        )
        noisy = serialize.near_field_from_jsonable(doc)
        w = clean.quadrature.weights
        for a, b in zip(clean.entries, noisy.entries):
            dn = np.sqrt(np.sum(w * np.abs(b.samples - a.samples) ** 2))
            vn = np.sqrt(np.sum(w * np.abs(a.samples) ** 2))
            assert dn / vn == pytest.approx(0.05, rel=1e-9)

    def test_measurement_radius_must_enclose_obstacle(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.json", dict(SYNTH_CFG, R=0.5))
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == EXIT_ERROR


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    cfg = write_cfg(base / "cfg.json", SYNTH_CFG)
    assert main(["synthesize", "--config", cfg, "--out", str(base), "--seed", "42"]) == EXIT_OK
    return base / "near_field.json"


class TestInvert:

    def test_end_to_end_sphere(self, tmp_path, data_file):
        cfg = write_cfg(tmp_path / "inv.json", INVERT_CFG)
        assert main(["invert", str(data_file), "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        doc = json.loads((tmp_path / "o" / "reconstruction.json").read_text())
        serialize.validate(doc, "reconstruction")
        radii = np.array([row[2] for row in doc["directions"]])
        assert np.max(np.abs(radii - 1.0)) < 1e-3
        with open(tmp_path / "o" / "reconstruction.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "phi", "r"]
        assert len(rows) == 1 + INVERT_CFG["directions"]["count"]

    def test_missing_data_file_exits_1(self, tmp_path):
        cfg = write_cfg(tmp_path / "inv.json", INVERT_CFG)
        assert main(["invert", str(tmp_path / "none.json"), "--config", cfg, "--out", str(tmp_path)]) == EXIT_ERROR


class TestOracleAndFieldmap:
    def test_oracle_outputs_validate(self, tmp_path):
        for bc in ("dirichlet", "neumann"):
            cfg = write_cfg(
                tmp_path / f"o_{bc}.json",
                {"schema_version": 1, "radius": 1.0, "k": 1.0, "alpha": [0.0, 0.0], "bc": bc, "L": 8},
            )
            out = tmp_path / bc
            assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
            doc = json.loads((out / "oracle.json").read_text())
            serialize.validate(doc, "oracle_reference")
            assert doc["boundary_condition"] == bc

    def test_fieldmap_csv(self, tmp_path):
        scfg = write_cfg(tmp_path / "solve.json", SOLVE_CFG)
        assert main(["solve", "--config", scfg, "--out", str(tmp_path)]) == EXIT_OK
        fcfg = write_cfg(
            tmp_path / "fm.json",
            {
                "schema_version": 1,
                "solution": "solution.json",
                "ray": {"direction": [1.0, 0.5], "r_start": 1.5, "r_stop": 5.0, "n": 25},
            },
        )
        assert main(["fieldmap", "--config", fcfg, "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "fieldmap.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 26
        assert rows[0][:3] == ["x", "y", "z"]

    def test_fieldmap_rejects_a_document_that_is_not_a_solution(self, tmp_path, capsys):
        (tmp_path / "solution.json").write_text(json.dumps({"kind": "direct_solution", "k": 1.0}))
        fcfg = write_cfg(
            tmp_path / "fm.json",
            {
                "schema_version": 1,
                "solution": "solution.json",
                "ray": {"direction": [1.0, 0.5], "r_start": 1.5, "r_stop": 5.0, "n": 5},
            },
        )
        assert main(["fieldmap", "--config", fcfg, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: direct_solution")
        assert not (tmp_path / "fieldmap.csv").exists()

    def test_fieldmap_rejects_a_solution_without_coefficient_rows(self, tmp_path, capsys):
        scfg = write_cfg(tmp_path / "solve.json", SOLVE_CFG)
        assert main(["solve", "--config", scfg, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "solution.json").read_text())
        doc["coefficients"] = []
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        fcfg = write_cfg(
            tmp_path / "fm.json",
            {
                "schema_version": 1,
                "solution": "solution.json",
                "ray": {"direction": [1.0, 0.5], "r_start": 1.5, "r_stop": 5.0, "n": 5},
            },
        )
        capsys.readouterr()
        assert main(["fieldmap", "--config", fcfg, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: the document has no coefficient rows\n"
        assert not (tmp_path / "fieldmap.csv").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda rows, L: rows[:-3],  # modes missing
            lambda rows, L: rows[:-1] + [rows[0]],  # one mode twice, one missing
            lambda rows, L: rows[:-1] + [[L + 3, 0, 1.0, 0.0]],  # degree above L
            lambda rows, L: rows[: L * L],  # a whole degree missing: rows end at L - 1
        ],
        ids=["missing", "duplicate", "above_L", "short_of_L"],
    )
    def test_fieldmap_rejects_rows_that_do_not_match_L(self, tmp_path, capsys, corrupt):
        scfg = write_cfg(tmp_path / "solve.json", SOLVE_CFG)
        assert main(["solve", "--config", scfg, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert len(doc["coefficients"]) == (doc["L"] + 1) ** 2
        doc["coefficients"] = corrupt(doc["coefficients"], doc["L"])
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        fcfg = write_cfg(
            tmp_path / "fm.json",
            {
                "schema_version": 1,
                "solution": "solution.json",
                "ray": {"direction": [1.0, 0.5], "r_start": 1.5, "r_stop": 5.0, "n": 5},
            },
        )
        capsys.readouterr()
        assert main(["fieldmap", "--config", fcfg, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "fieldmap.csv").exists()


class TestInvertProvenance:
    NEUMANN_SYNTH = dict(SYNTH_CFG, bc="neumann", forward={"eps_target": 1e-6, "L_max": 12})
    INVERT = dict(INVERT_CFG, directions={"type": "fibonacci", "count": 8})

    def invert(self, tmp_path, data, caplog):
        cfg = write_cfg(tmp_path / "inv.json", self.INVERT)
        with caplog.at_level(logging.WARNING, logger="mrcscatter.cli"):
            code = main(["invert", str(data), "--config", cfg, "--out", str(tmp_path / "o")])
        return code, [r.getMessage() for r in caplog.records if r.name == "mrcscatter.cli"]

    def test_neumann_data_is_named_as_the_cause(self, tmp_path, caplog):
        cfg = write_cfg(tmp_path / "syn.json", self.NEUMANN_SYNTH)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        code, messages = self.invert(tmp_path, tmp_path / "near_field.json", caplog)
        # the Dirichlet ray criterion does not settle on Neumann data; the exit code says so
        assert code == EXIT_UNCONVERGED
        assert len(messages) == 1
        assert "near_field.json" in messages[0] and "'neumann'" in messages[0]

    def test_dirichlet_data_raises_no_warning(self, tmp_path, data_file, caplog):
        code, messages = self.invert(tmp_path, data_file, caplog)
        assert code == EXIT_OK
        assert messages == []


class TestSeedOption:
    """--seed draws synthesize's noise and is no option of the other subcommands."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "c.json"],
        ["oracle", "--config", "c.json"],
        ["fieldmap", "--config", "c.json"],
        ["invert", "d.json", "--config", "c.json"],
    ])
    def test_rejected_outside_synthesize(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_synthesize_refuses_the_literal_and_writes_nothing(self, tmp_path, capsys, literal):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SYNTH_CFG).replace('"R": 3.0', f'"R": {literal}'))
        assert literal in cfg.read_text()
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(cfg) in err and f"{literal} is not a finite number" in err

    def test_nan_measurement_radius_does_not_enclose_the_obstacle(self, tmp_path, monkeypatch, capsys):
        # the loader refuses NaN, so the radius guard is reached by replacing it
        monkeypatch.setattr(cli, "_load_document", lambda path, schema: dict(SYNTH_CFG, R=float("nan")))
        out = tmp_path / "out"
        assert main(["synthesize", "--config", "unused.json", "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        assert "must enclose the obstacle" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("R", 3.0), ("k", 1.5)])
    def test_synthesize_refuses_an_overflowing_literal(self, tmp_path, capsys, key, value):
        # json.loads reads 1e999 as inf, which draft-7 passes as a number
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SYNTH_CFG).replace(f'"{key}": {value}', f'"{key}": 1e999'))
        assert "1e999" in cfg.read_text()
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(cfg) in err and "1e999 is not a finite number" in err

    def test_invert_refuses_an_overflowing_sample(self, tmp_path, capsys, data_file):
        doc = json.loads(data_file.read_text())
        doc["entries"][1]["samples"][7] = [0.125, 12345.5]
        data = tmp_path / "near_field.json"
        data.write_text(json.dumps(doc).replace("12345.5", "-1e999"))
        cfg = write_cfg(tmp_path / "inv.json", INVERT_CFG)
        out = tmp_path / "out"
        assert main(["invert", str(data), "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(data) in err and "-1e999 is not a finite number" in err


class TestIntegerBeyondFloatRange:
    """An integer literal beyond float range is refused like 1e999, with exit 1
    and the file named, where it used to escape as an OverflowError."""

    HUGE = "1" + "0" * 400

    def assert_refused(self, err, path):
        assert str(path) in err and f"{self.HUGE} is not a finite number" in err
        assert "Traceback" not in err

    def test_synthesize_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SYNTH_CFG).replace('"R": 3.0', f'"R": {self.HUGE}'))
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        self.assert_refused(capsys.readouterr().err, cfg)

    def test_invert_sample_row(self, tmp_path, capsys, data_file):
        doc = json.loads(data_file.read_text())
        doc["entries"][0]["samples"][3] = [0.25, 12345]
        data = tmp_path / "near_field.json"
        data.write_text(json.dumps(doc).replace("12345]", f"-{self.HUGE}]"))
        cfg = write_cfg(tmp_path / "inv.json", INVERT_CFG)
        out = tmp_path / "out"
        assert main(["invert", str(data), "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        self.assert_refused(capsys.readouterr().err, data)

    @pytest.mark.parametrize("value", [10**300, -(10**308), True, None, "1e999", "NaN"],
                             ids=["1e300", "-1e308", "true", "null", "string 1e999", "string NaN"])
    def test_other_values_are_not_refused(self, value):
        # ints within float range, null, bools and strings are no numbers to refuse
        doc = json.loads(json.dumps({"rows": [[value, 1.5], [2.5, 3.5]], "x": [value], "y": value}))
        assert cli._numbers_finite(doc)


def numbers_finite_by_arrays(node) -> bool:
    """The pass as it read a list before: one np.asarray of the nested list."""
    if isinstance(node, dict):
        return all(map(numbers_finite_by_arrays, node.values()))
    if isinstance(node, list):
        with contextlib.suppress(ValueError):
            if (array := np.asarray(node)).dtype.kind in "biuf":
                return bool(np.isfinite(array).all())
        return all(map(numbers_finite_by_arrays, node))
    try:
        return not isinstance(node, (int, float)) or math.isfinite(node)
    except OverflowError:
        return False


SCALARS = st.one_of(
    st.floats(), st.integers(), st.integers(min_value=10**300, max_value=10**320), st.booleans(),
    st.none(), st.sampled_from(["1e999", "NaN", "inf", "1.5", "x", ""]),
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.lists(inner, min_size=2, max_size=2), max_size=4),  # sample rows
        st.dictionaries(st.sampled_from(["1", "inf", "k"]), inner, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_numbers_finite_answers_as_the_array_pass(doc):
    doc = json.loads(json.dumps(doc))  # what the loader sees: inf and nan come as 1e999 parses
    assert cli._numbers_finite(doc) is numbers_finite_by_arrays(doc)


@pytest.mark.parametrize("rows", [
    [[0.5, 1.5], [2.5, float("inf")]], [[0.5, None]], [[1.5], [2.5, 3.5]], [[0.5, 10**400]],
    [[[0.5, 1.5]], [[2.5, float("nan")]]], [{"1": float("inf")}], [[0.5, "1e999"]], [],
], ids=["inf", "null", "ragged", "huge int", "deeper", "dict row", "string", "empty"])
def test_numbers_finite_reads_rows_exactly(rows):
    assert cli._numbers_finite(rows) is numbers_finite_by_arrays(rows)


@pytest.mark.parametrize("literal, wording", [
    ("1e999", "number out of range: 1e999 is not a finite number"),
    ("1" + "0" * 400, "number out of range: 1" + "0" * 400 + " is not a finite number"),
    ("NaN", "is not valid JSON: NaN is not a finite number"),
    ("Infinity", "is not valid JSON: Infinity is not a finite number"),
    ("3.0,,", "is not valid JSON: Expecting property name"),
], ids=["1e999", "401-digit int", "NaN", "Infinity", "syntax error"])
def test_loader_calls_only_malformed_files_invalid_json(tmp_path, capsys, literal, wording):
    # 1e999 and a 401-digit integer are well-formed JSON whose value no float holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SYNTH_CFG).replace('"R": 3.0', f'"R": {literal}'))
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(cfg) in err and wording in err and "Traceback" not in err
    assert ("is not valid JSON" in err) is ("valid JSON" in wording)


def test_main_builds_one_parser_per_process(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", SOLVE_CFG)
    for _ in range(2):
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert cli._parser() is cli._parser()
    assert build_parser() is not cli._parser()  # callers of build_parser get their own


class TestListedDirections:
    ITEMS = [[0.1, 0.2], [1.0, 2.0], [2.5, 4.0]]

    def test_csv_rows_are_the_listed_directions(self, tmp_path, data_file):
        cfg = write_cfg(tmp_path / "inv.json", dict(INVERT_CFG, directions={"type": "list", "items": self.ITEMS}))
        assert main(["invert", str(data_file), "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        with open(tmp_path / "o" / "reconstruction.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [[float(t), float(p)] for t, p, _ in rows] == self.ITEMS
        np.testing.assert_allclose([float(r) for *_, r in rows], 1.0, rtol=0, atol=1e-3)

    def test_polar_angle_beyond_pi_exits_1(self, tmp_path, data_file, capsys):
        items = self.ITEMS + [[4.0, 0.0]]
        cfg = write_cfg(tmp_path / "inv.json", dict(INVERT_CFG, directions={"type": "list", "items": items}))
        assert main(["invert", str(data_file), "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert "theta must be in [0, pi], got 4.0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "reconstruction.csv").exists()


class TestSynthesizeEllipsoid:
    CFG = dict(SYNTH_CFG, surface={"type": "ellipsoid", "semi_axes": [1.0, 0.95, 1.2]},
               quadrature={"n_theta": 8, "n_phi": 16}, forward={"eps_target": 1e-3, "L_max": 12})

    def test_runs_and_records_the_ellipsoid(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.json", self.CFG)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "near_field.json").read_text())
        assert doc["provenance"]["surface"] == self.CFG["surface"]

    def test_measurement_radius_must_enclose_the_longest_semi_axis(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", dict(self.CFG, R=1.1))
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == EXIT_ERROR
        assert "must enclose the obstacle (max radius 1.2)" in capsys.readouterr().err
        assert not (tmp_path / "near_field.json").exists()
