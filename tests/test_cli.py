import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lorentzbath import SCHEMA_VERSION, __version__, sideband, sweep
from lorentzbath.cli import _emit, build_parser, load_config, main
from lorentzbath.sideband import _miller_start
from lorentzbath.sweep import WORKERS_ENV


def run_cli(*argv, env=None):
    """Spawn the CLI the way a user would; returns (code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "lorentzbath", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )
    return proc.returncode, proc.stdout, proc.stderr


def csv_sections(text):
    """Split emitted CSV into (metadata lines, header, data rows)."""
    lines = text.rstrip("\n").split("\n")
    meta = [l for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("# ")]
    return meta, body[0], body[1:]


def _reference_cell(value) -> str:
    """Per-cell CSV encoding: strings as they are, %.17g floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1 / 3, -1e300]
TABLES = {
    "mixed": (
        ("x", "n", "flag", "label"),
        (np.array(SPECIAL), list(range(-3, 5)), [True, False] * 4,
         ["plain", 'q"uote', "back\\slash", "\u03be", "tab\t", "", "a,b", "\n"]),
    ),
    "one-row": (("a", "b", "c"), (np.array([0.1]), [7], ["only"])),
    "zero-rows": (("a", "b"), (np.array([]), [])),
    "2-d-array": (("p", "q", "r"), np.arange(12.0).reshape(4, 3).T / 7.0),
    "no-columns": ((), ()),
    # an overflowing sum alone must leave finite JSON cells as they are
    "non-finite": (("a", "b"), ([1.5, float("nan"), float("inf"), -float("inf")],
                                [1e308, 1e308, 0.5, -0.0])),
}


class TestEmit:
    """Column-wise encoding against the per-cell encoders it replaced."""

    @pytest.mark.parametrize("table", sorted(TABLES))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_reference_encoders(self, table, fmt, capsys):
        names, columns = TABLES[table]
        rows = [
            [v.item() if isinstance(v, np.generic) else v for v in row]
            for row in zip(*columns)
        ]
        args = argparse.Namespace(format=fmt, out=None)
        assert _emit(args, {"command": "test", "n": 2}, names, columns) == 0
        meta = {
            "command": "test",
            "n": 2,
            "artifact_version": __version__,
            "schema_version": SCHEMA_VERSION,
            "config": {"format": fmt, "out": None},
        }
        if fmt == "json":
            payload = {"metadata": {**meta, "columns": list(names)}, "data": rows}
            expected = json.dumps(payload, indent=2) + "\n"
        else:
            lines = [f"# {k}: {json.dumps(v, sort_keys=True)}" for k, v in meta.items()]
            lines.append(",".join(names))
            lines.extend(",".join(_reference_cell(v) for v in row) for row in rows)
            expected = "\n".join(lines) + "\n"
        assert capsys.readouterr().out == expected


class TestEvolve:
    def test_analytic_csv_golden_point(self, capsys):
        assert main(["evolve", "--xi", "2.0", "--tau-max", "3.0", "--steps", "301"]) == 0
        meta, header, rows = csv_sections(capsys.readouterr().out)
        assert header.split(",")[0] == "tau"
        assert len(rows) == 301
        cells = rows[50].split(",")
        assert float(cells[0]) == pytest.approx(0.5, abs=1e-15)
        conc = float(cells[header.split(",").index("concurrence")])
        assert conc == pytest.approx(0.70390955690547894, abs=1e-13)

    def test_metadata_lines_are_json(self, capsys):
        assert main(["evolve", "--xi", "1.0"]) == 0
        meta, _, _ = csv_sections(capsys.readouterr().out)
        keys = set()
        for line in meta:
            key, _, payload = line[2:].partition(": ")
            json.loads(payload)  # every preamble value is one JSON document
            keys.add(key)
        assert {"artifact_version", "schema_version", "config", "command"} <= keys

    def test_seventeen_digit_cells_round_trip(self, capsys):
        assert main(["evolve", "--xi", "2.0", "--steps", "11"]) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        idx = header.split(",").index("p_e0")
        for row in rows:
            cell = row.split(",")[idx]
            assert "%.17g" % float(cell) == cell

    def test_json_format(self, capsys):
        assert main(["evolve", "--xi", "2.0", "--steps", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["columns"][0] == "tau"
        assert doc["metadata"]["schema_version"]
        assert doc["metadata"]["config"]["xi"] == 2.0
        assert len(doc["data"]) == 5
        assert len(doc["data"][0]) == len(doc["metadata"]["columns"])

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        assert main(["evolve", "--xi", "1.0", "--steps", "5", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().endswith("\n")

    def test_out_file_in_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "run.csv"
        assert main(["cmax", "--steps", "3", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write output file {target}: ")

    def test_lindblad_method_matches_analytic(self, capsys):
        assert main(["evolve", "--xi", "2.0", "--steps", "31", "--method", "lindblad"]) == 0
        _, header, lrows = csv_sections(capsys.readouterr().out)
        li = header.split(",").index("concurrence")
        assert main(["evolve", "--xi", "2.0", "--steps", "31"]) == 0
        _, aheader, arows = csv_sections(capsys.readouterr().out)
        ai = aheader.split(",").index("concurrence")
        for lrow, arow in zip(lrows, arows):
            assert float(lrow.split(",")[li]) == pytest.approx(
                float(arow.split(",")[ai]), abs=1e-6
            )

    def test_multimode_horizon_rejection(self, capsys):
        code = main(
            ["evolve", "--xi", "1.0", "--method", "multimode",
             "--n-modes", "51", "--window", "5.0", "--tau-max", "10.0"]
        )
        assert code == 2

    def test_multimode_xi_past_the_window_is_a_usage_error(self, capsys):
        assert main(["evolve", "--method", "multimode", "--xi", "1e6"]) == 2
        assert "xi = 1000000.0 exceeds 40, the largest the window W = 40.0" in capsys.readouterr().err

    def test_multimode_norm_failure_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # a start order below rho*tau truncates the expansion: an oracle
        # blow-up, exit 1, not a usage error
        monkeypatch.setattr(sideband, "_miller_start", lambda n, x: 2 * (int(x) // 4) + 2)
        target = tmp_path / "out.csv"
        code = main(["evolve", "--xi", "1", "--method", "multimode", "--n-modes", "51",
                     "--window", "5", "--tau-max", "1", "--steps", "401", "--out", str(target)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: norm ")
        assert not target.exists()

    def test_multimode_solver_counters_in_metadata(self, capsys):
        argv = ["evolve", "--xi", "2.0", "--method", "multimode", "--n-modes", "201",
                "--window", "10.0", "--tau-max", "2.0", "--steps", "21", "--format", "json"]
        docs = []
        for _ in range(2):
            assert main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        solver = docs[0]["metadata"]["solver"]
        assert list(solver) == ["terms", "spectral_radius", "norm_defect"]
        # rho = 40 + sqrt(coupling mass), the mass at most xi^2 = 4, and one
        # term per order up to the recurrence start at rho * tau_max
        assert 40.0 < solver["spectral_radius"] <= 42.0 + 1e-9
        assert solver["terms"] == _miller_start(0, 2.0 * solver["spectral_radius"]) + 1
        assert solver["norm_defect"] <= 1e-12
        assert docs[1]["metadata"]["solver"] == solver
        assert docs[1]["data"] == docs[0]["data"]

    def test_lindblad_solver_counters_in_metadata(self, capsys):
        argv = ["evolve", "--xi", "2.0", "--method", "lindblad", "--tau-max", "6.0",
                "--format", "json"]
        docs = []
        for _ in range(2):
            assert main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        solver = docs[0]["metadata"]["solver"]
        assert list(solver) == [
            "propagators", "squarings", "generator_calls", "worst_trace_drift",
            "min_eigenvalue", "worst_hermiticity_defect", "worst_g0_coherence",
        ]
        assert solver["worst_g0_coherence"] == 0.0
        assert solver["generator_calls"] == 10 and solver["propagators"] > 0
        assert docs[1]["metadata"]["solver"] == solver
        assert docs[1]["data"] == docs[0]["data"]

    def test_missing_xi_is_a_usage_error(self):
        assert main(["evolve"]) == 2

    def test_negative_xi_is_a_usage_error(self):
        assert main(["evolve", "--xi", "-1.0"]) == 2

    def test_bad_steps(self):
        assert main(["evolve", "--xi", "1.0", "--steps", "1"]) == 2

    @pytest.mark.parametrize("tau_max", ["inf", "nan", "0", "-1"])
    def test_bad_tau_max_is_a_usage_error(self, tau_max, capsys):
        assert main(["evolve", "--xi", "1.0", "--tau-max", tau_max]) == 2
        assert capsys.readouterr().err.startswith("error: tau range")


class TestHeatmap:
    def test_help_describes_the_bath_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["heatmap", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--n-modes N_MODES bath modes (multimode method only)" in text
        assert "--window WINDOW bath half-width in units of kappa (multimode only)" in text

    def test_small_grid(self, capsys):
        assert main(
            ["heatmap", "--xi-min", "0.5", "--xi-max", "2.0", "--xi-steps", "3",
             "--tau-max", "1.0", "--tau-steps", "5"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        assert header == "xi,tau,concurrence"
        assert len(rows) == 15
        assert float(rows[0].split(",")[0]) == 0.5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_out_file_get_the_same_bytes(self, fmt, tmp_path, capsys):
        argv = ["heatmap", "--xi-steps", "4", "--tau-steps", "7", "--format", fmt]
        target = tmp_path / f"map.{fmt}"
        assert main(argv) == 0
        assert main([*argv, "--out", str(target)]) == 0
        printed, written = capsys.readouterr().out, target.read_text()

        def without_run_fields(text):
            # the wall time and the --out path are the only fields that may differ
            if fmt == "csv":
                return [l for l in text.splitlines(True)
                        if not l.startswith(("# wall_time_s: ", "# config: "))]
            doc = json.loads(text)
            for key in ("wall_time_s", "config"):
                del doc["metadata"][key]
            return doc, text[text.index('\n  "data": '):]

        assert without_run_fields(printed) == without_run_fields(written)

    def test_bad_axis(self):
        assert main(["heatmap", "--xi-min", "2.0", "--xi-max", "1.0"]) == 2
        assert main(["heatmap", "--xi-min", "-1.0", "--xi-scale", "log"]) == 2

    def test_failing_lindblad_row_names_its_xi(self, capsys, monkeypatch):
        from lorentzbath import lindblad

        rhs = lindblad.rhs

        def gains_trace_above_xi_1(m, params):
            out = rhs(m, params)
            if params.xi > 1.0:
                out[2][2] += m[0][0]
            return out

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(lindblad, "rhs", gains_trace_above_xi_1)
        code = main(
            ["heatmap", "--method", "lindblad", "--xi-min", "0.5", "--xi-max", "2.0",
             "--xi-steps", "3", "--tau-max", "1.0", "--tau-steps", "5"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: trace ") and err.endswith(
            "at tau=0.25 [grid row xi=2.0]\n"
        )

    def test_bad_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "several")
        code = main(
            ["heatmap", "--xi-steps", "2", "--tau-steps", "3", "--xi-min", "1.0",
             "--xi-max", "2.0"]
        )
        assert code == 2

    def test_subnormal_xi_heatmap_row(self, capsys):
        # the heatmap's concurrence is concurrence(xi, tau), also where
        # Im c_g1 underflows at xi = 5e-324
        assert main(["heatmap", "--xi-min", "4e-324", "--xi-max", "1e-323", "--xi-steps", "2",
                     "--xi-scale", "linear", "--tau-steps", "3"]) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        assert header == "xi,tau,concurrence"
        tiny = "4.9406564584124654e-324"
        assert [row.split(",")[2] for row in rows[:3]] == ["0", tiny, tiny]

    @pytest.mark.parametrize("argv", [
        ["heatmap", "--tau-max", "1e308", "--tau-steps", "3"],
        ["evolve", "--xi", "10", "--tau-max", "1e308", "--steps", "3"],
    ], ids=["heatmap", "evolve"])
    def test_an_overflowing_phase_gives_an_exact_zero(self, argv, capsys):
        # w*tau overflows to inf where exp(-tau) is already 0
        assert main(argv) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        tau, conc = map(header.split(",").index, ("tau", "concurrence"))
        late = [row.split(",") for row in rows if float(row.split(",")[tau]) > 0.0]
        assert late and all(cells[conc] == "0" for cells in late)


class TestCmax:
    def test_xi_beyond_max_is_a_usage_error(self, capsys):
        assert main(["cmax", "--xi-max", "1e200"]) == 2
        assert "xi values must lie in (0, 1e+150]" in capsys.readouterr().err

    def test_sources_and_monotonicity(self, capsys):
        assert main(
            ["cmax", "--xi-min", "0.5", "--xi-max", "4.0", "--steps", "8"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        cols = header.split(",")
        c_idx, s_idx = cols.index("c_max"), cols.index("source")
        values = [float(r.split(",")[c_idx]) for r in rows]
        assert values == sorted(values)
        sources = {r.split(",")[s_idx] for r in rows}
        assert sources == {"formula"}

    def test_columns_follow_the_curve(self, capsys):
        assert main(["cmax", "--xi-min", "1", "--xi-max", "2", "--steps", "2",
                     "--scale", "linear"]) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        assert header == "xi,tau_opt,c_max,dcmax_dxi,source"
        curve = sweep.cmax_curve((1.0, 2.0))
        columns = [curve.xi, curve.tau_opt, curve.c_max, curve.derivative]
        expected = [[*map(_reference_cell, row), "formula"] for row in zip(*columns)]
        assert [r.split(",") for r in rows] == expected

    def test_golden_row(self, capsys):
        assert main(
            ["cmax", "--xi-min", "1.0", "--xi-max", "2.0", "--steps", "2",
             "--scale", "linear"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        first = rows[0].split(",")
        second = rows[1].split(",")
        assert float(first[2]) == pytest.approx(0.58693571751093799, abs=1e-9)
        assert float(first[1]) == pytest.approx(2.0**-0.5, abs=1e-15)
        assert first[4] == "formula"
        assert float(second[1]) == pytest.approx(0.38050733439596325, abs=1e-9)
        assert second[4] == "formula"

    @pytest.mark.parametrize("xi_min", ["1e-310", "5e-324", "1e-320"])
    def test_subnormal_xi_row_is_finite(self, capsys, xi_min):
        assert main(["cmax", "--xi-min", xi_min, "--xi-max", "1", "--steps", "3"]) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        cols = header.split(",")
        for row in rows:
            cells = dict(zip(cols, row.split(",")))
            values = [float(cells[k]) for k in ("xi", "tau_opt", "c_max", "dcmax_dxi")]
            assert all(map(np.isfinite, values)), row
            assert 0.0 <= float(cells["c_max"]) <= 1.0
        # the weak-coupling limit: c_max -> xi and dcmax_dxi -> 1
        first = dict(zip(cols, rows[0].split(",")))
        assert float(first["c_max"]) == pytest.approx(float(first["xi"]), rel=1e-3)
        assert float(first["dcmax_dxi"]) == pytest.approx(1.0, rel=1e-3)


class TestSideband:
    def test_forward(self, capsys):
        assert main(
            ["sideband", "--g", "1.0", "--kappa", "2.0", "--n", "1",
             "--epsilon", "1.2067184630059079"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert cells["mode"] == "forward"
        assert float(cells["xi"]) == pytest.approx(1.0, abs=1e-9)
        assert float(cells["lambda"]) == pytest.approx(0.5, abs=1e-9)

    def test_inverse(self, capsys):
        assert main(
            ["sideband", "--g", "1.0", "--kappa", "2.0", "--n", "1",
             "--target-xi", "1.0"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert cells["mode"] == "inverse"
        assert float(cells["epsilon"]) == pytest.approx(1.2067184630059079, abs=1e-9)

    def test_inverse_row_prints_the_reached_xi(self, capsys):
        assert main(
            ["sideband", "--g", "2.5", "--kappa", "5", "--nu", "1.3", "--n", "1",
             "--target-xi", "1"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert float(cells["xi"]) == 4.0 * abs(float(cells["lambda"])) / float(cells["kappa"])

    def test_a_target_whose_lambda_underflows_needs_no_drive(self, capsys):
        # xi = 5e-324 with kappa = 1 asks for lambda = xi/4, which is 0
        assert main(
            ["sideband", "--g", "1", "--kappa", "1", "--nu", "1", "--n", "1",
             "--target-xi", "5e-324"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert (cells["epsilon"], cells["lambda"]) == ("0", "0")

    def test_unreachable_target_is_a_numeric_failure(self, capsys):
        code = main(
            ["sideband", "--g", "1.0", "--kappa", "2.0", "--n", "1",
             "--target-xi", "5.0"]
        )
        assert code == 1
        assert "caps xi" in capsys.readouterr().err

    def test_requires_exactly_one_mode(self):
        assert main(["sideband", "--g", "1.0", "--kappa", "2.0", "--n", "1"]) == 2

    def test_missing_required_flag(self):
        assert main(["sideband", "--g", "1.0", "--target-xi", "0.5"]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["--g", "2", "--n", "70", "--target-xi", "0.1"], "got 70"),
        (["--g", "inf", "--n", "1", "--target-xi", "0.1"], "g must be positive, got inf"),
        (["--g", "2", "--n", "1", "--nu", "inf", "--target-xi", "0.5"],
         "nu must be positive, got inf"),
        (["--g", "2", "--n", "1", "--epsilon", "-1"], "epsilon must be non-negative, got -1.0"),
        (["--g", "2", "--n", "1", "--target-xi", "inf"], "target_xi must be non-negative, got inf"),
    ])
    def test_bad_drive_is_a_usage_error_naming_the_value(self, argv, named, capsys):
        assert main(["sideband", "--kappa", "5", *argv]) == 2
        assert named in capsys.readouterr().err


class TestConfigFile:
    def test_file_seeds_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 2.0\nsteps = 5  # keep it tiny\ntau-max = 1.0\n")
        assert main(["evolve", "--config", str(cfg)]) == 0
        _, _, rows = csv_sections(capsys.readouterr().out)
        assert len(rows) == 5
        assert float(rows[-1].split(",")[0]) == pytest.approx(1.0)

    def test_explicit_flag_beats_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 2.0\nsteps = 5\n")
        assert main(["evolve", "--config", str(cfg), "--steps", "7"]) == 0
        _, _, rows = csv_sections(capsys.readouterr().out)
        assert len(rows) == 7

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xj = 2.0\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = fast\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert f"error: {cfg}:1: bad value" in capsys.readouterr().err

    def test_choice_keys_are_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 1.0\nmethod = wizard\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2: config key 'method'" in capsys.readouterr().err

    def test_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a whole-line comment\n\n   \nxi = 2.0  # trailing\nsteps = 3\n")
        assert main(["evolve", "--config", str(cfg)]) == 0
        _, _, rows = csv_sections(capsys.readouterr().out)
        assert len(rows) == 3

    @pytest.mark.parametrize("word", ["false", "off", "no", "0", "FALSE"])
    def test_false_booleans(self, tmp_path, word):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"quick = {word}\n")
        assert load_config(str(cfg), build_parser()[1]["verify"]) == {"quick": False}

    @pytest.mark.parametrize("argv, text", [
        (["verify"], "quick = maybe\n"),
        (["evolve"], "xi 2.0\n"),
    ], ids=["bad-boolean", "no-equals-sign"])
    def test_bad_line_is_a_usage_error_naming_path_and_line(self, tmp_path, capsys, argv, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# first line\n" + text)
        assert main([*argv, "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2: " in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["evolve", "--config", "/no/such/file.cfg"]) == 2

    def test_explicit_full_beats_quick_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quick = true\n")
        assert main(["verify", "--full", "--config", str(cfg), "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["quick"] is False
        assert (meta["config"]["full"], meta["config"]["quick"]) == (True, False)

    def test_explicit_epsilon_beats_target_xi_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target_xi = 0.5\n")
        argv = ["sideband", "--g", "1", "--kappa", "2", "--n", "1", "--epsilon", "1"]
        assert main([*argv, "--config", str(cfg)]) == 0
        _, _, rows = csv_sections(capsys.readouterr().out)
        assert rows[0].split(",")[0] == "forward"

    @pytest.mark.parametrize("text, argv, keys", [
        ("target-xi = 0.5\nepsilon = 1\n",
         ["sideband", "--g", "1", "--kappa", "2", "--n", "1", "--epsilon", "1"],
         ("'target_xi'", "'epsilon'")),
        ("quick = true\nfull = yes\n", ["verify"], ("'quick'", "'full'")),
    ], ids=["sideband", "verify"])
    def test_file_setting_two_exclusive_keys_is_a_usage_error(self, tmp_path, capsys,
                                                              text, argv, keys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)


# imported only where a command needs them: masked arrays, random draws, process pools;
# no command needs dataclasses
COLD_MODULES = ("numpy.ma", "numpy.random", "concurrent.futures", "dataclasses")
# numpy imports inspect, so a command that leaves numpy unloaded leaves inspect too
NUMPY_FREE_COLD = ("numpy", "inspect", *COLD_MODULES)
# package modules the closed-form commands never run; only verify runs the battery
ANALYTIC_NEVER_RUN = ("lindblad", "multimode", "entanglement", "sideband", "battery")
# the Lindblad oracle is scalar Python too: lists, math and cmath
LINDBLAD_NEVER_RUN = ("multimode", "entanglement", "sideband", "battery")
# sideband is scalar Python: it needs no array module, hence no numpy
SIDEBAND_NEVER_RUN = ("model", "sweep", "analytic", "lindblad", "multimode", "entanglement",
                      "battery")


class TestProcessLevel:
    def test_version_flag(self):
        code, out, _ = run_cli("--version")
        assert code == 0 and out.strip()

    def test_unknown_flag_usage_error(self):
        code, _, err = run_cli("evolve", "--xi", "1.0", "--bogus")
        assert code == 2 and "usage" in err.lower()

    def test_missing_subcommand(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_a_reader_that_stops_early_is_not_an_error(self):
        # `lorentzbath heatmap | head -1`: the default table overflows the pipe
        proc = subprocess.Popen([sys.executable, "-m", "lorentzbath", "heatmap"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().startswith("# ")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        with proc.stderr:
            assert proc.stderr.read() == ""

    @pytest.mark.parametrize("argv", [
        ("evolve", "--xi", "-1"),
        ("heatmap", "--method", "multimode", "--xi-steps", "2", "--tau-max", "10",
         "--tau-steps", "3", "--n-modes", "51", "--window", "5"),
    ], ids=["evolve-bad-xi", "heatmap-multimode-past-horizon"])
    def test_a_failed_run_leaves_no_out_file(self, argv, tmp_path):
        target = tmp_path / "new.csv"
        code, out, err = run_cli(*argv, "--out", str(target))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert not target.exists()
        # a file that was there before the run stays as it was
        target.write_bytes(b"an earlier table\n")
        assert run_cli(*argv, "--out", str(target))[0] == 2
        assert target.read_bytes() == b"an earlier table\n"

    def test_a_failed_verify_still_writes_its_report(self, tmp_path, monkeypatch):
        from lorentzbath import battery

        def failing(quick, metadata):
            return [battery.CheckResult("always_fails", 0.0, 1.0)]

        monkeypatch.setattr(battery, "_CHECKS", (failing,))
        target = tmp_path / "report.csv"
        assert main(["verify", "--quick", "--out", str(target)]) == 1
        assert target.read_text().endswith("always_fails,0,1,FAIL\n")

    def test_a_failing_row_says_why_on_stderr(self, monkeypatch, capsys):
        from lorentzbath import battery

        def passing(quick, metadata):
            return [battery.CheckResult("holds", 1.0, 0.5, "never printed")]

        def multimode(quick, metadata):
            raise RuntimeError("boom")

        monkeypatch.setattr(battery, "_CHECKS", (passing, multimode))
        assert main(["verify", "--quick"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("holds,1,0.5,pass\nmultimode,nan,inf,FAIL\n")
        assert err == "FAIL multimode: check crashed: RuntimeError: boom\n"

    def test_verify_quick_passes(self):
        code, out, _ = run_cli("verify", "--quick")
        assert code == 0
        meta, header, rows = csv_sections(out)
        assert header == "name,budget,measured,status"
        assert all(r.rsplit(",", 1)[1] == "pass" for r in rows)

    @pytest.mark.parametrize("argv, unused, never_run", [
        (("evolve", "--xi", "2", "--method", "multimode", "--n-modes", "201", "--window", "20",
          "--tau-max", "1", "--steps", "11"), ("numpy.ma", "dataclasses"),
         ("lindblad", "entanglement", "battery")),
        (("verify", "--quick"), ("numpy.ma", "numpy.random", "dataclasses"), ()),
        *((argv, NUMPY_FREE_COLD, ANALYTIC_NEVER_RUN) for argv in (
            ("heatmap", "--xi-steps", "5", "--tau-steps", "11"),
            ("cmax", "--steps", "25"),
            ("evolve", "--xi", "2"),
        )),
        *((argv, NUMPY_FREE_COLD, LINDBLAD_NEVER_RUN) for argv in (
            ("heatmap", "--method", "lindblad", "--xi-steps", "3", "--tau-steps", "11"),
            ("evolve", "--xi", "2", "--method", "lindblad"),
        )),
        *((("sideband", "--g", "2.5", "--kappa", "5", "--nu", "1.3", "--n", "1", *mode),
           NUMPY_FREE_COLD, SIDEBAND_NEVER_RUN)
          for mode in (("--target-xi", "1"), ("--epsilon", "1.5"))),
    ], ids=["evolve-multimode", "verify-quick", "heatmap", "cmax", "evolve", "heatmap-lindblad",
            "evolve-lindblad", "sideband", "sideband-forward"])
    def test_fresh_process_leaves_cold_modules_unloaded(self, argv, unused, never_run,
                                                        monkeypatch):
        # a cold import of one costs ~4-25 ms, a visible share of a short command;
        # a worker pool would import concurrent.futures, so the child runs serially.
        # A package module sits in sys.modules from the start, lazily registered,
        # and its type becomes ModuleType only once its code has run.
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        probe = (
            "import contextlib, io, sys, types\n"
            "from lorentzbath.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(code, *[m for m in {unused!r} if m in sys.modules],\n"
            f"      *[m for m in {never_run!r}\n"
            "        if type(sys.modules['lorentzbath.' + m]) is types.ModuleType])\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_density_matrices_and_their_concurrence_never_import_numpy(self):
        # a state is a tuple of row tuples: building one, by hand or by the
        # Lindblad oracle, and reading its concurrence stay scalar Python
        probe = (
            "import sys\n"
            "from lorentzbath.model import (DensityMatrix3, ModelParams, PureAmplitudes,\n"
            "                               pure_to_density, xstate_concurrence)\n"
            "from lorentzbath.lindblad import integrate\n"
            "rho = pure_to_density(PureAmplitudes(0.6, 0.8j))\n"
            "states = map(DensityMatrix3, integrate(ModelParams(xi=2.0), [0.0, 0.5, 1.0]).rho)\n"
            "hand = DensityMatrix3(((0.5, 0.25j, 0), (-0.25j, 0.5, 0), (0, 0, 0)))\n"
            "c = [xstate_concurrence(s) for s in (rho, hand, *states)]\n"
            "print(len(c), 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["5", "False"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ("evolve", "--method", "lindblad", "--xi", "1.3", "--tau-max", "2", "--steps", "41"),
        ("heatmap", "--method", "lindblad", "--xi-steps", "4", "--tau-steps", "21"),
    ], ids=["evolve", "heatmap"])
    def test_lindblad_commands_never_import_numpy(self, argv, workers, monkeypatch):
        # every heatmap row goes through the spy, in the worker processes too
        monkeypatch.setenv(WORKERS_ENV, workers)
        probe = (
            "import contextlib, io, sys\n"
            "from lorentzbath import sweep\n"
            "from lorentzbath.cli import main\n"
            "rows_for_xi = sweep._rows_for_xi\n"
            "def spy(task):\n"
            "    rows = rows_for_xi(task)\n"
            "    if 'numpy' in sys.modules:\n"
            "        raise RuntimeError('numpy loaded by a row')\n"
            "    return rows\n"
            "sweep._rows_for_xi = spy\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_unwritable_out_fails_before_the_work(self, tmp_path, monkeypatch):
        # a Lindblad heatmap that would run its oracle first exits 2 with that oracle unrun
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        probe = (
            "import sys, types\n"
            "from lorentzbath.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, type(sys.modules['lorentzbath.lindblad']) is types.ModuleType)\n"
        )
        argv = ("heatmap", "--method", "lindblad", "--xi-steps", "3", "--tau-steps", "5",
                "--out", str(tmp_path / "missing" / "x.csv"))
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "False"]
        assert proc.stderr.startswith("error: cannot write output file ")

    @pytest.mark.parametrize("argv, code", [
        ((), 0),
        (("--version",), 0),
        (("--help",), 0),
        (("evolve", "--xi", "1.0", "--bogus"), 2),
        (("evolve", "--config", "{bad}"), 2),
    ], ids=["build-parser", "version", "help", "usage-error", "bad-config"])
    def test_no_numpy_until_an_array_is_computed(self, argv, code, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("xj = 2.0\n")
        probe = (
            "import contextlib, io, sys\n"
            "from lorentzbath.cli import build_parser, main\n"
            "build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        argv = [a.format(bad=bad) for a in argv]
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(code), "False"]

    def test_heatmap_bytes_stable_under_parallelism(self):
        argv = (
            "heatmap", "--xi-min", "0.5", "--xi-max", "4.0", "--xi-steps", "4",
            "--tau-max", "2.0", "--tau-steps", "21", "--method", "lindblad",
        )
        outputs = []
        for workers in ("1", "3"):
            code, out, _ = run_cli(*argv, env={WORKERS_ENV: workers})
            assert code == 0
            _, header, rows = csv_sections(out)
            outputs.append((header, tuple(rows)))
        assert outputs[0] == outputs[1]
