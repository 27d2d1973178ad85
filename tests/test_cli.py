import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lorentzbath import SCHEMA_VERSION, __version__
from lorentzbath.cli import _emit, main
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

    def test_multimode_solver_counters_in_metadata(self, capsys):
        argv = ["evolve", "--xi", "2.0", "--method", "multimode", "--n-modes", "201",
                "--window", "10.0", "--tau-max", "2.0", "--steps", "21", "--format", "json"]
        docs = []
        for _ in range(2):
            assert main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        solver = docs[0]["metadata"]["solver"]
        assert set(solver) == {"terms", "spectral_radius", "norm_defect"}
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
        assert set(solver) == {
            "propagators", "squarings", "generator_calls", "worst_trace_drift",
            "min_eigenvalue",
        }
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
    def test_small_grid(self, capsys):
        assert main(
            ["heatmap", "--xi-min", "0.5", "--xi-max", "2.0", "--xi-steps", "3",
             "--tau-max", "1.0", "--tau-steps", "5"]
        ) == 0
        _, header, rows = csv_sections(capsys.readouterr().out)
        assert header == "xi,tau,concurrence"
        assert len(rows) == 15
        assert float(rows[0].split(",")[0]) == 0.5

    def test_bad_axis(self):
        assert main(["heatmap", "--xi-min", "2.0", "--xi-max", "1.0"]) == 2
        assert main(["heatmap", "--xi-min", "-1.0", "--xi-scale", "log"]) == 2

    def test_failing_lindblad_row_names_its_xi(self, capsys, monkeypatch):
        from lorentzbath import lindblad

        rhs = lindblad.rhs

        def gains_trace_above_xi_1(m, params):
            out = rhs(m, params)
            if params.xi > 1.0:
                out[2, 2] += m[0, 0]
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

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = fast\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_choice_keys_are_checked(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 1.0\nmethod = wizard\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_missing_file(self):
        assert main(["evolve", "--config", "/no/such/file.cfg"]) == 2


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

    def test_verify_quick_passes(self):
        code, out, _ = run_cli("verify", "--quick")
        assert code == 0
        meta, header, rows = csv_sections(out)
        assert header == "name,budget,measured,status"
        assert all(r.rsplit(",", 1)[1] == "pass" for r in rows)

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
