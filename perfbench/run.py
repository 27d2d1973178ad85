"""Benchmark for the lorentzbath CLI.

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
without being installed.  ``--workload all`` runs every workload in turn.

With ``--trace 0`` each op is a fresh ``python -m lorentzbath`` child
process, run as a closed loop with one client: the next op starts after the
previous one exits.  Passes over the workload's ops repeat until
``--seconds`` have elapsed.  Every output is parsed and checked against an
independent reference (checks.py); a nonzero exit or a failed check counts
the op as failed.  The end-to-end metrics are:

  wall_s       median wall time of one pass (interpreter start, import,
               compute and writing the output file, summed over the ops)
  wall_tail_s  highest percentile of pass wall time with at least ten passes
               beyond it; with ten passes or fewer no percentile qualifies and
               the slowest pass is reported (percentile 100, none beyond)
  setup_s      median time for a fresh interpreter to import lorentzbath.cli
               and call build_parser(), which every invocation pays
  peak_rss_mb  median over passes of the largest max-RSS of any child op
  error_rate   one-sided 95% upper confidence bound (Clopper-Pearson) on the
               share of the workload's distinct ops that fail in any pass.
               Passes repeat the same inputs of a deterministic program, so
               they are not independent trials.  Never 0, so a relative bound
               applies; the raw counts of op runs are the result line's
               attempted and failed.

With ``--trace 1`` the per-layer metrics come from an in-process run of
``cli.main(argv)`` on the same argv with one worker, traced from outside
the program (tracing.py), after one untraced child pass.
The last line of standard output is the JSON result; the full record, with
the environment and the spans, goes to perfbench/.out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Pinned before numpy loads here, and passed to every child.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
os.environ.pop("LORENTZBATH_WORKERS", None)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"
SETUP_SAMPLES = 4          # at the start; one more follows every pass
IMPORT_SAMPLES = 5
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
SETUP_CODE = "import lorentzbath.cli as c; c.build_parser()"
IMPORT_CODE = ("import time; t = time.perf_counter(); import lorentzbath.cli; "
               "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"wall_s": "s", "wall_tail_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "error_rate": "1"}


# ------------------------------------------------------------ child processes


def _child_env(extra=()) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LORENTZBATH_WORKERS"}
    env.update(PINNED)
    env["PYTHONPATH"] = "src"
    env.update(extra)
    return env


class Launcher:
    """Starts children through launcher.py, so their peak RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args, extra_env=(), capture=False):
        """``python <args>`` from the checkout root: (wall s, exit code, max RSS MB, stdout, stderr)."""
        stderr = OUT / "child.stderr"
        request = {"args": [sys.executable, *args], "env": _child_env(extra_env),
                   "cwd": str(ROOT), "stderr": str(stderr), "timeout": OP_TIMEOUT_S,
                   "capture": capture}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        return reply["wall"], reply["rc"], reply["rss_mb"], reply["stdout"], stderr.read_text()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


# ------------------------------------------------------------------- passes


@dataclass
class PassResult:
    walls: dict = field(default_factory=dict)   # op name -> wall s
    rss_mb: dict = field(default_factory=dict)  # op name -> max RSS MB
    texts: dict = field(default_factory=dict)   # op name -> output text, if any
    problems: dict = field(default_factory=dict)  # op name -> list of problems

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def _out_path(op) -> Path:
    return OUT / f"{op.name}.{op.fmt}"


def check_op(op, text, tables: dict) -> list:
    """Problems with one op's output; ``tables`` holds earlier outputs of the pass."""
    try:
        table = checks.parse_output(text, op.fmt)
        problems = checks.CHECKS[op.check](op.argv, table)
    except Exception as exc:  # malformed output is a failed op, not a crash
        return [f"output rejected: {type(exc).__name__}: {exc}"]
    # when the op to compare with failed, that failure is already counted
    other = tables.get(op.same_data_as)
    if other is not None:
        problems += checks.same_data(other[0], table, other[1] == op.fmt)
    if not problems:
        tables[op.name] = (table, op.fmt)
    return problems


def _finish_op(result: PassResult, op, rc: int, err: str, tables: dict):
    path = _out_path(op)
    if rc != 0:
        result.problems[op.name] = [f"exit code {rc}: {err.strip()[-400:]}"]
    elif not path.is_file():
        result.problems[op.name] = ["no output file"]
    else:
        text = path.read_text()
        result.texts[op.name] = text
        result.problems[op.name] = check_op(op, text, tables)


def child_pass(launcher, ops) -> PassResult:
    result, tables = PassResult(), {}
    for op in ops:
        path = _out_path(op)
        path.unlink(missing_ok=True)
        wall, rc, rss, _, err = launcher.run(
            ["-m", "lorentzbath", *op.argv, "--out", str(path.relative_to(ROOT))], op.env)
        result.walls[op.name], result.rss_mb[op.name] = wall, rss
        _finish_op(result, op, rc, err, tables)
    return result


def inprocess_pass(ops, cli, tracer=None) -> PassResult:
    """Each op through ``cli.main(argv)`` in this process, with one worker."""
    result, tables = PassResult(), {}
    if tracer:
        tracer.install()
    try:
        for op in ops:
            path = _out_path(op)
            path.unlink(missing_ok=True)
            if tracer:
                tracer.op = op.name
            err = ""
            t0 = time.perf_counter()
            try:
                rc = cli.main([*op.argv, "--out", str(path)])
            except SystemExit as exc:  # argparse usage errors
                rc, err = exc.code, "usage error"
            result.walls[op.name] = time.perf_counter() - t0
            _finish_op(result, op, rc, err, tables)
    finally:
        if tracer:
            tracer.uninstall()
    return result


def self_test(ops, first: PassResult) -> tuple[int, int]:
    """Feed each valid output, corrupted, back to its checker; count rejections."""
    tables, corrupted, caught = {}, 0, 0
    for op in ops:
        text = first.texts.get(op.name)
        if text is None or first.problems[op.name]:
            continue
        bad = checks.corrupt(text, op.fmt, op.corrupt)
        corrupted += 1
        caught += bool(check_op(op, bad, dict(tables)))
        check_op(op, text, tables)
    return corrupted, caught


# ------------------------------------------------------------------ metrics


def error_rate_upper(failed: int, attempted: int, alpha: float = 0.05) -> float:
    """One-sided Clopper-Pearson upper bound on a failure probability."""
    if failed >= attempted:
        return 1.0

    def cdf(p):
        return sum(math.comb(attempted, k) * p**k * (1 - p) ** (attempted - k)
                   for k in range(failed + 1))

    lo, hi = failed / attempted, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) > alpha else (lo, mid)
    return hi


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, values beyond it) of the highest percentile with
    TAIL_BEYOND values beyond it, or the maximum when there are too few."""
    s, n = sorted(values), len(values)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_times(launcher, samples: int, code: str, capture=False) -> list:
    out = []
    for _ in range(samples):
        wall, rc, _, stdout, err = launcher.run(["-c", code], capture=capture)
        if rc != 0:
            raise RuntimeError(f"cannot import lorentzbath from src/: {err.strip()[-400:]}")
        out.append(float(stdout) if capture else wall)
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment(workload: str, seed: int, ops) -> dict:
    git = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "why": WORKLOADS[workload].why,
        "loads": WORKLOADS[workload].loads,
        "ops": [{"name": op.name, "argv": list(op.argv), "env": dict(op.env)} for op in ops],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git,
        "src_sha256": digest.hexdigest(),
        "pinned_env": {**PINNED, "PYTHONPATH": "src"},
        "loop": "closed, one client",
    }


# -------------------------------------------------------------------- modes


def measure(launcher, workload: str, seed: int, seconds: float) -> dict:
    ops = WORKLOADS[workload].build(random.Random(seed))
    setup = setup_times(launcher, SETUP_SAMPLES, SETUP_CODE)
    t0 = time.perf_counter()
    passes = [child_pass(launcher, ops)]
    # setup samples spread over the run, so a slow spell on the host weighs
    # on setup_s no more than on the passes around it
    while True:
        setup += setup_times(launcher, 1, SETUP_CODE)
        if time.perf_counter() - t0 >= seconds:
            break
        passes.append(child_pass(launcher, ops))
    elapsed = time.perf_counter() - t0
    corrupted, caught = self_test(ops, passes[0])

    walls = [p.wall for p in passes]
    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    # The program is deterministic: a pass repeats the same inputs, so the
    # independent trials behind error_rate are the workload's distinct ops.
    failed_inputs = sum(1 for op in ops if any(p.problems[op.name] for p in passes))
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(p.rss_mb.values()) for p in passes),
        "error_rate": error_rate_upper(failed_inputs, len(ops)),
    }
    samples = {"wall_s": len(walls), "wall_tail_s": len(walls), "setup_s": len(setup),
               "peak_rss_mb": len(passes), "error_rate": len(ops)}
    notes = {
        "wall_tail_s": f"p{tail_pct:.1f} of {len(walls)} passes, {beyond} beyond"
                       + ("" if beyond else " (ten or fewer passes: the slowest pass)"),
        "error_rate": f"95% upper bound over {len(ops)} distinct ops, {failed_inputs} failing; "
                      f"{failed} failed of {attempted} op runs",
    }
    print(f"{workload} seed {seed}: {len(passes)} passes of {len(ops)} ops in {elapsed:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:>12.6g} {END_TO_END_UNITS[name]:<3} "
              f"n={samples[name]:<4} {notes.get(name, 'median')}")
    print(f"  self-test: {caught} of {corrupted} corrupted outputs rejected")
    _print_problems(passes)
    return {
        "correct": failed == 0 and caught == corrupted and corrupted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "record": {
            "environment": environment(workload, seed, ops),
            "samples": samples,
            "notes": notes,
            "setup_s": setup,
            "passes": [{"walls": p.walls, "rss_mb": p.rss_mb, "problems": p.problems}
                       for p in passes],
            "self_test": {"corrupted": corrupted, "caught": caught},
            "predictions": PREDICTIONS,
        },
    }


def traced(launcher, workload: str, seed: int, seconds: float) -> dict:
    ops = WORKLOADS[workload].build(random.Random(seed))
    t0 = time.perf_counter()
    import_s = statistics.median(setup_times(launcher, IMPORT_SAMPLES, IMPORT_CODE, capture=True))
    first = child_pass(launcher, ops)
    corrupted, caught = self_test(ops, first)
    efficiency = 0.0
    if "heatmap-2workers" in first.walls:
        efficiency = first.walls["heatmap-serial"] / (2.0 * first.walls["heatmap-2workers"])

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from lorentzbath import cli

    plain, runs = [], []
    while len(runs) < 2 or time.perf_counter() - t0 < seconds:
        plain.append(inprocess_pass(ops, cli))
        tracer = tracing.Tracer()
        runs.append((tracer, inprocess_pass(ops, cli, tracer)))

    per_pass = []
    for tracer, result in runs:
        tables = [checks.parse_output(t, op.fmt) for op in ops
                  if (t := result.texts.get(op.name)) is not None]
        cells = sum(len(t.rows) * len(t.columns) for t in tables)
        data_bytes = sum(len(t.data_text.encode()) for t in tables)
        per_pass.append(tracer.layer_metrics(cells, data_bytes))
    counts = {k: v for k, v in per_pass[0].items() if isinstance(v, int)}
    repeat = all({k: m[k] for k in counts} == counts for m in per_pass[1:])
    metrics = {k: counts[k] if k in counts else statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    metrics.update({
        "import.s": import_s,
        "sweep.parallel_efficiency": efficiency,
        "trace.overhead_s": statistics.median(r.wall for _, r in runs)
                            - statistics.median(p.wall for p in plain),
        "src.lines": src_lines(),
    })
    every = [first, *plain, *(r for _, r in runs)]
    attempted = len(ops) * len(every)
    failed = sum(p.failed for p in every)
    print(f"{workload} seed {seed}: traced {len(runs)} in-process passes "
          f"(and {len(plain)} untraced); counts repeat exactly: {repeat}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g}")
    print(f"  self-test: {caught} of {corrupted} corrupted outputs rejected")
    _print_problems(every)
    return {
        "correct": failed == 0 and repeat and caught == corrupted and corrupted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in metrics.items()},
        "record": {
            "environment": environment(workload, seed, ops),
            "deterministic_counts": counts,
            "counts_repeat": repeat,
            "bindings": runs[0][0].bindings,
            "spans": [[s.as_dict() for s in tracer.spans] for tracer, _ in runs],
            "self_test": {"corrupted": corrupted, "caught": caught},
        },
    }


def _print_problems(passes):
    for i, p in enumerate(passes):
        for op, problems in p.problems.items():
            for problem in problems:
                print(f"  FAILED pass {i} {op}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lorentzbath" / "cli.py").is_file():
        print(f"error: no lorentzbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    mode = traced if args.trace else measure
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    launcher = Launcher()
    try:
        # compile the package's bytecode once, untimed, as any installed copy has
        setup_times(launcher, 1, SETUP_CODE)
        for name in names:
            result = mode(launcher, name, args.seed, args.seconds)
            record = result.pop("record")
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({**result, **record}, indent=1) + "\n")
            results[name] = result
    finally:
        launcher.close()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
