"""Benchmark of the loadsynth command line: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload gen-30hz --seed 1 --seconds 30 --trace 0

One run builds the workload's fixture from the source tree in its own
process (timed, but kept out of every metric), times `import loadsynth.cli`
in fresh processes, then starts the workload process, which issues one
`loadsynth.cli.main([...])` call at a time for --seconds seconds and times
the host speed probe (hostspeed.py) after each op.  Every op's output is
checked.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with times scaled to the
nominal host speed; with --trace 1 they are the per-layer ones, in wall
time, from a run whose ops, after a warm-up op, alternate between
untraced and traced.
Lines before it carry the environment header and the run's details.

BLAS threads are capped at the number of usable CPUs.  Scratch files live
under .bench_build/bench/ and are removed when the run ends, except the
spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed, Workload  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 3  # import timings per run: the workload process plus two set-up processes

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "unit/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {f"{group}.s": "s" for group in tracer.TIMED_GROUPS}
    for counter in tracer.COUNTERS:
        if counter == "neural.layers.flop":
            continue
        units[counter] = "B" if counter.endswith("_bytes") else "count"
    units["neural.layers.gflop"] = "GFLOP"
    units["neural.layers.gflop_per_s"] = "GFLOP/s"
    units["trace.overhead_s"] = "s"
    units["op_fail_ratio"] = "1"
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Children:
    """Runs child processes one at a time and never leaves one behind."""

    def __init__(self, env: dict, deadline: float):
        self.env, self.deadline = env, deadline
        self._proc = None

    def run(self, cmd: list, what: str) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left to run the {what}")
        self._proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=None, text=True
        )
        try:
            out, _ = self._proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {what} did not finish in time")
        finally:
            self.stop()
        if self._returncode != 0:
            raise BenchError(f"the {what} exited {self._returncode}")
        return out

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        self._returncode = proc.returncode


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit_of(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def tail_stat(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the op-time tail.

    The highest percentile with at least ten samples beyond it; with ten
    samples or fewer no percentile has that many, and the maximum is
    reported with zero beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def op_scale(raw: dict) -> float:
    """Host speed scale of the run: from every probe made after an op.

    The set-up processes run just before the ops and are too short to
    probe on their own, so their import times take the same scale.
    """
    return hostspeed.scale([p for op in raw["ops"] for p in op["probe_s"]])


def end_to_end(raw: dict, setup: list) -> dict:
    """Metrics in seconds at the nominal host speed (see hostspeed.py)."""
    k = op_scale(raw)
    times = [op["s"] * k for op in raw["ops"]]
    tail, _pct, _beyond = tail_stat(times)
    work = sum(op["work"] for op in raw["ops"] if op["error"] is None)
    values = {
        "setup_s": statistics.median(setup) * k,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "work_per_s": work / sum(times),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(raw: dict, failed: int) -> tuple[dict, list]:
    """Per-layer metrics of the traced ops, and counters that did not repeat."""
    traced = [op for op in raw["ops"] if op["traced"]]
    untraced = [op for op in raw["ops"] if not (op["traced"] or op["warmup"])]
    values = {}
    for group in tracer.TIMED_GROUPS:
        values[f"{group}.s"] = statistics.median(op["selftime"][group] for op in traced)
    unsteady = [c for c in tracer.COUNTERS if len({op["counts"][c] for op in traced}) > 1]
    counts = traced[0]["counts"]
    for counter in tracer.COUNTERS:
        if counter != "neural.layers.flop":
            values[counter] = counts[counter]
    values["neural.layers.gflop"] = counts["neural.layers.flop"] / 1e9
    rates = []
    for op in traced:
        busy = sum(op["selftime"][g] for g in tracer.MATMUL_GROUPS)
        rates.append(op["counts"]["neural.layers.flop"] / 1e9 / busy if busy > 0 else 0.0)
    values["neural.layers.gflop_per_s"] = statistics.median(rates)
    values["trace.overhead_s"] = statistics.median(op["s"] for op in traced) - statistics.median(
        op["s"] for op in untraced
    )
    values["op_fail_ratio"] = failed / len(raw["ops"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    return metrics, unsteady


def content_failures(workload: Workload, raw: dict) -> int:
    """Check the kept first output; a bad one fails every op that matched it."""
    if raw["kept"] is None:
        return 0
    try:
        workload.content_check(Path(raw["kept"]))
    except (CheckFailed, OSError, ValueError) as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        return sum(op["error"] is None and op["digest"] == raw["first_digest"] for op in raw["ops"])
    return 0


def run(args) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "loadsynth" / "cli.py").is_file():
        raise BenchError(f"no loadsynth source tree under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    scratch = root / ".bench_build" / "bench"
    work_dir = scratch / f"{args.workload}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    py = sys.executable
    children = Children(child_env(src), time.monotonic() + RUN_LIMIT_S)
    try:
        started = time.perf_counter()
        children.run(
            [py, str(BENCH_DIR / "fixtures.py"), "--workload", args.workload, "--size", args.size,
             "--seed", str(args.seed), "--out", str(work_dir / "fixture")],
            "fixture builder",
        )
        fixture_s = time.perf_counter() - started
        worker = [py, str(BENCH_DIR / "worker.py"), "--src", str(src)]
        setup = []
        # set-up is an end-to-end metric; traced runs skip the extra processes
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            out = children.run(worker + ["--setup-only"], "set-up process")
            setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        spans = scratch / "traces" / f"{args.workload}.spans.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd = worker + [
            "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--fixture", str(work_dir / "fixture" / "fixture.json"),
            "--work-dir", str(work_dir), "--result", str(work_dir / "raw.json"),
        ]
        if args.trace:
            cmd += ["--trace", "--spans", str(spans)]
        children.run(cmd, "workload process")
        raw = json.loads((work_dir / "raw.json").read_text(encoding="utf-8"))
        setup.append(raw["setup_s"])

        fixture = json.loads((work_dir / "fixture" / "fixture.json").read_text(encoding="utf-8"))
        workload = Workload(args.workload, args.size, args.seed, fixture, work_dir / "out")
        bad_content = content_failures(workload, raw)
    finally:
        children.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = raw["ops"]
    failed = sum(op["error"] is not None for op in ops) + bad_content
    unsteady = []
    if args.trace:
        metrics, unsteady = per_layer(raw, failed)
        for counter in unsteady:
            print(f"bench: counter {counter} differs between identical ops", file=sys.stderr)
    else:
        metrics = end_to_end(raw, setup)
    times = [op["s"] for op in ops]
    _tail, tail_pct, beyond = tail_stat(times)
    env = dict(raw["env"], commit=commit_of(root), src_sha256=source_digest(src))
    env.update(workload=args.workload, seed=args.seed, size=args.size, seconds=args.seconds,
               trace=bool(args.trace))
    details = {
        "ops": len(ops),
        "op_s_wall": times,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_beyond": beyond,
        "op_fail_ratio": failed / len(ops),
        "host_scale": op_scale(raw),
        "probes": sum(len(op["probe_s"]) for op in ops),
        "output_sha256": raw["first_digest"],
        "fixture_s": fixture_s,
        "setup_s_wall": setup,
    }
    if args.trace:
        details.update(
            traced_ops=sum(op["traced"] for op in ops),
            trace_missing=raw["trace_missing"],
            hook_errors=raw["hook_errors"],
            unsteady_counters=unsteady,
            spans_file=str(spans.relative_to(root)),
        )
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"run": details}, sort_keys=True))
    return {
        "correct": failed == 0 and not unsteady,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="loadsynth CLI benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="smoke runs each workload at its smallest input")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
