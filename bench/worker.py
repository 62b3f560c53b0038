"""The workload process: one client issuing one CLI call at a time.

It first times `import loadsynth.cli` (the set-up every CLI invocation
pays), then runs the workload's op in a closed loop for the given number
of seconds, timing the host speed probe (hostspeed.py) after each op, and
writes the raw per-op record as JSON.  Fixtures are built elsewhere, so
its peak RSS covers only the import, the ops and the probes.

With --trace, a warm-up op is followed by ops that alternate between
untraced and traced, so one run gives both the per-layer figures and the
tracing overhead; the spans of every traced op are written to --spans when
the run ends.

With --setup-only it times the import, prints it and exits.
"""

import importlib
import os
import sys
import time

# nothing that loadsynth.cli imports itself may be imported before it is timed


def _parse_args(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description="benchmark workload process")
    parser.add_argument("--src", required=True, help="the source tree loadsynth must come from")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fixture", help="fixture.json of the fixture builder")
    parser.add_argument("--work-dir")
    parser.add_argument("--spans", help="where to write the spans of a traced run")
    parser.add_argument("--result", help="where to write the raw JSON record")
    return parser.parse_args(argv)


def _import_cli():
    start = time.perf_counter()
    cli = importlib.import_module("loadsynth.cli")
    return cli, time.perf_counter() - start


def _run_op(cli, argv):
    """(seconds, exit code or error text, captured stderr) of one CLI call."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}"
    return elapsed, error, err.getvalue()


def _clear(path) -> None:
    import shutil

    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _keep(path, kept) -> None:
    """Move an op's output (and a bundle's training log) aside."""
    os.replace(path, kept)
    log = f"{path}.train_log.json"
    if os.path.exists(log):
        os.replace(log, f"{kept}.train_log.json")


def measure(cli, args, fixture: dict) -> dict:
    import resource
    import statistics

    import hostspeed
    import tracer
    from workloads import CheckFailed, Workload

    work_dir = os.path.abspath(args.work_dir)
    out = os.path.join(work_dir, "out")
    kept = os.path.join(work_dir, "first")
    workload = Workload(args.workload, args.size, args.seed, fixture, out)
    argv = workload.argv()

    rec = instr = None
    if args.trace:
        rec = tracer.SpanRecorder()
        instr = tracer.Instrumentation(rec)

    ops = []
    first_digest = None
    cycles = []  # seconds per loop turn: op, checks and probes
    start = time.perf_counter()
    while True:
        # a traced run opens with a warm-up op, then alternates untraced and
        # traced ops, so the overhead compares warm ops with warm ops
        warmup = args.trace and not ops
        traced = args.trace and len(ops) > 0 and len(ops) % 2 == 0
        kinds = {op["traced"] for op in ops if not op["warmup"]}
        need_both = args.trace and len(kinds) < 2
        # start an op only while half a typical turn is left, so a run ends
        # near --seconds on average rather than half an op after it
        began = time.perf_counter()
        left = args.seconds - (began - start)
        if (left <= 0 or (cycles and left < statistics.median(cycles) / 2)) and not need_both:
            break
        _clear(out)
        if traced:
            rec.begin_op(len(ops))
            instr.install()
            frame = rec.open(tracer.OP_SPAN)
            try:
                elapsed, error, stderr_text = _run_op(cli, argv)
            finally:
                rec.close(frame)
                instr.uninstall()
        else:
            elapsed, error, stderr_text = _run_op(cli, argv)
        op = {"s": elapsed, "traced": traced, "warmup": warmup, "error": error, "digest": None, "work": 0.0,
              "probe_s": hostspeed.probes_after(elapsed)}
        if error is None:
            try:
                op["digest"], op["work"] = workload.quick_check(stderr_text)
                if first_digest is None:
                    first_digest = op["digest"]
                    _keep(out, kept)
                elif op["digest"] != first_digest:
                    raise CheckFailed("a repeated request gave different output bytes")
            except (CheckFailed, OSError, KeyError, ValueError) as exc:
                op["error"] = f"check failed: {exc}"
        if op["error"] is not None:
            print(f"bench: op {len(ops)} failed: {op['error']}", file=sys.stderr)
        if traced:
            op["selftime"] = dict(rec.selftime)
            op["counts"] = dict(rec.counts)
        ops.append(op)
        cycles.append(time.perf_counter() - began)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ops": ops,
        "peak_rss_mb": peak_kb / 1024.0,
        "kept": kept if first_digest is not None else None,
        "first_digest": first_digest,
    }
    if rec is not None:
        result["trace_missing"] = instr.missing
        result["hook_errors"] = rec.hook_errors
        if args.spans:
            rec.write(args.spans)
    return result


def main(argv=None) -> int:
    cli, setup_s = _import_cli()
    import json

    args = _parse_args(argv)
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(args.src) + os.sep):
        print(f"bench: imported loadsynth from {origin}, not from {args.src}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(args.fixture, encoding="utf-8") as fh:
        result = measure(cli, args, json.load(fh))
    result["setup_s"] = setup_s
    from envinfo import environment

    result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
