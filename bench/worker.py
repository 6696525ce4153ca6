"""The passes of one benchmark run, or one reach case, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.

    worker.py pass  --workload W --seed S --seconds T --mode timed|traced|memory
                    --workdir DIR [--spans FILE]
    worker.py reach --op OP --n N --seed S --workdir DIR --limit SECONDS
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference

SRC = Path(__file__).resolve().parent.parent / "src"

# setup_s: fresh interpreters import the library before each timed pass, so
# the samples are spread over the run as the passes are; each is scaled by
# the reference interpreters right before and after it (see reference.py).
SETUP_PER_PASS = 5
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import coevents, coevents.cli
t1 = time.perf_counter()
if not coevents.__file__.startswith(sys.argv[1]):
    sys.exit("coevents imported from outside the checkout")
print(t1 - t0)
"""
REFERENCE_CODE = f"""
import time
t0 = time.perf_counter()
import {reference.IMPORTS}
print(time.perf_counter() - t0)
"""


def import_library():
    """Import ``coevents`` from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import coevents
    except ImportError as exc:
        sys.exit(f"cannot import coevents from {SRC}: {exc}")
    if not Path(coevents.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"coevents was imported from {coevents.__file__}, not from {SRC}")


def _child_seconds(*args: str) -> float:
    proc = subprocess.run([sys.executable, "-c", *args], check=True, capture_output=True, text=True)
    return float(proc.stdout)


def setup_samples(count: int) -> tuple[list[float], list[float]]:
    """Seconds to import coevents and coevents.cli, each in a fresh
    interpreter, as measured and as scaled by the fresh interpreters that
    import the reference modules right before and after it."""
    raw, refs = [], [_child_seconds(REFERENCE_CODE)]
    for _ in range(count):
        raw.append(_child_seconds(SETUP_CODE, str(SRC)))
        refs.append(_child_seconds(REFERENCE_CODE))
    nominal = reference.IMPORTS_NOMINAL_S
    return raw, [s * 2 * nominal / (a + b) for s, a, b in zip(raw, refs, refs[1:])]


def _timed(run):
    t0 = perf_counter()
    result = run()
    return result, t0, perf_counter() - t0


def run_pass(args) -> dict:
    """Run the passes of one mode.

    Timed: every pass runs every slot, with reference samples right before
    and right after each op; per pass and slot the result holds the wall
    time and the time scaled to the nominal host speed (None if it failed).
    Traced: only the first pass runs, and each of its ops runs twice,
    traced and not.  The two runs are adjacent and which goes first
    alternates, so a drift in host speed does not bias the overhead.
    Memory: one op per group, under tracemalloc.
    """
    import workloads

    passes = workloads.build(args.workload, args.seed, args.seconds, Path(args.workdir))
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.SpanTracer()
        passes = passes[:1]
    elif args.mode == "memory":
        import tracemalloc

        import tracing

        passes = [workloads.memory_ops(passes[0])]
        mem = tracing.MemoryTracer()
        tracing.install(mem.make_wrapper)
        tracemalloc.start()
    timed = args.mode == "timed"
    clock = reference.HostClock() if timed else None

    slots = len(passes[0])
    errors, counts = [], {}
    untraced_s = traced_s = 0.0
    attempted = 0
    setup_raw, setup, timings = [], [], []
    for ops in passes:
        if timed:
            raw, scaled = setup_samples(SETUP_PER_PASS)
            setup_raw += raw
            setup += scaled
        timings.append([None] * slots)
        for i, op in enumerate(ops):
            run, check = op.prepare()
            order = (False,) if tracer is None else ((True, False) if i % 2 == 0 else (False, True))
            for traced in order:
                attempted += 1
                uninstall = None
                if traced:
                    tracer.op = i
                    uninstall = tracing.install(tracer.make_wrapper)
                if timed:
                    last = timings[-2][i] if len(timings) > 1 else None
                    clock.sample(around=last[1] if last else 0.0)
                try:
                    result, start, s = _timed(run)
                    if timed:
                        clock.sample(around=s)
                    extra = check(result) or {}
                except Exception:
                    errors.append(f"{op.label}: {traceback.format_exc(limit=-3)}")
                    continue
                finally:
                    if uninstall is not None:
                        uninstall()
                    result = None
                if tracer is not None and not traced:
                    untraced_s += s
                    continue
                traced_s += s
                for k, v in extra.items():
                    counts[k] = counts.get(k, 0) + v
                timings[-1][i] = (start, s)
    if timed:
        clock.sample()

    out = {
        "mode": args.mode,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "labels": [op.label for op in passes[0]],
        "raw_by_pass": [[t and t[1] for t in ts] for ts in timings],
        "op_s": traced_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": counts,
    }
    if timed:
        out["scaled_by_pass"] = [[t and clock.scale(*t) for t in ts] for ts in timings]
        out["setup_raw_s"] = setup_raw
        out["setup_s"] = setup
    if tracer is not None:
        out["untraced_op_s"] = untraced_s
        out["trace"] = tracer.summary()
        out["counts"]["violations_listed"] = tracer.counts["violations_listed"]
        out["counts"]["validator_calls"] = tracer.counts["validator_calls"]
        out["counts"]["distinct_rendered"] = len(tracer.counts["distinct_rendered"])
        if args.spans:
            tracer.write(Path(args.spans))
    if args.mode == "memory":
        out["peak_kb"] = mem.peak_kb
    return out


def _expired(signum, frame):
    raise TimeoutError


def run_reach(args) -> dict:
    """Time one sweep case; exit 3 as soon as it runs past ``--limit`` seconds."""
    import workloads

    call = workloads.reach_case(args.op, args.n, args.seed, Path(args.workdir))
    signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, args.limit)
    t0 = perf_counter()
    try:
        call()
    except TimeoutError:
        sys.exit(3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"seconds": perf_counter() - t0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--mode", choices=("timed", "traced", "memory"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    r = sub.add_parser("reach")
    r.add_argument("--op", required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--workdir", required=True)
    r.add_argument("--limit", type=float, required=True)
    args = parser.parse_args()
    import_library()
    result = run_pass(args) if args.what == "pass" else run_reach(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
