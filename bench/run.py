"""Benchmark of the coevents library: three seeded workloads, checked.

    python3 bench/run.py --workload sumrules|scale|cli-verbs --seed N
                         --seconds 20 --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by name
with its unit, and the base of each ratio.  The exit code is 1 when any
operation raised or failed its check, 2 when the checkout is unusable.

Load model: a closed loop, one client in one process, no threads; each
operation starts when the previous one has finished.  Inputs come from the
seed alone; every operation's result is checked against facts the
benchmark derives itself (see gen.py), outside the timed interval.

Slots and passes: a workload is a list of slots (operation classes, such
as "decoherence file at n=7").  A run makes three passes over the slots
(four on cli-verbs), per 20 s of ``--seconds``, each pass on fresh inputs,
so no input repeats.
The work is fixed by the seed and ``--seconds``, so both commits of a
comparison run exactly the same operations (20-50 s on a 2-CPU VM, by
the host's load).

Host speed: the host changes speed by up to 1.8x, from one second to the
next and over minutes, unseen by the process (its CPU time stays equal to
its wall time).  So a fixed reference computation that never calls the
library runs next to every operation, and each operation's wall time is
scaled to the nominal host speed at which the reference takes 2 ms (see
reference.py).  A slot's latency is the median of its scaled passes.  The
unscaled wall-clock figures are printed beside each metric.

--trace 0, every end-to-end metric, measured with tracing off:
  ops_per_s    slots per second of slot latency (the throughput of one
               client at the workload's sizes, at the nominal host speed)
  op_p50_ms    median slot latency
  op_tail_ms   the highest percentile with ten slots beyond it
  peak_rss_mb  ru_maxrss of the fresh process that ran only this workload
  setup_s      median over fresh interpreters of importing coevents and
               coevents.cli, five before each pass (inputs are not part
               of it), from cached bytecode, scaled by fresh interpreters
               importing a fixed set of standard modules (reference.py)
  The share of failed operations is the result's ``failed / attempted``.

--trace 1, every per-layer metric, from three more passes:
  traced pass  one pass; wrappers around each layer's public functions
               record spans (name, start, end, parent, op id), kept in
               memory and written to .bench_out/spans-<workload>-seed<N>.bin.gz.
               Per span: calls and self time; per layer: self time and its
               share of the operation time; exact work counts.  Each op
               also runs untraced, right before or after (alternating); the
               difference in operation time is the tracing overhead.
  memory       one operation of each class under tracemalloc; per layer the
               peak above the start of its outermost spans.
  reach        per sweep op, the largest n in 2..16 that finishes within
               REACH_LIMIT_S in a child capped at REACH_MEMORY bytes.

Workloads, and the layer each should move (see BENCHMARK.json):
  sumrules   104 distinct files per pass, n = 6..8, four stanza kinds: load,
             both validators, null sets, null cover.  The measure validators
             do the work and no coevent code runs.
  scale      amplitude theories: 14 scheme ops at n = 11..12 (construction,
             null cover, classical preclusive set, scheme, its rendering)
             and 12 dual ops at n = 8..9 that also enumerate the duals and
             run tau of singletons and the order report.
  cli-verbs  every CLI verb in process on one file at each n = 3..5 per pass,
             the format alternating by verb; rendering, the boolean
             completion and the all-pairs audit dominate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("sumrules", "scale", "cli-verbs")

REACH_LIMIT_S = 1.0
REACH_MEMORY = 1 << 30
REACH_N = range(2, 17)
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
from layers import LAYERS, NAMES, REACH_OPS  # noqa: E402


class BenchError(Exception):
    pass


def _env() -> dict:
    """Children hash alike and cache bytecode whatever the caller's settings,
    so each timed import reads bytecode, as that of an installed package does."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker(args: list[str], timeout: float = PASS_TIMEOUT_S, preexec=None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
        cwd=ROOT,
        preexec_fn=preexec,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def compile_once() -> None:
    """Cache the bytecode of the library and the benchmark, so that no pass
    compiles: compiling inside the first run of a checkout would add to its
    peak RSS and its first imports."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                   check=True, capture_output=True, env=_env(), cwd=ROOT)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, rank): the highest percentile with ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    rank = max(1, n - 10)
    return lat[rank - 1], 100 * rank / n, rank


def pass_args(a, mode: str, workdir: Path, *extra: str) -> list[str]:
    return [
        "pass", "--workload", a.workload, "--seed", str(a.seed), "--seconds",
        str(a.seconds), "--mode", mode, "--workdir", str(workdir), *extra,
    ]


def metric(out: dict, lines: list[str], name: str, value, unit: str, note: str = "") -> None:
    out[name] = {"value": value, "unit": unit}
    lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def slot_latencies(by_pass: list[list]) -> list[float]:
    """Per slot, the median of its passes; a slot that failed in any pass is left out."""
    return [statistics.median(col) for col in zip(*by_pass) if None not in col]


def end_to_end(a, workdir: Path) -> tuple[dict, list[str], dict]:
    res = worker(pass_args(a, "timed", workdir))
    lat, wall = slot_latencies(res["scaled_by_pass"]), slot_latencies(res["raw_by_pass"])
    if not lat:
        raise BenchError("no operation completed")
    m, lines = {}, []
    passes, op_s = res["passes"], sum(lat)
    metric(m, lines, "ops_per_s", len(lat) / op_s, "1/s",
           f"{len(lat)} slots in {op_s:.3f} s, each the median of {passes} passes; "
           f"wall clock {len(wall) / sum(wall):.4g}/s")
    metric(m, lines, "op_p50_ms", 1000 * statistics.median(lat), "ms",
           f"{len(lat)} slots; wall clock {1000 * statistics.median(wall):.4g} ms")
    value, pct, rank = tail(lat)
    metric(m, lines, "op_tail_ms", 1000 * value, "ms",
           f"p{pct:.2f}: slot {rank} of {len(lat)}, {len(lat) - rank} beyond; "
           f"wall clock {1000 * tail(wall)[0]:.4g} ms")
    metric(m, lines, "peak_rss_mb", res["maxrss_kb"] / 1024, "MB", "ru_maxrss of the pass process")
    setup = res["setup_s"]
    metric(m, lines, "setup_s", statistics.median(setup), "s",
           f"median of {len(setup)} fresh imports, {len(setup) // passes} before each pass; "
           f"wall clock {statistics.median(res['setup_raw_s']):.4g} s")
    lines.append(f"failed_ops = {res['failed']}/{res['attempted']} "
                 f"= {res['failed'] / res['attempted']:.4g} share")
    return m, lines, res


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (REACH_MEMORY, REACH_MEMORY))


def reach(seed: int, workdir: Path) -> dict[str, int]:
    """Largest n per sweep op within the time and memory limits; 1 if n=2 fails."""
    out = {}
    for op in REACH_OPS:
        best = 1
        for n in REACH_N:
            args = ["reach", "--op", op, "--n", str(n), "--seed", str(seed),
                    "--workdir", str(workdir), "--limit", str(REACH_LIMIT_S)]
            try:
                res = worker(args, timeout=REACH_LIMIT_S + 30, preexec=_limit_memory)
            except (BenchError, subprocess.TimeoutExpired):
                break
            if res["seconds"] > REACH_LIMIT_S:
                break
            best = n
        out[op] = best
    return out


def per_layer(a, workdir: Path) -> tuple[dict, list[str], list[dict]]:
    spans = OUT / f"spans-{a.workload}-seed{a.seed}.bin.gz"
    traced = worker(pass_args(a, "traced", workdir, "--spans", str(spans)))
    memory = worker(pass_args(a, "memory", workdir))
    reached = reach(a.seed, workdir)

    tr, counts = traced["trace"], traced["counts"]
    op_s = traced["op_s"]
    m, lines = {}, [f"traced pass: {traced['attempted'] // 2} ops, each also run untraced; "
                    f"{tr['spans']} spans -> {spans.relative_to(ROOT)}"]
    for name in NAMES:
        metric(m, lines, f"{name}.calls", tr["calls"][name], "count")
        metric(m, lines, f"{name}.self_s", tr["self_s"][name], "s")
    layer_self = {
        layer: sum(v for k, v in tr["self_s"].items() if k.startswith(layer + "."))
        for layer in LAYERS
    }
    for layer in LAYERS:
        metric(m, lines, f"{layer}.self_s", layer_self[layer], "s")
        metric(m, lines, f"{layer}.share", 100 * layer_self[layer] / op_s, "%",
               f"of {op_s:.3f} s traced operation time")
        metric(m, lines, f"{layer}.peak_kb", memory["peak_kb"][layer], "KB",
               f"memory pass over {memory['attempted']} ops")
    metric(m, lines, "measure.violations_listed", counts["violations_listed"], "count",
           f"over {counts['validator_calls']} validator calls")
    audits = tr["calls"]["beables.and_or_audit"]
    mult = tr["calls"]["coevent.is_multiplicative"]
    metric(m, lines, "coevent.is_multiplicative.calls_per_member",
           mult / audits if audits else 0.0, "calls/record",
           f"{mult} calls for {audits} audit records")
    renders, distinct = tr["calls"]["coevent.render"], counts["distinct_rendered"]
    metric(m, lines, "coevent.render.repeat_ratio", renders / distinct if distinct else 0.0,
           "renders/coevent", f"{renders} renders of {distinct} distinct coevents")
    metric(m, lines, "cli.output_bytes", counts.get("cli_output_bytes", 0), "B",
           f"over {tr['calls']['cli.run']} cli.run calls")
    plain = traced["untraced_op_s"]
    overhead = op_s - plain
    metric(m, lines, "trace.overhead_s", overhead, "s",
           f"traced {op_s:.3f} s - untraced {plain:.3f} s, same ops run back to back")
    metric(m, lines, "trace.overhead_share", 100 * overhead / plain, "%",
           "of untraced operation time")
    for op, best in reached.items():
        metric(m, lines, f"reach.{op}.max_n", best, "n",
               f"<= {REACH_LIMIT_S:g} s and {REACH_MEMORY >> 20} MiB per case")
    top = max(LAYERS, key=layer_self.get)
    lines.append(f"top layer by self time: {top} ({100 * layer_self[top] / op_s:.1f}%)")
    return m, lines, [traced, memory]


def main() -> int:
    p = argparse.ArgumentParser(description="coevents benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    if not (SRC / "coevents" / "__init__.py").is_file():
        print(f"error: {SRC / 'coevents'} is missing; run from a checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        compile_once()
        if a.trace:
            metrics, lines, passes = per_layer(a, workdir)
        else:
            metrics, lines, res = end_to_end(a, workdir)
            passes = [res]
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    print(f"# {a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace}")
    print("\n".join(lines))
    for r in passes:
        for err in r["errors"]:
            print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
