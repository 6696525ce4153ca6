"""Every CLI verb at n = 2..16, each run in a fresh child, and the ratios
between two such sweeps.

With the repository checked out, from any directory::

    python tools/sweep.py --out sweep.json
    python tools/sweep.py --n 2-4
    python tools/sweep.py --compare BENCH_A.json BENCH_B.json

Each verb case runs with its default flags as ``python -m coevents`` on the
theory of amplitudes 1, 1, -1, 1, 1, -1, ... over the labels a, b, ...
(one file per n); where ``tests/golden/theories/amplitudes_<n>.json`` holds
those data, that committed file is the one run, so the run's argv is the
manifest's and its output is checked against the pinned hash.  A start-up
case (``python -c "import coevents, coevents.cli"``) runs at each n too,
:data:`STARTUP_RUNS` times, and its row holds the median wall time and
peak RSS of those runs, since one run cannot resolve a change of a few
milliseconds.
Children import the package from this checkout's ``src``, whose bytecode
is compiled once before the first child and cached whatever the caller's
``PYTHONDONTWRITEBYTECODE``, so that no timed child compiles the package.

Each run has a time budget of :data:`BUDGET_S` and an address-space limit
of :data:`MEMORY_MB` (``RLIMIT_AS``, set on the child only).  A run over its
budget is killed and recorded as ``timeout``; one that fails for memory as
``memory``; the sweep goes on.  Per run it records the wall time around
the child, its peak RSS (``ru_maxrss`` from ``os.wait4``), stdout's byte
count, the first 16 hex digits of its sha256 and the exit code.  Standard
library only; it imports nothing from ``bench/`` or the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LABELS = "abcdefghijklmnop"
STARTUP = "startup"
BUDGET_S = 60.0
MEMORY_MB = 1024
STARTUP_RUNS = 5

#: The verb cases with default flags, as the argv after the theory file.
CASES = {
    "validate": ["validate"],
    "coevents": ["coevents"],
    "coevents-scheme": ["coevents", "--set", "scheme"],
    "tau": ["tau", "--event", "a"],
    "orders": ["orders"],
    "complete": ["complete"],
    "complete-classical-boolean": ["complete", "--set", "classical", "--mode", "boolean"],
    "topos": ["topos"],
    "topos-query": ["topos", "--context", "a,b", "--event", "a"],
    "audit-machine": ["audit", "--format", "machine"],
    "audit-scheme": ["audit", "--set", "scheme"],
    "report-machine": ["report", "--format", "machine"],
}


def theory_data(n: int) -> dict:
    """Amplitudes 1, 1, -1, 1, 1, -1, ... on the first n labels."""
    amplitudes = [-1 if i % 3 == 2 else 1 for i in range(n)]
    return {"sample_space": list(LABELS[:n]), "measure": {"amplitudes": amplitudes}}


def theory_path(n: int, scratch: Path) -> str:
    """The committed golden file of :func:`theory_data` at n, relative to
    the repository root, or else a file written under ``scratch``."""
    golden = GOLDEN / "theories" / f"amplitudes_{n}.json"
    if golden.exists() and json.loads(golden.read_text(encoding="utf-8")) == theory_data(n):
        return golden.relative_to(ROOT).as_posix()
    path = scratch / f"amplitudes_{n}.json"
    path.write_text(json.dumps(theory_data(n)), encoding="utf-8")
    return str(path)


def pinned() -> dict[tuple[str, ...], str]:
    """The manifest's sha256 of each pinned argv."""
    entries = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    return {tuple(entry["argv"]): entry["sha256"] for entry in entries if "sha256" in entry}


def child_env() -> dict:
    """The caller's environment with this checkout's ``src`` first on the
    path and without ``PYTHONDONTWRITEBYTECODE``, so children read cached
    bytecode, as an installed package's imports do."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_once() -> None:
    """Cache the package's bytecode, so that no timed child compiles it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, capture_output=True, env=child_env(), cwd=ROOT)


def run_child(argv: list[str], budget: float, memory_mb: int) -> dict:
    """One child run from the repository root, its stdout hashed as it is
    read; killed once it has run for ``budget`` seconds."""
    limit = memory_mb << 20
    digest, size = hashlib.sha256(), 0
    with tempfile.TemporaryFile() as stderr:
        start = perf_counter()
        child = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=stderr,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            child.kill()

        timer = threading.Timer(budget, kill)
        timer.start()
        while chunk := child.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
        _, status, usage = os.wait4(child.pid, 0)
        wall = perf_counter() - start
        timer.cancel()
        child.returncode = code = os.waitstatus_to_exitcode(status)
        child.stdout.close()
        stderr.seek(0)
        errors = stderr.read()
    if killed.is_set() and code < 0:
        outcome = "timeout"
    elif b"MemoryError" in errors or b"Cannot allocate memory" in errors:
        outcome = "memory"
    else:
        outcome = {0: "ok", 3: "refused"}.get(code, "error")
    return {
        "wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_bytes": size, "sha256": digest.hexdigest()[:16], "exit": code,
        "status": outcome,
    }


def run_median(argv: list[str], budget: float, memory_mb: int) -> dict:
    """:data:`STARTUP_RUNS` runs of one child: the first run that is not
    ``ok`` (else the first), with the median wall time and peak RSS."""
    runs = [run_child(argv, budget, memory_mb) for _ in range(STARTUP_RUNS)]
    first = next((run for run in runs if run["status"] != "ok"), runs[0])
    return {
        **first,
        "wall_s": round(statistics.median(run["wall_s"] for run in runs), 4),
        "peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in runs), 1),
    }


def sweep(ns: list[int], cases: list[str], budget: float, memory_mb: int) -> dict:
    """Every case at every n, n outermost, after :func:`compile_once`; one
    progress line per run on stderr."""
    compile_once()
    hashes, runs = pinned(), []
    with tempfile.TemporaryDirectory() as scratch:
        for n in ns:
            theory = theory_path(n, Path(scratch))
            for case in cases:
                if case == STARTUP:
                    argv = [sys.executable, "-c", "import coevents, coevents.cli"]
                    measure = run_median
                else:
                    verb, *flags = CASES[case]
                    argv = [sys.executable, "-m", "coevents", verb, theory, *flags]
                    measure = run_child
                row = {"case": case, "n": n, **measure(argv, budget, memory_mb)}
                pin = hashes.get(tuple(argv[3:]))
                if pin is not None:
                    row["pinned"] = pin.startswith(row["sha256"])
                runs.append(row)
                print(
                    f"{case:<28} n={n:<3}{row['status']:<8} {row['wall_s']:>8.3f} s "
                    f"{row['peak_rss_mb']:>7.1f} MB {row['stdout_bytes']:>11} B",
                    file=sys.stderr,
                )
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "budget_s": budget,
        "memory_limit_mb": memory_mb,
        "runs": runs,
    }


def compare(before: dict, after: dict) -> list[str]:
    """Per (case, n) the wall-time and peak-RSS ratios after/before and
    whether stdout is the same; then per case the median wall ratio."""
    old = {(run["case"], run["n"]): run for run in before["runs"]}
    lines = [f"{'case':<28} {'n':>3} {'wall':>17} {'ratio':>6} {'rss ratio':>9}  output"]
    ratios: dict[str, list[float]] = {}
    for run in after["runs"]:
        prior = old.get((run["case"], run["n"]))
        if prior is None:
            continue
        wall = run["wall_s"] / prior["wall_s"] if prior["wall_s"] else float("nan")
        rss = run["peak_rss_mb"] / prior["peak_rss_mb"] if prior["peak_rss_mb"] else float("nan")
        same = (run["sha256"], run["exit"]) == (prior["sha256"], prior["exit"])
        ratios.setdefault(run["case"], []).append(wall)
        lines.append(
            f"{run['case']:<28} {run['n']:>3} {prior['wall_s']:>7.3f} -> {run['wall_s']:>7.3f} "
            f"{wall:>6.2f} {rss:>9.2f}  {'same' if same else 'DIFFERS'} ({run['status']})"
        )
    lines.append("")
    lines += [
        f"{case:<28} median wall ratio {statistics.median(values):.3f} over {len(values)} n"
        for case, values in ratios.items()
    ]
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", default="2-16", help="a range of history counts, as 2-16")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print B/A ratios")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        print("\n".join(compare(before, after)))
        return
    low, _, high = args.n.partition("-")
    ns = range(int(low), int(high or low) + 1) if (low + high).isdecimal() else range(0)
    if not ns or ns[0] < 1 or ns[-1] > len(LABELS):
        parser.error(f"bad range {args.n}")
    result = sweep(list(ns), [*CASES, STARTUP], BUDGET_S, MEMORY_MB)
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
