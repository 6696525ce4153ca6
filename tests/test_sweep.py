"""``tools/sweep.py``: every case at n = 2..4 in fresh children, the
budget and memory limits, and the comparison of two sweeps."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys

from pinned_outputs import ROOT

from coevents.cli import run

_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_the_sweep_runs_every_case_at_small_n_and_compares_with_itself(tmp_path):
    cases = [*sweep.CASES, sweep.STARTUP]
    result = sweep.sweep([2, 3, 4], cases, budget=60, memory_mb=1024)
    runs = result["runs"]
    assert [(row["case"], row["n"]) for row in runs] == [(c, n) for n in (2, 3, 4) for c in cases]
    assert all(row["status"] == "ok" and row["exit"] == 0 for row in runs)
    assert all(row["peak_rss_mb"] > 0 and len(row["sha256"]) == 16 for row in runs)
    assert all((row["stdout_bytes"] > 0) == (row["case"] != sweep.STARTUP) for row in runs)

    # a child's output is the in-process run's, on the theory the sweep writes
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(sweep.theory_data(3)), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["orders", str(path)]) == 0
    row = next(row for row in runs if (row["case"], row["n"]) == ("orders", 3))
    data = out.getvalue().encode()
    assert (row["stdout_bytes"], row["sha256"]) == (len(data), hashlib.sha256(data).hexdigest()[:16])

    lines = sweep.compare(result, result)
    assert len(lines) == 1 + len(runs) + 1 + len(cases)
    assert all(" 1.00 " in line and "same (ok)" in line for line in lines[1:1 + len(runs)])
    assert all(line.endswith("median wall ratio 1.000 over 3 n") for line in lines[-len(cases):])


def test_a_golden_theory_is_run_from_its_committed_file(tmp_path):
    assert sweep.theory_path(9, tmp_path) == "tests/golden/theories/amplitudes_9.json"
    assert sweep.theory_path(5, tmp_path) == str(tmp_path / "amplitudes_5.json")  # other data
    pinned = sweep.pinned()
    assert ("report", "tests/golden/theories/amplitudes_9.json", "--format", "machine") in pinned


def test_a_run_over_its_budget_or_its_memory_is_recorded_and_stopped():
    slow = sweep.run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.3, 1024)
    assert slow["status"] == "timeout" and slow["exit"] < 0 and slow["wall_s"] < 10
    big = sweep.run_child([sys.executable, "-c", "bytearray(400 << 20)"], 30, 200)
    assert big["status"] == "memory" and big["exit"] == 1
