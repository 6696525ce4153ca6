"""``tools/census.py``: its counting function, run on three manifest entries."""

from __future__ import annotations

import importlib.util
import os
import sys
import time

from pinned_outputs import ROOT

_spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

ENTRIES = [
    ["validate", "demos/theories/fair_coin.json"],
    ["report", "demos/theories/three_slit.json"],
    ["audit", "demos/theories/three_slit.json", "--witnesses", "5"],  # a usage error
]


def test_the_census_counts_three_entries_in_under_two_seconds():
    table = census.functions()
    key_of = {(key[0], name): key for key, (name, _) in table.items()}
    listed = census.manifest_argvs()
    assert all(argv in listed for argv in ENTRIES)
    here, profiler = os.getcwd(), sys.getprofile()
    start = time.perf_counter()
    reached = census.reached(ENTRIES)
    assert time.perf_counter() - start < 2
    assert os.getcwd() == here and sys.getprofile() is profiler
    assert key_of["cli.py", "run"] in reached
    assert key_of["theoryfile.py", "_object"] in reached
    assert key_of["measure.py", "measure_from_decoherence"] not in reached
    # a decorated function is keyed by its first decorator's line, as its code is
    n = key_of["eventalg.py", "SampleSpace.n"]
    assert n in reached and table[n][1] == 2
