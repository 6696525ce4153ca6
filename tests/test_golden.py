"""CLI output on the demo theories, byte for byte against committed goldens.

The files under ``tests/golden/`` are ``coevents <verb> <theory> --format
<fmt>`` outputs; ``.json`` holds the machine format and ``.txt`` the text
format.  A golden named ``<verb>_<theory>`` runs the verb with its default
flags.  One named ``<verb>-<case>_<theory>`` runs it with the flags that
``FLAGS`` lists for ``<verb>-<case>``.  ``report`` is kept only for the two
small theories; on ``four_slit_decoherence`` its machine form is about
126 KB.  A change that means to alter the output regenerates a golden
with, for example,

    PYTHONPATH=src python -m coevents validate demos/theories/three_slit.json \\
        --format machine > tests/golden/validate_three_slit.json
"""

from __future__ import annotations

from pathlib import Path

import pytest

from coevents.cli import run

ROOT = Path(__file__).resolve().parent
THEORIES = ROOT.parent / "demos" / "theories"
GOLDENS = sorted((ROOT / "golden").iterdir())
FORMATS = {".json": "machine", ".txt": "text"}

FLAGS = {
    "tau-event": ["--event", "1,2"],
    "complete-boolean": ["--mode", "boolean"],
    "audit-single": ["--context", "1,2,3", "--event", "1,2", "--event-b", "3"],
    "topos-single": ["--context", "1,2", "--event", "1,2,3"],
    "topos-scheme": ["--set", "scheme"],
    "topos-cap15": ["--cap", "15"],
    "orders-all": ["--set", "all"],
    "orders-scheme": ["--set", "scheme"],
    "orders-classical": ["--set", "classical"],
    "coevents-scheme": ["--set", "scheme"],
    "coevents-all": ["--set", "all"],
    "coevents-classical": ["--set", "classical"],
    "audit-empty": ["--include-empty-dual"],
    "report-witnesses": ["--witnesses", "5"],
}


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.name)
def test_cli_output_matches_golden(capsys, golden):
    case, theory = golden.stem.split("_", 1)
    verb = case.split("-", 1)[0]
    flags = FLAGS[case] if "-" in case else []
    rc = run(
        [verb, str(THEORIES / f"{theory}.json"), "--format", FORMATS[golden.suffix], *flags]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode("utf-8") == golden.read_bytes()
