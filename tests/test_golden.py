"""CLI output on the demo theories, byte for byte against committed goldens.

The files under ``tests/golden/`` are ``coevents <verb> <theory> --format
<fmt>`` outputs; ``.json`` holds the machine format and ``.txt`` the text
format.  A golden named ``<verb>_<theory>`` runs the verb with its default
flags.  One named ``<verb>-<case>_<theory>`` runs it with the flags that
``FLAGS`` lists for ``<verb>-<case>``.  Larger outputs are pinned by
exit code, byte count and sha256 (``PINNED``), on the theory files under
``tests/golden/theories/``.  ``report`` is kept only for the two
small theories; on ``four_slit_decoherence`` its machine form is about
126 KB.  A change that means to alter the output regenerates a golden
with, for example,

    PYTHONPATH=src python -m coevents validate demos/theories/three_slit.json \\
        --format machine > tests/golden/validate_three_slit.json
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from coevents.cli import run

ROOT = Path(__file__).resolve().parent
THEORIES = ROOT.parent / "demos" / "theories"
GOLDENS = sorted(path for path in (ROOT / "golden").iterdir() if path.is_file())
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


#: ``coevents <verb> amplitudes_12.json <flags> --format <fmt>``: exit code,
#: stdout bytes and sha256, for the n = 12 amplitude theory (1, 1, -1, ...
#: on a..l), where a dual space holds 4,095 members.
PINNED = {
    ("coevents", "machine"): (
        0, 876131, "3a923f275fd03e002bcac45b9c3f3d0beec949e7e4f908c17be9b5f52d00a2e6"
    ),
    ("coevents --set scheme", "machine"): (
        0, 126187, "5b32fdc27a54d07ea562eb4cd758f433bb2feca6f4169024df930786511723a3"
    ),
    ("tau --event a", "machine"): (
        0, 115991, "f03fca9f19c679881417fca50d75ef9ba43af155ada3cd14d94ebf335c85ceda"
    ),
    ("orders", "machine"): (
        0, 186125, "c04ddde6d23f16b606c0f2b95c130b090bf37840a950ef4ba6d7ebbab3895ef0"
    ),
    ("complete --set classical --mode boolean", "machine"): (
        0, 157653, "d183448b4f6f3b5cc31d42ebc6cb1513f21183f88000b10d751ee8a3fbea75fd"
    ),
    ("topos --cap 12 --context a,b --event a", "machine"): (
        0, 222789, "43dd4a127d86f09d1ecc5728022c357b7d054d2a39207eab4fae51a9e4edae11"
    ),
    ("coevents", "text"): (
        0, 600330, "3d30ab0343daba6d1bb3f7ffcd1b0966f32d585a2200f673abd98e09585f74a5"
    ),
    ("coevents --set scheme", "text"): (
        0, 85799, "925ba5c946f499c513fe17e964a458747dc551b3bd3d1c3cbd5b60f3a6ffef39"
    ),
    ("tau --event a", "text"): (
        0, 78779, "6949e1f6980823cce771c007eaff2f626b679ff231ccd470581808b6b8cc6f07"
    ),
    ("orders", "text"): (
        0, 122881, "c1ea2c1c785141dd02d97343e3f51fba22db486e688f1a088dcfb0badf5ad200"
    ),
    ("complete --set classical --mode boolean", "text"): (
        0, 115422, "3ea4ea5b0a62b0a86fe28a53b38626752986f7cb899dc7a61eb32270d296cd57"
    ),
    ("topos --cap 12 --context a,b --event a", "text"): (
        0, 164998, "45b5e925f591bc4a25407fbf22343c66e7466835eaaa80cc490b6af5f4725c59"
    ),
}


@pytest.mark.parametrize("case", PINNED, ids=lambda case: f"{case[1]}:{case[0]}")
def test_cli_output_at_n12_matches_its_pinned_hash(capsys, case):
    command, fmt = case
    verb, *flags = command.split()
    theory = ROOT / "golden" / "theories" / "amplitudes_12.json"
    rc = run([verb, str(theory), "--format", fmt, *flags])
    out = capsys.readouterr().out.encode("utf-8")
    assert (rc, len(out), hashlib.sha256(out).hexdigest()) == PINNED[case]
