"""Run every entry of ``tests/golden/manifest.json`` through ``python -m coevents``.

With the package importable, from any directory::

    python tests/pinned_outputs.py

Each entry runs in a fresh child, from the repository root, in this
process's environment, killed after the entry's ``timeout`` if it has one.
Each entry whose run differs is printed as the run produced it, then its
stderr; the exit code is 1 if any differed.  Standard library only; it runs
on every Python the package supports.  ``tests/test_golden.py`` runs the
same entries in process.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def entries() -> list[dict]:
    """The manifest's entries, in file order."""
    return json.loads((ROOT / "tests" / "golden" / "manifest.json").read_text(encoding="utf-8"))


def mismatch(entry: dict, rc: int, out: bytes, err: str) -> str:
    """'' when a run that exited ``rc`` with stdout ``out`` matches the entry;
    else the entry as that run produced it, in the manifest's one-line form,
    then, indented, a note if stdout differs from the entry's golden file and
    the run's stderr."""
    got = dict(entry, exit=rc)
    if "golden" not in entry:
        got.update(bytes=len(out), sha256=hashlib.sha256(out).hexdigest())
    differs = "golden" in entry and out != (ROOT / entry["golden"]).read_bytes()
    if got == entry and not differs:
        return ""
    notes = [f"stdout differs from {entry['golden']}"] if differs else []
    return "\n  ".join([json.dumps(got), *notes, *err.splitlines()])


def main() -> int:
    listed, failed = entries(), 0
    for entry in listed:
        command = [sys.executable, "-m", "coevents", *entry["argv"]]
        try:
            child = subprocess.run(
                command, cwd=ROOT, capture_output=True, timeout=entry.get("timeout")
            )
        except subprocess.TimeoutExpired:
            report = f"{json.dumps(entry)}\n  timed out after {entry['timeout']} s"
        else:
            err = child.stderr.decode("utf-8", "replace")
            report = mismatch(entry, child.returncode, child.stdout, err)
        if report:
            failed += 1
            print(report, flush=True)
    print(f"{len(listed) - failed} of {len(listed)} pinned outputs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
