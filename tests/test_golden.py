"""The CLI outputs pinned in ``tests/golden/manifest.json``, run in process.

The manifest holds one entry per line: ``argv``, the words after
``coevents``, with theory paths relative to the repository root; ``exit``,
the exit code; and either ``golden``, a file under ``tests/golden/`` that
stdout must equal byte for byte, or stdout's ``bytes`` and ``sha256``.  An
entry that CI runs under a time limit also holds that ``timeout`` in
seconds.  Golden files pin the outputs on the demo theories, whose diffs are
worth reading; the hashes pin larger outputs and those on the theory files
under ``tests/golden/theories/``, whose README says how each was made.

The test below runs every entry through ``coevents.cli.run`` from the
repository root, and ``tests/pinned_outputs.py`` runs the same entries
through ``python -m coevents``.  On a mismatch, each prints the entry as the
run produced it.  To pin a new output, add a line with any hash and copy in
the printed line.  A change that means to alter an output copies the
printed line over the old one, or rewrites the golden file with
``python -m coevents <argv> > <golden>``, and lists the entries it changed
in CHANGES.md.
"""

from __future__ import annotations

import pytest

from coevents import catalog, theoryfile
from coevents.cli import run
from pinned_outputs import ROOT, entries, mismatch


@pytest.mark.parametrize("entry", entries(), ids=lambda entry: " ".join(entry["argv"]))
def test_cli_output_matches_its_manifest_entry(capsys, monkeypatch, entry):
    monkeypatch.chdir(ROOT)
    rc = run(entry["argv"])
    out, err = capsys.readouterr()
    report = mismatch(entry, rc, out.encode("utf-8"), err)
    if report:  # fail with the report alone, so that its first line can be copied
        pytest.fail(report, pytrace=False)


@pytest.mark.parametrize("name", catalog.corpus())
def test_corpus_theory_files_load_the_catalog_measures(name):
    theory = theoryfile.load(ROOT / "tests" / "golden" / "theories" / f"{name}.json")
    assert theory.measure == catalog.corpus()[name]
