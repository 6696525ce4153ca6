"""Which functions of the ``coevents`` package the CLI and the demos reach.

With the package importable, from any directory::

    python tools/census.py

``sys.setprofile`` records the package's functions called while every
entry of ``tests/golden/manifest.json`` runs through ``coevents.cli.run``
in process, less the two n=6 completions, which are the slowest; then
while the four demos run.  Per module, the script prints the functions
the CLI reaches, those only the demos reach and those neither reaches,
each with its lines from ``def`` to its end, and then the totals.  Every
``def`` counts, nested ones too.  Functions that run only at import, as
the package is loaded before the recording starts, count as reached by
neither.  Standard library only; a report, with no gate.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import runpy
import sys
from pathlib import Path
from typing import Iterable

import coevents
from coevents.cli import run

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(coevents.__file__).resolve().parent
SKIPPED = ["complete", "tests/golden/theories/amplitudes_6.json"]

#: A function as its module's file name, its first line and its name.  The
#: first line is the first decorator's, as in the code object's
#: ``co_firstlineno``; keyed by the ``def`` line, a decorated function would
#: never be found reached.
Key = tuple[str, int, str]


def functions() -> dict[Key, tuple[str, int]]:
    """Every ``def`` in the package, nested ones too: its key -> its
    qualified name and its lines from ``def`` to its end."""
    found = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                name = prefix + child.name
                found[module, first, child.name] = name, child.end_lineno - child.lineno + 1
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name + "."
            visit(child, module, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def manifest_argvs() -> list[list[str]]:
    """The manifest's argvs, in file order, less the two n=6 completions."""
    text = (ROOT / "tests" / "golden" / "manifest.json").read_text(encoding="utf-8")
    return [entry["argv"] for entry in json.loads(text) if entry["argv"][:2] != SKIPPED]


def reached(argvs: Iterable[list[str]], demos: Iterable[Path] = ()) -> set[Key]:
    """The keys of the package's functions called while each argv runs
    through ``cli.run`` from the repository root, then while each demo
    runs as ``__main__``; their output is discarded."""
    calls: set[tuple[str, int, str]] = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            calls.add((code.co_filename, code.co_firstlineno, code.co_name))

    here, before = os.getcwd(), sys.getprofile()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            os.chdir(ROOT)
            sys.setprofile(profile)
            try:
                for argv in argvs:
                    run(argv)
                for demo in demos:
                    runpy.run_path(str(demo), run_name="__main__")
            finally:
                sys.setprofile(before)
                os.chdir(here)
    files = {name: Path(name).resolve() for name, _, _ in calls}
    return {
        (files[name].name, line, code) for name, line, code in calls
        if files[name].parent == PACKAGE
    }


def main() -> None:
    table = functions()
    argvs = manifest_argvs()
    demos = sorted((ROOT / "demos").glob("*.py"))
    by_cli = reached(argvs) & table.keys()
    by_demos = reached([], demos) & table.keys()
    groups = {
        "CLI": by_cli,
        "demos only": by_demos - by_cli,
        "neither": table.keys() - by_cli - by_demos,
    }
    print(f"{len(argvs)} manifest entries through cli.run, then {len(demos)} demos")

    def summary(keys: set[Key]) -> str:
        return f"{len(keys)} ({sum(table[key][1] for key in keys)} lines)"

    for module in sorted({key[0] for key in table}):
        mine = {key for key in table if key[0] == module}
        print(f"\n{module}: {summary(mine)}; " + ", ".join(
            f"{group} {summary(keys & mine)}" for group, keys in groups.items()
        ))
        for group, keys in groups.items():
            for key in sorted(keys & mine, key=lambda key: key[1]):
                print(f"  {group:<10}  {table[key][0]} {table[key][1]}")
    print(f"\ntotal: {summary(set(table))}; " + ", ".join(
        f"{group} {summary(keys)}" for group, keys in groups.items()
    ))


if __name__ == "__main__":
    main()
