"""The three benchmark workloads, built as lists of checked operations.

An operation is prepared (inputs written, expected facts derived) outside
the timed interval, then its ``run`` is timed, then its ``check`` runs,
again untimed.  ``run`` reaches the library through module attributes
(``C.load``, ``cli.run``) at call time, so the traced pass sees the
wrappers it installs.

Why each workload exists, and which layer each should move, is recorded
in ``BENCHMARK.json`` and in ``run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import coevents as C
from coevents import cli

import gen

class CheckFailed(Exception):
    """The library's answer disagrees with a fact the benchmark derived itself."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str  # operation class, e.g. "decoherence/n8" or "audit/n5/machine"
    group: str  # the memory pass runs one operation per group
    # prepare() -> (run, check); check(result) raises CheckFailed or returns
    # a dict of work counts to add up
    prepare: Callable[[], tuple[Callable[[], Any], Callable[[Any], dict | None]]]


def interleave(classes: list[list[Op]]) -> list[Op]:
    """Merge the classes so that each is spread evenly over the whole list."""
    keyed = [
        ((k + 0.5) / len(ops), j, op)
        for j, ops in enumerate(classes)
        for k, op in enumerate(ops)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# sumrules: load + both validators + null analysis on distinct files

# Per pass: (n, count) of each stanza kind, 26 files per kind.  Loading a
# decoherence file runs validate_quantum once more, so those stop at n=7;
# the 21 other n=8 files are then the slowest class and the tail (the 11th
# slowest of 104) is their middle, while the median falls among the 24
# non-decoherence n=7 files: neither sits on a step between size classes.
# n=9 is left out: the few files a run could afford would decide the tail
# and the throughput alone.
SUMRULES_MIX = {
    "amplitudes": ((6, 11), (7, 8), (8, 7)),
    "atom_weights": ((6, 11), (7, 8), (8, 7)),
    "event_table": ((6, 11), (7, 8), (8, 7)),
    "decoherence": ((6, 11), (7, 15)),
}


def _sumrules_op(workdir: Path, seed: int, r: int, kind: str, n: int, i: int) -> Op:
    def prepare():
        data, mu = gen.theory(kind, gen.rng_for(seed, "sumrules", r, kind, n, i), n)
        path = workdir / f"sumrules-{r}-{kind}-{n}-{i}.json"
        path.write_text(json.dumps(data))

        def run():
            th = C.load(path)
            m = th.measure
            return (
                th,
                C.validate_classical(m),
                C.validate_quantum(m),
                C.null_sets(m),
                C.null_cover_exists(m),
            )

        def check(res):
            th, classical, quantum, nulls, cover = res
            expect(th.measure_kind == kind, "measure kind")
            expect(
                all(th.measure.values[m] == v for m, v in enumerate(mu)),
                "loaded values differ from the generated measure",
            )
            expect(quantum.ok, "validate_quantum rejected a quantum-valid measure")
            expect(classical.ok == gen.is_additive(mu), "additivity verdict")
            expect(list(nulls.masks) == gen.null_masks(mu), "null sets")
            expect(cover == gen.null_cover(mu, n), "null cover verdict")

        return run, check

    return Op(f"{kind}/n{n}", f"{kind}/n{n}", prepare)


def sumrules(seed: int, passes: int, workdir: Path) -> list[list[Op]]:
    return [
        interleave(
            [[_sumrules_op(workdir, seed, r, kind, n, i) for i in range(count)]
             for kind, mix in SUMRULES_MIX.items() for n, count in mix]
        )
        for r in range(passes)
    ]


# ---------------------------------------------------------------------------
# scale: large-n construction, the scheme, and the dual enumeration/order

# Scheme ops draw gen's amplitude theories until the scheme's rendering
# cost falls in the slot's band.  str(scheme) runs is_filter on each
# member's support, 2^(n-|A|) events for a member A, and its pairwise
# test dominates, so the cost is the sum of 4^(n-|A|) over the members;
# the band is in units of one singleton member's 4^(n-1).  Unbanded, that
# sum ranges over 0..n units (a singleton member at n=12 takes 0.37 s to
# render), so a seed would decide each op's cost.  Dual ops need no band:
# enumeration and the order report depend on n alone.
#
# Per pass, 26 slots, 12 of them dual ops.  The median and the tail (ten
# beyond, the 62nd percentile) fall among the n=11 scheme ops, just above
# the n=8 dual ops; their band is narrow (a twentieth of the draws fall in
# it, at 6 ms a draw), as the render is over half of such an op's time.  n=13 scheme ops (a 1.5 s render per
# unit, and a second or more of drawing) and n=10 dual ops (a 3-4 s order
# report and 186 MB) are left out: one such slot would decide the
# throughput alone.
SCALE_MIX = (  # (n, count, also enumerate duals and run the order report, band)
    (11, 12, False, (0.75, 1.25)),
    (12, 2, False, (0.5, 1.0)),
    (8, 10, True, None),
    (9, 2, True, None),
)


def render_units(masks: list[int], n: int) -> float:
    """is_filter's pairwise tests over the scheme, in singleton members."""
    return sum(4 ** (n - m.bit_count()) for m in masks) / 4 ** (n - 1)


def scale_draw(rng, n: int, band):
    """gen's integer amplitudes, drawn until the scheme's render cost is in band.

    Returns the amplitudes, the unnormalised measure (same null sets) and
    the scheme's masks.
    """
    while True:
        z = gen.integer_amplitudes(rng, n)
        mu = gen.amplitude_values(z)
        if band is not None:
            covered = 0
            for m in gen.null_masks(mu):
                covered |= m
            # every history in no null set is a singleton member, one unit each
            if n - covered.bit_count() > band[1]:
                continue
        masks = gen.scheme_masks(mu, n)
        if band is None or band[0] <= render_units(masks, n) <= band[1]:
            return z, mu, masks


def _principal(phi) -> int:
    out = -1
    for m in phi.support:
        out &= m
    return out


def _scale_op(seed: int, r: int, n: int, i: int, duals: bool, band) -> Op:
    kind = "duals" if duals else "scheme"

    def prepare():
        z, mu, masks = scale_draw(gen.rng_for(seed, "scale", r, n, i), n, band)
        space = C.SampleSpace(tuple(gen.labels(n)))
        ga = [C.GaussianRational(re, im) for re, im in gen.normalise(z)]

        def run():
            m = C.Measure.from_amplitudes(space, ga)
            cover = C.null_cover_exists(m)
            classical = C.classical_preclusive_set(m)
            scheme = C.multiplicative_scheme(m)
            text = str(scheme)
            if not duals:
                return m, cover, classical, scheme, text, None
            alg = m.algebra
            dual_space = C.enumerate_multiplicative(alg)
            taus = [C.tau(alg.event(1 << j), dual_space) for j in range(n)]
            report = C.order_report(dual_space)
            return m, cover, classical, scheme, text, (dual_space, taus, report)

        def check(res):
            m, cover, classical, scheme, text, extra = res
            norm = mu[-1]  # mu is |sum|^2 before normalising
            expect(
                all(m.values[k] * norm == v for k, v in enumerate(mu)), "measure values"
            )
            expect(cover == gen.null_cover(mu, n), "null cover verdict")
            nulls = gen.null_masks(mu)
            free = [j for j in range(n) if not any(k >> j & 1 for k in nulls)]
            expect(
                [_principal(phi) for phi in classical] == [1 << j for j in free],
                "classical preclusive set",
            )
            expect([_principal(phi) for phi in scheme] == masks, "scheme members")
            expect(
                text == "[" + ", ".join(gen.event_key(k, n) + "*" for k in masks) + "]",
                "scheme rendering",
            )
            if extra is not None:
                dual_space, taus, rep = extra
                expect(len(dual_space) == (1 << n) - 1, "dual count")
                expect(all(len(t) == 1 for t in taus), "tau of a singleton")
                expect(
                    rep.tau_injective
                    and rep.pushforward_well_defined
                    and rep.orders_agree
                    and rep.meet_agree
                    and not rep.join_agree,
                    "order report flags",
                )

        return run, check

    return Op(f"{kind}/n{n}", f"{kind}/n{n}", prepare)


def scale(seed: int, passes: int, workdir: Path) -> list[list[Op]]:
    del workdir  # inputs are built in memory
    return [
        interleave(
            [[_scale_op(seed, r, n, i, duals, band) for i in range(count)]
             for n, count, duals, band in SCALE_MIX]
        )
        for r in range(passes)
    ]


# ---------------------------------------------------------------------------
# cli-verbs: every verb of the in-process CLI on one small file per n = 3..5

DEDEKIND = {3: 20, 4: 168}  # Dedekind numbers: antichains of the 2^n events


def cli_verbs_for(n: int) -> list[list[str]]:
    """The verbs run on one file at n.  ``report`` runs at n=3 only: at n=4
    and n=5 it repeats the boolean completion and the all-pairs audit (1-3 s
    each) that ``complete`` and ``audit`` already run there."""
    verbs = [["validate"], ["orders"], ["tau", "--event", "a,b"]]
    verbs += [["coevents", "--set", s] for s in ("classical", "multiplicative", "scheme")]
    if n == 3:
        verbs.append(["coevents", "--set", "all"])
    if n <= 4:
        verbs += [["complete", "--mode", "upper"], ["complete", "--mode", "boolean"]]
    verbs += [["audit", "--context", "a,b", "--event", "a", "--event-b", "b"], ["audit"]]
    if n <= 4:
        verbs.append(["topos"])
    if n == 4:
        verbs.append(["topos", "--cap", "15"])
    if n == 3:
        verbs.append(["report"])
    return verbs


def _verb_label(verb: list[str]) -> str:
    if verb[0] in ("coevents", "complete"):
        return f"{verb[0]}-{verb[2]}"
    if verb[0] == "audit":
        return "audit-single" if len(verb) > 1 else "audit-all"
    if verb[0] == "topos" and len(verb) > 1:
        return "topos-cap15"
    return verb[0]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


class _Text:
    """Read scalar fields back out of the text rendering of a report."""

    def __init__(self, out: str):
        self.lines = out.splitlines()

    def section(self, name: str) -> list[str]:
        start = self.lines.index(f"# {name}") + 1
        end = next(
            (j for j in range(start, len(self.lines)) if self.lines[j].startswith("# ")),
            len(self.lines),
        )
        return self.lines[start:end]

    def get(self, name: str, *path: str) -> str:
        lines, pos = self.section(name), 0
        for depth, key in enumerate(path, start=1):
            pad = "  " * depth
            pos = next(
                j
                for j in range(pos, len(lines))
                if lines[j] == f"{pad}{key}:" or lines[j].startswith(f"{pad}{key}: ")
            )
        _, _, value = lines[pos].partition(": ")
        return value

    def count(self, name: str, line: str) -> int:
        return sum(1 for s in self.section(name) if s == line)


def _cli_facts(n: int, mu: list[Fraction]) -> dict:
    return {
        "additive": gen.is_additive(mu),
        "cover": gen.null_cover(mu, n),
        "scheme": len(gen.scheme_masks(mu, n)),
    }


def _check_cli(verb, n, fmt, facts, rc, out) -> None:
    expect(rc == 0, f"exit code {rc}")
    name = verb[0]
    if fmt == "machine":
        obj = json.loads(out)
        expect(
            json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == out,
            "machine output does not re-serialise byte-identically",
        )
        sections = obj["sections"]

        def get(sec, *path):
            v = sections[sec]
            for k in path:
                v = v[k]
            return v

        def count_disc():
            return len(sections["audit"]["or_discrepancies"])
    else:
        t = _Text(out)
        scalars = {"yes": True, "no": False, "-": None}

        def get(sec, *path):
            v = t.get(sec, *path)
            return scalars.get(v, int(v) if re.fullmatch(r"-?\d+", v) else v)

        def count_disc():
            return t.count("audit", "    -")

    if name == "validate":
        expect(get("validate", "quantum", "ok") is True, "quantum verdict")
        expect(get("validate", "classical", "ok") is facts["additive"], "additivity verdict")
        expect(get("validate", "null_cover") is facts["cover"], "null cover verdict")
    elif name == "orders":
        expect(
            [get("orders", k) for k in ("tau_injective", "pushforward_well_defined",
                                        "orders_agree", "meet_agree", "join_agree")]
            == [True, True, True, True, False],
            "order flags",
        )
    elif name == "tau":
        expect(get("tau", "valuation_event") == "[{a}*, {b}*, {a,b}*]", "tau of {a,b}")
    elif name == "coevents":
        expected = {
            "classical": n,
            "multiplicative": (1 << n) - 1,
            "scheme": facts["scheme"],
            "all": 1 << (1 << n),
        }[verb[2]]
        expect(get("coevents", "count") == expected, f"{verb[2]} count")
    elif name == "complete":
        if verb[2] == "upper":
            expect(get("complete", "size") == DEDEKIND[n] - 1, "upper completion size")
        else:
            expect(get("complete", "size") == 1 << ((1 << n) - 1), "boolean completion size")
            expect(get("complete", "boolean") is True, "boolean completion flag")
    elif name == "audit" and len(verb) > 1:
        expect(get("audit", "and_identity_holds") is True, "AND identity")
        expect(get("audit", "or_discrepancy") is True, "OR discrepancy at {a,b}*")
    elif name == "audit":
        expect(get("audit", "checked") == gen.audit_pairs_checked(n), "audit records")
        expect(count_disc() == gen.audit_or_discrepancies(n), "OR discrepancy count")
    elif name == "topos":
        expect(get("topos", "vsupp_is_subobject") is True, "support subobject")
        expect(get("topos", "antichain") is False, "dual order is not an anti-chain")
        checked = n == 3 or len(verb) > 1
        expect(get("topos", "classifier", "checked") is checked, "classifier checked")
        if checked:
            expect(get("topos", "classifier", "functorial") is True, "classifier functorial")
    elif name == "report":
        expect(get("validate", "quantum", "ok") is True, "report: quantum verdict")
        expect(
            get("coevents-multiplicative", "count") == (1 << n) - 1,
            "report: multiplicative count",
        )
        expect(get("audit", "checked") == gen.audit_pairs_checked(n), "report: audit records")
        expect(
            get("complete-boolean", "size") == 1 << ((1 << n) - 1),
            "report: boolean completion size",
        )


def cli_verbs(seed: int, passes: int, workdir: Path) -> list[list[Op]]:
    out = []
    for r in range(passes):
        per_file = []
        for n in (3, 4, 5):
            path, state = workdir / f"cli-{r}-{n}.json", {}
            # the output format alternates from verb to verb
            per_file.append([
                _cli_op(seed, r, n, ("text", "machine")[(i + n) % 2], path, verb, state)
                for i, verb in enumerate(cli_verbs_for(n))
            ])
        # spread each file's verbs over the pass, so the cheap verbs are not
        # bunched into a few moments that one burst of host load can cover
        out.append(interleave(per_file))
    return out


def _cli_op(seed, r, n, fmt, path, verb, state) -> Op:
    label = _verb_label(verb)

    def prepare():
        if "facts" not in state:  # the file is shared by all verbs run on it
            data, mu = gen.theory("amplitudes", gen.rng_for(seed, "cli-verbs", r, n), n)
            path.write_text(json.dumps(data))
            state["facts"] = _cli_facts(n, mu)
        argv = [verb[0], str(path), *verb[1:], "--format", fmt]

        def run():
            return run_cli(argv)

        def check(res):
            _check_cli(verb, n, fmt, state["facts"], *res)
            return {"cli_output_bytes": len(res[1].encode("utf-8"))}

        return run, check

    return Op(f"{label}/n{n}/{fmt}", f"{label}/n{n}", prepare)


WORKLOAD_OPS = {"sumrules": sumrules, "scale": scale, "cli-verbs": cli_verbs}

# The memory pass runs one op of each group under tracemalloc, which slows
# them about fivefold; each of the cli-verbs groups below would take over
# 10 s there.
MEMORY_SKIP = {"complete-boolean/n4", "audit-all/n5", "topos-cap15/n4"}

# Passes per 20 s of --seconds.  Every pass runs the same slots (op classes)
# in the same order on fresh inputs, so no input repeats, and a slot's
# latency is the median of its passes, each scaled to the nominal host speed
# (see reference.py).  cli-verbs makes four: three slots of its 33 take nine
# tenths of its time (the boolean completion at n=4, the all-pairs audit at
# n=5, the capped topos at n=4), so its throughput rests on few operations.
# A run takes 20-30 s on a calm host and under 50 s on a slow one.
PASSES = {"sumrules": 3, "scale": 3, "cli-verbs": 4}
SECONDS_PER_RUN = 20


def build(workload: str, seed: int, seconds: int, workdir: Path) -> list[list[Op]]:
    passes = PASSES[workload] * max(1, round(seconds / SECONDS_PER_RUN))
    return WORKLOAD_OPS[workload](seed, passes, workdir)


def memory_ops(ops: list[Op]) -> list[Op]:
    seen = set(MEMORY_SKIP)
    return [op for op in ops if not (op.group in seen or seen.add(op.group))]


# ---------------------------------------------------------------------------
# Reach sweep: the largest n at which one operation still fits the budget


def reach_case(op: str, n: int, seed: int, workdir: Path) -> Callable[[], Any]:
    """Build the inputs of one sweep case; the returned call is what is timed."""
    rng = gen.rng_for(seed, "reach", op, n)
    if op.startswith("cli."):
        data, _ = gen.theory("amplitudes", rng, n)
        path = workdir / f"reach-{n}.json"
        path.write_text(json.dumps(data))
        argv = [op[4:], str(path), "--format", "machine"]

        def call():
            rc, _ = run_cli(argv)
            expect(rc == 0, f"exit code {rc}")

        return call
    space = C.SampleSpace(tuple(gen.labels(n)))
    amps = [C.GaussianRational(re, im) for re, im in gen.amplitudes(rng, n)]
    if op == "measure.from_amplitudes":
        return lambda: C.Measure.from_amplitudes(space, amps)
    if op == "measure.measure_from_decoherence":
        rows = [[C.GaussianRational(*x) for x in row] for row in gen.decoherence(rng, n)]
        return lambda: C.measure_from_decoherence(C.DecoherenceSpec.from_rows(space, rows))
    m = C.Measure.from_amplitudes(space, amps)
    calls = {
        "measure.validate_classical": lambda: C.validate_classical(m),
        "measure.validate_quantum": lambda: C.validate_quantum(m),
        "coevent.enumerate_multiplicative": lambda: C.enumerate_multiplicative(m.algebra),
        "coevent.multiplicative_scheme": lambda: C.multiplicative_scheme(m),
    }
    if op in calls:
        return calls[op]
    if op == "coevent.render_scheme":
        scheme = C.multiplicative_scheme(m)
        return lambda: str(scheme)
    duals = C.enumerate_multiplicative(m.algebra)
    if op == "beables.order_report":
        return lambda: C.order_report(duals)
    if op == "beables.complete_upper":
        return lambda: C.complete(duals, "upper", cap=len(duals))
    raise ValueError(f"unknown reach op {op!r}")
