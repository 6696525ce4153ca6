"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
every check is exact (no tolerances), and the stated time budgets are
asserted.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from coevents import (
    Measure,
    SampleSpace,
    TruthFunction,
    ValuationEvent,
    and_or_audit,
    classical_preclusive_set,
    complete,
    dual_of_coevent,
    dual_of_event,
    classical_from_history,
    enumerate_coevents,
    enumerate_multiplicative,
    heyting_implication,
    is_classical,
    is_multiplicative,
    multiplicative_scheme,
    order_report,
    tau,
    truth_evaluate,
    validate_classical,
    validate_quantum,
)
from coevents.catalog import corpus, three_slit
from coevents.topos import (
    build_mce_instance,
    characteristic_naturality_failures,
    chi_vsupp,
    classifier,
    classifier_functoriality_failures,
    is_subobject,
    sieve_implication,
    sieve_join,
    sieve_meet,
    sieves_at,
)

from conftest import LETTER_LABELS, algebra_of_size, dual_up_masks, support_key
from test_topos import all_subobjects, poset_corpus

THEORIES = Path(__file__).resolve().parents[1] / "demos" / "theories"


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.3f}s)")


def test_criterion_01_duality_involution():
    with criterion(1, "duality-involution", budget=1.0):
        for n in (1, 2, 3, 4):
            alg = algebra_of_size(n)
            for mask in range(1, alg.size):
                ev = alg.event(mask)
                assert dual_of_coevent(dual_of_event(ev)) == ev
            for phi in enumerate_multiplicative(alg):
                assert dual_of_event(dual_of_coevent(phi)) == phi


def test_criterion_02_homomorphism_census():
    with criterion(2, "homomorphism-census", budget=5.0):
        for n in (2, 3):
            alg = algebra_of_size(n)
            everything = enumerate_coevents(alg)
            assert len(everything) == 1 << alg.size

            classical = {support_key(phi) for phi in everything if is_classical(phi)}
            expected = {
                support_key(classical_from_history(alg, lab))
                for lab in alg.space.labels
            }
            assert classical == expected and len(classical) == n

            zero_key = ()
            literal = {
                support_key(phi)
                for phi in everything
                if is_multiplicative(phi, include_empty_dual=True)
            }
            assert literal == {
                support_key(phi)
                for phi in enumerate_multiplicative(alg, include_empty_dual=True)
            } | {zero_key}

            strict = {support_key(phi) for phi in everything if is_multiplicative(phi)}
            assert strict == {
                support_key(phi) for phi in enumerate_multiplicative(alg)
            } | {zero_key}


def test_criterion_03_sum_rule_hierarchy():
    with criterion(3, "sum-rule-hierarchy"):
        rng = random.Random(20260811)
        for _ in range(200):
            n = rng.randint(1, 4)
            space = SampleSpace(LETTER_LABELS[:n])
            raw = [rng.randint(0, 9) for _ in range(n)]
            if sum(raw) == 0:
                raw[rng.randrange(n)] = 1
            weights = {
                lab: Fraction(raw[i], sum(raw)) for i, lab in enumerate(space.labels)
            }
            m = Measure.from_atom_weights(space, weights)
            assert validate_classical(m).ok
            assert validate_quantum(m).ok

        ts = three_slit()
        assert validate_quantum(ts).ok
        report = validate_classical(ts)
        assert not report.ok
        witnesses = {tuple(str(ev) for ev in v.events) for v in report.violations}
        assert ("{1}", "{2}") in witnesses


def test_criterion_04_null_cover_phenomenon():
    with criterion(4, "null-cover-phenomenon"):
        ts = three_slit()
        assert len(classical_preclusive_set(ts)) == 0
        scheme = multiplicative_scheme(ts)
        assert [str(phi) for phi in scheme] == ["{1,2}*"]
        assert len(scheme) > 0
        principals = [dual_of_coevent(phi).mask for phi in scheme]
        for p, q in itertools.permutations(principals, 2):
            assert p & q != p  # anti-chain: no strict containment


def test_criterion_05_order_structure():
    with criterion(5, "order-structure", budget=5.0):
        for n in (2, 3, 4):
            space = enumerate_multiplicative(algebra_of_size(n))
            report = order_report(space)
            assert report.orders_agree
            assert report.meet_agree
            assert not report.join_agree
            witnesses = report.witnesses["join"]
            assert len(witnesses) >= 1
            for a, b in witnesses:  # each reported witness is genuine
                assert (tau(a, space) | tau(b, space)).bits != tau(a | b, space).bits


def test_criterion_06_completion_structure():
    with criterion(6, "completion-structure", budget=10.0):
        for n in (2, 3):
            space = enumerate_multiplicative(algebra_of_size(n))
            upper = complete(space, "upper")
            ups = dual_up_masks(space)
            for bits in upper.member_bits:
                for i in range(len(space)):
                    if bits >> i & 1:
                        assert ups[i] & bits == ups[i]  # upward closed

            members = upper.members
            for alpha, beta in itertools.product(members, repeat=2):
                imp = heyting_implication(alpha, beta, upper)
                scan = 0
                for gamma in upper.member_bits:
                    if gamma & alpha.bits & ~beta.bits == 0:
                        scan |= gamma
                assert imp.bits == scan  # pointwise form = member scan
                assert imp in upper
                assert (imp & alpha).issubset(beta)
                for gamma in members:
                    assert ((gamma & alpha).issubset(beta)) == gamma.issubset(imp)

            boolean = complete(space, "boolean")
            full = (1 << len(space)) - 1
            boolean_set = set(boolean.member_bits)
            for bits in boolean.member_bits:
                assert bits ^ full in boolean_set  # complemented, hence Boolean

            if n == 2:
                upper_set = set(upper.member_bits)
                assert any(bits ^ full not in upper_set for bits in upper.member_bits)


def test_criterion_07_truth_functions_and_audits():
    with criterion(7, "truth-functions-and-audits"):
        for n in (2, 3):
            space = enumerate_multiplicative(algebra_of_size(n))
            assert len(space) <= 8
            size = 1 << len(space)
            for phi in space.members:
                f = TruthFunction(space, phi)
                for abits in range(size):
                    alpha = ValuationEvent(space, abits)
                    assert truth_evaluate(f, ~alpha) == 1 - truth_evaluate(f, alpha)
                    for bbits in range(size):
                        beta = ValuationEvent(space, bbits)
                        assert truth_evaluate(f, alpha & beta) == (
                            truth_evaluate(f, alpha) & truth_evaluate(f, beta)
                        )
                        assert truth_evaluate(f, alpha | beta) == (
                            truth_evaluate(f, alpha) | truth_evaluate(f, beta)
                        )

            alg = space.algebra
            discrepancies = 0
            for phi in space.members:
                for a in range(alg.size):
                    for b in range(a, alg.size):
                        record = and_or_audit(phi, alg.event(a), alg.event(b), space)
                        assert record.and_identity_holds
                        discrepancies += record.or_discrepancy
            assert discrepancies >= 1


def test_criterion_08_topos_layer():
    with criterion(8, "topos-layer", budget=5.0):
        for poset in poset_corpus():
            assert len(poset) <= 8
            omega = classifier(poset)
            assert classifier_functoriality_failures(omega) == ()
            for s in all_subobjects(poset, ("x", "y")):
                assert characteristic_naturality_failures(s) == ()

        for n in (1, 2, 3):
            instance = build_mce_instance(algebra_of_size(n))
            assert is_subobject(instance.support_subobject)[0]
            for phi in instance.poset.elements:
                for mask in range(instance.algebra.size):
                    ev = instance.algebra.event(mask)
                    via_tau = tau(ev & dual_of_coevent(phi), instance.space)
                    assert chi_vsupp(instance, phi, ev).bits == via_tau.bits

        point = poset_corpus()[0]
        false_, true_ = sieves_at(point, "p")
        assert sieve_meet(true_, false_) == false_
        assert sieve_join(true_, false_) == true_
        assert sieve_implication(true_, false_) == false_
        assert sieve_implication(false_, true_) == true_


def test_criterion_09_scheme_pushforward_well_defined():
    with criterion(9, "scheme-pushforward-well-defined"):
        for name, m in corpus().items():
            scheme = multiplicative_scheme(m)
            report = order_report(scheme)
            assert report.pushforward_well_defined, name


def test_criterion_10_cli_determinism():
    with criterion(10, "cli-determinism"):
        for fixture in ("fair_coin.json", "three_slit.json"):
            path = str(THEORIES / fixture)
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "coevents.cli", "report", path,
                     "--format", "machine"],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout
            parsed = json.loads(runs[0].stdout.decode("utf-8"))
            reserialized = (
                json.dumps(parsed, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
            )
            assert reserialized.encode("utf-8") == runs[0].stdout

            text_runs = [
                subprocess.run(
                    [sys.executable, "-m", "coevents.cli", "report", path],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            ]
            assert text_runs[0].stdout == text_runs[1].stdout
