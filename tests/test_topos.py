from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coevents import (
    CapExceeded,
    CoeventSpace,
    CoeventToposInstance,
    Event,
    EventAlgebra,
    GaussianRational,
    Measure,
    SampleSpace,
    build_instance,
    build_mce_instance,
    build_scheme_instance,
    chi_vsupp,
    dual_of_event,
    tau,
)
from coevents import poset as poset_module, topos as topos_module
from coevents.catalog import four_slit, three_slit
from coevents.eventalg import iter_submasks, set_bits, unchecked
from coevents.beables import complete, heyting_implication
from coevents.cli import run
from coevents.coevent import dual_of_coevent, enumerate_multiplicative, multiplicative_scheme
from coevents.poset import UpSets
from coevents.theoryfile import load

import topos_oracle
from conftest import algebra_of_size
from topos_oracle import (
    FinitePoset,
    NotASubobject,
    Sieve,
    SubobjectClassifier,
    SubobjectOfConstant,
    characteristic_map,
    classifier,
    classifier_functoriality_failures,
    dual_order,
    is_subobject,
    sieve_implication,
    sieve_join,
    sieve_meet,
    sieves_at,
    support_subobject,
)

ROOT = Path(__file__).resolve().parents[1]
THEORIES = ROOT / "demos" / "theories"


def one_point() -> FinitePoset:
    return FinitePoset.from_pairs(("p",), [])


def chain(k: int) -> FinitePoset:
    elems = tuple(f"c{i}" for i in range(k))
    return FinitePoset.from_pairs(elems, [(elems[i], elems[i + 1]) for i in range(k - 1)])


def antichain(k: int) -> FinitePoset:
    return FinitePoset.from_pairs(tuple(f"a{i}" for i in range(k)), [])


def diamond() -> FinitePoset:
    return FinitePoset.from_pairs(
        ("bot", "m1", "m2", "top"),
        [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")],
    )


def n_poset() -> FinitePoset:
    return FinitePoset.from_pairs(
        ("a", "b", "c", "d"), [("a", "c"), ("b", "c"), ("b", "d")]
    )


def grid_2x3() -> FinitePoset:
    elems = tuple(f"g{i}{j}" for i in range(2) for j in range(3))
    pairs = []
    for i in range(2):
        for j in range(3):
            if i + 1 < 2:
                pairs.append((f"g{i}{j}", f"g{i+1}{j}"))
            if j + 1 < 3:
                pairs.append((f"g{i}{j}", f"g{i}{j+1}"))
    return FinitePoset.from_pairs(elems, pairs)


def poset_corpus() -> list[FinitePoset]:
    return [
        one_point(),
        chain(2),
        chain(3),
        antichain(3),
        diamond(),
        n_poset(),
        grid_2x3(),
        dual_order(build_mce_instance(algebra_of_size(2)).space),
    ]


def draw_dual_space(data, max_n: int) -> CoeventSpace:
    """A space of one to eight duals over at most ``max_n`` histories,
    with or without the empty event's dual."""
    n = data.draw(st.integers(1, max_n), label="n")
    alg = EventAlgebra(SampleSpace(tuple("abcde"[:n])))
    lowest = data.draw(st.sampled_from([0, 1]), label="lowest principal")
    principals = data.draw(
        st.sets(st.integers(lowest, alg.size - 1), min_size=1, max_size=8),
        label="principals",
    )
    return CoeventSpace.build(
        alg,
        [dual_of_event(alg.event(p), include_empty_dual=True) for p in principals],
        "user-supplied",
    )


# ---------------------------------------------------------------------------
# Posets


def test_poset_axioms_are_checked():
    with pytest.raises(ValueError, match="reflexive"):
        FinitePoset(("a",), (0b0,))
    with pytest.raises(ValueError, match="antisymmetric"):
        FinitePoset(("a", "b"), (0b11, 0b11))
    with pytest.raises(ValueError, match="transitive"):
        FinitePoset(("a", "b", "c"), (0b011, 0b110, 0b100))
    with pytest.raises(ValueError, match="distinct"):
        FinitePoset(("a", "a"), (0b01, 0b10))


def test_poset_rows_must_be_bitmasks_over_the_elements():
    for rows in [(0b1,), (0b01, 0b110), (0b1, -1)]:
        with pytest.raises(ValueError, match="bitmask over the elements"):
            FinitePoset(("a", "b"), rows)


def pairwise_axiom_error(elements: tuple, rows: tuple) -> str | None:
    """Oracle: the reflexivity, antisymmetry and transitivity checks on
    the relation matrix, cell by cell, in the order the rows are checked."""
    n = len(elements)
    le = [[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        if not le[i][i]:
            return f"relation is not reflexive at {elements[i]}"
        for j in range(n):
            if i != j and le[i][j] and le[j][i]:
                return f"relation is not antisymmetric on ({elements[i]}, {elements[j]})"
            if le[i][j]:
                for k in range(n):
                    if le[j][k] and not le[i][k]:
                        return (
                            "relation is not transitive through "
                            f"({elements[i]}, {elements[j]}, {elements[k]})"
                        )
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_validation_matches_the_pairwise_axioms(data):
    n = data.draw(st.integers(0, 5), label="n")
    elements = tuple(f"e{i}" for i in range(n))
    # mostly reflexive rows, so the later checks are reached too
    rows = tuple(
        data.draw(st.integers(0, (1 << n) - 1), label=f"row {i}")
        | (1 << i if data.draw(st.integers(0, 9), label=f"refl {i}") else 0)
        for i in range(n)
    )
    expected = pairwise_axiom_error(elements, rows)
    if expected is None:
        assert FinitePoset(elements, rows).up == rows
    else:
        with pytest.raises(ValueError) as exc:
            FinitePoset(elements, rows)
        assert str(exc.value) == expected


def test_from_pairs_takes_the_transitive_closure():
    p = chain(3)
    assert p.leq("c0", "c2")
    assert not p.leq("c2", "c0")


def test_up_bits():
    p = diamond()
    assert p.up[p.index("bot")] == 0b1111
    assert p.up[p.index("m1")] == (1 << p.index("m1")) | (1 << p.index("top"))


def assert_up_sets_match_the_subset_scan(up: tuple[int, ...], within: int, pairs=None) -> None:
    """Oracle: every subset of the elements, kept when it lies inside
    ``within`` and holds each element above each of its own.  ``UpSets``
    lists, counts and tests exactly those; its implication of each pair
    (all pairs by default) is the largest kept gamma with gamma & a <= b;
    it is an antichain iff no two elements of ``within`` compare."""
    n = len(up)

    def upward_closed(bits: int) -> bool:
        return all(
            bits >> j & 1
            for i in range(n) if bits >> i & 1
            for j in range(n) if up[i] >> j & 1
        )

    scan = [bits for bits in range(1 << n) if bits & ~within == 0 and upward_closed(bits)]
    lattice = UpSets(up, within)
    assert [bits for bits in range(-1, 2 << n) if bits in lattice] == scan
    assert lattice.listed == tuple(scan) and lattice.size == len(scan)
    inside = [i for i in range(n) if within >> i & 1]
    assert lattice.is_antichain == all(up[i] >> j & 1 == 0 for i in inside for j in inside if i != j)
    for a, b in itertools.product(scan, repeat=2) if pairs is None else pairs(scan):
        largest = 0
        for gamma in scan:
            if gamma & a & ~b == 0:
                largest |= gamma
        assert lattice.implies(a, b) == largest


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_up_set_test_and_implication_against_brute_force(poset):
    for within in ((1 << len(poset)) - 1, *poset.up):
        assert_up_sets_match_the_subset_scan(poset.up, within)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_up_sets_match_the_subset_scan_on_random_orders(data):
    """Orders of up to 10 elements from drawn covers, inside the whole set
    or one element's up-set; the implication on 20 drawn pairs."""
    k = data.draw(st.integers(0, 10), label="elements")
    pairs = st.tuples(st.integers(0, max(k - 1, 0)), st.integers(0, max(k - 1, 0)))
    covers = data.draw(st.lists(pairs, max_size=2 * k), label="covers") if k else []
    poset = FinitePoset.from_pairs(range(k), [(i, j) for i, j in covers if i < j])
    within = data.draw(st.sampled_from(((1 << k) - 1, *poset.up)), label="within")

    def drawn(scan):
        members = st.sampled_from(scan)
        return data.draw(st.lists(st.tuples(members, members), max_size=20), label="pairs")

    assert_up_sets_match_the_subset_scan(poset.up, within, drawn)


def test_up_sets_match_the_subset_scan_on_every_antichain_of_duals():
    """Every space of pairwise incomparable duals over four histories (the
    167 antichains of nonempty events, the empty one among them, so every
    such space at n <= 4): its order is an antichain, and its up-sets
    number 2^|V| without a listing."""
    alg = algebra_of_size(4)
    antichains = [()]
    for p in range(1, alg.size):
        antichains += [
            (*found, p) for found in antichains if all(p & q not in (p, q) for q in found)
        ]
    assert len(antichains) == 167
    for principals in antichains:
        space = CoeventSpace(alg, [dual_of_event(alg.event(p)) for p in principals])
        lattice = UpSets(space.up_rows, (1 << len(space)) - 1)
        assert lattice.is_antichain and lattice.size == 1 << len(space)
        assert "listed" not in vars(lattice)
        assert_up_sets_match_the_subset_scan(space.up_rows, lattice.within)
        assert build_instance(space).is_antichain


def test_antichain_detection():
    assert UpSets(antichain(3).up, 0b111).is_antichain
    assert not UpSets(chain(2).up, 0b11).is_antichain


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_up_sets_form_a_heyting_algebra(poset):
    """The Heyting laws, not a scan: inside the whole set and inside each
    element's up-set, the up-sets hold nothing and ``within`` and are closed
    under union and intersection, and ``implies`` is the right adjoint of
    meet (c <= a => b iff c & a <= b), with a => a the top and modus ponens
    a & (a => b) = a & b."""
    for within in ((1 << len(poset)) - 1, *poset.up):
        lattice = UpSets(poset.up, within)
        listed = lattice.listed
        assert listed[0] == 0 and listed[-1] == within
        for a, b in itertools.product(listed, repeat=2):
            assert a | b in lattice and a & b in lattice
            imp = lattice.implies(a, b)
            assert imp in lattice
            assert all((c & ~imp == 0) == (c & a & ~b == 0) for c in listed)
            assert a & imp == a & b
        assert all(lattice.implies(a, a) == within for a in listed)


def test_up_sets_of_the_empty_order_and_inside_nothing():
    """With no elements, or none inside ``within``, the lattice is the one
    set 0: size 1, an antichain, and 0 => 0 is 0."""
    for lattice in (UpSets((), 0), UpSets(chain(3).up, 0)):
        assert lattice.listed == (0,) and lattice.size == 1 and lattice.is_antichain
        assert 0 in lattice and 1 not in lattice and -1 not in lattice
        assert lattice.implies(0, 0) == 0


def test_discrete_order_lists_every_subset_in_counting_order():
    """The Boolean completion's lattice, the up-sets of the discrete order
    on k points, is every subset in ``range`` order, counted as 2^k
    without a listing; a => b is the Boolean ~a | b."""
    for k in range(7):
        whole = (1 << k) - 1
        lattice = UpSets(tuple(1 << i for i in range(k)), whole)
        assert lattice.is_antichain and lattice.size == 1 << k
        assert "listed" not in vars(lattice)
        assert lattice.listed == tuple(range(1 << k))
        for a, b in itertools.product(range(1 << min(k, 4)), repeat=2):
            assert lattice.implies(a, b) == (~a | b) & whole


# ---------------------------------------------------------------------------
# Subobjects


def test_constant_selection_is_a_subobject():
    p = chain(2)
    s = SubobjectOfConstant(p, frozenset({"x", "y"}), (frozenset({"x"}), frozenset({"x"})))
    ok, witnesses = is_subobject(s)
    assert ok and witnesses == ()


def test_shrinking_selection_is_not_a_subobject():
    p = chain(2)
    s = SubobjectOfConstant(p, frozenset({"x"}), (frozenset({"x"}), frozenset()))
    ok, witnesses = is_subobject(s)
    assert not ok
    assert witnesses == (("c0", "c1"),)


# ---------------------------------------------------------------------------
# Sieves and the classifier


def test_sieves_at_one_point():
    sieves = sieves_at(one_point(), "p")
    assert [s.bits for s in sieves] == [0, 1]


def test_sieves_on_a_chain():
    p = chain(2)
    assert len(sieves_at(p, "c0")) == 3  # {}, {c1}, {c0,c1}
    assert len(sieves_at(p, "c1")) == 2


def test_sieve_validation():
    p = chain(2)
    with pytest.raises(ValueError, match="above the anchor"):
        Sieve(p, "c1", 0b01)  # c0 is below the anchor
    with pytest.raises(ValueError, match="upward closed"):
        Sieve(p, "c0", 0b01)  # contains c0 but not c1


def test_sieve_rendering():
    p = chain(2)
    assert str(Sieve(p, "c0", 0b11)) == "@c0: [c0, c1]"
    assert str(Sieve(p, "c0", 0)) == "@c0: []"
    assert "c1" in Sieve(p, "c0", 0b10) and "c0" not in Sieve(p, "c0", 0b10)


def test_restriction_of_the_empty_sieve_is_empty():
    p = diamond()
    omega = classifier(p)
    empty = Sieve(p, "bot", 0)
    for q in p.elements:
        assert omega.transition(empty, q).bits == 0


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_classifier_functoriality(poset):
    omega = classifier(poset)
    assert classifier_functoriality_failures(omega) == ()


def functoriality_oracle(omega: SubobjectClassifier) -> tuple:
    """The route through validated sieves: every restriction by ``transition``."""
    poset = omega.poset
    failures = [
        (p, p, p)
        for p in poset.elements
        for sieve in omega.sieves(p)
        if omega.transition(sieve, p) != sieve
    ]
    for p, q, r in itertools.product(poset.elements, repeat=3):
        if poset.leq(p, q) and poset.leq(q, r):
            for sieve in omega.sieves(p):
                two_step = omega.transition(omega.transition(sieve, q), r)
                if two_step != omega.transition(sieve, r):
                    failures.append((p, q, r))
    return tuple(failures)


@pytest.mark.parametrize(
    "poset",
    poset_corpus() + [dual_order(build_mce_instance(algebra_of_size(3)).space)],
    ids=lambda p: f"P{len(p)}",
)
def test_functoriality_on_bits_matches_the_transition_route(poset):
    omega = classifier(poset)
    assert classifier_functoriality_failures(omega) == functoriality_oracle(omega) == ()
    # A fiber holding the sieves of a lower anchor fails the identity law.
    for i, j in itertools.product(range(len(poset)), repeat=2):
        if i != j and poset.up[j] >> i & 1:
            fibers = list(omega.fibers)
            fibers[i] = omega.fibers[j]
            bad = SubobjectClassifier(poset, tuple(fibers))
            failures = classifier_functoriality_failures(bad)
            assert failures == functoriality_oracle(bad)
            assert (poset.elements[i],) * 3 in failures


def assert_up_sets_match_the_submask_walk(poset: FinitePoset) -> None:
    """Oracle: every submask of an anchor's up-set, kept if upward closed.

    sieves_at builds its sieves without the up-set check, so each must
    also pass the public constructor's validation."""
    whole = (1 << len(poset)) - 1
    for i, anchor in enumerate(poset.elements):
        walk = [b for b in iter_submasks(poset.up[i]) if b in UpSets(poset.up, whole)]
        assert list(UpSets(poset.up, poset.up[i]).listed) == walk
        sieves = sieves_at(poset, anchor, cap=len(poset))
        assert [s.bits for s in sieves] == walk
        assert all(Sieve(poset, anchor, s.bits) == s for s in sieves)
    lattice = UpSets(poset.up, whole)
    assert list(lattice.listed) == [b for b in iter_submasks(whole) if b in lattice]


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_up_sets_and_sieves_match_the_submask_walk(poset):
    assert_up_sets_match_the_submask_walk(poset)


def permuted(poset: FinitePoset, order: tuple[int, ...]) -> FinitePoset:
    """The same order with its elements listed as ``order`` gives their indices."""
    position = {old: new for new, old in enumerate(order)}

    def moved(row: int) -> int:
        return sum(1 << position[j] for j in set_bits(row))

    return FinitePoset(
        tuple(poset.elements[i] for i in order), tuple(moved(poset.up[i]) for i in order)
    )


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_up_sets_and_sieves_match_the_submask_walk_in_any_element_order(poset):
    """Listed in reverse and in 20 shuffled orders, most of them not linear
    extensions (some element above a later one), the up-sets are still
    those of the submask walk, ascending."""
    k = len(poset)
    orders = [tuple(reversed(range(k)))]
    orders += [tuple(random.Random(seed).sample(range(k), k)) for seed in range(20)]
    extensions = 0
    for order in orders:
        listed = permuted(poset, order)
        extensions += all(row >> j == 1 for j, row in enumerate(listed.up))
        assert_up_sets_match_the_submask_walk(listed)
    assert extensions < len(orders) or UpSets(poset.up, (1 << k) - 1).is_antichain


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_up_sets_and_sieves_match_the_submask_walk_on_dual_spaces(data):
    space = build_instance(draw_dual_space(data, max_n=4)).space
    assert_up_sets_match_the_submask_walk(dual_order(space))


def test_sieve_enumeration_cap():
    with pytest.raises(CapExceeded):
        sieves_at(grid_2x3(), "g00", cap=4)


def test_restriction_requires_a_higher_anchor():
    p = chain(2)
    omega = classifier(p)
    top_sieve = sieves_at(p, "c1")[1]
    with pytest.raises(ValueError, match="above"):
        omega.transition(top_sieve, "c0")


def test_one_point_classifier_is_the_two_element_boolean_algebra():
    p = one_point()
    false_, true_ = sieves_at(p, "p")
    assert sieve_meet(true_, false_) == false_
    assert sieve_join(true_, false_) == true_
    assert sieve_meet(true_, true_) == true_
    assert sieve_implication(false_, false_) == true_  # negation of 0
    assert sieve_implication(true_, false_) == false_  # negation of 1
    assert sieve_implication(true_, true_) == true_


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_sieve_heyting_axioms(poset):
    for anchor in poset.elements:
        sieves = sieves_at(poset, anchor)
        for a, b in itertools.product(sieves, repeat=2):
            imp = sieve_implication(a, b)
            assert imp in sieves  # the implication is again a sieve
            assert sieve_meet(imp, a).bits & ~b.bits == 0
            for c in sieves:
                lhs = sieve_meet(c, a).bits & ~b.bits == 0
                rhs = c.bits & ~imp.bits == 0
                assert lhs == rhs


@pytest.mark.parametrize("poset", poset_corpus(), ids=lambda p: f"P{len(p)}")
def test_sieve_results_pass_the_checked_constructor(poset):
    """The sieve operations, restriction and the characteristic map build
    their results unchecked; each must still pass ``Sieve``'s validation."""
    omega = classifier(poset)
    results = []
    for p in poset.elements:
        sieves = omega.sieves(p)
        for a, b in itertools.product(sieves, repeat=2):
            results += [sieve_meet(a, b), sieve_join(a, b), sieve_implication(a, b)]
        above = [q for q in poset.elements if poset.leq(p, q)]
        results += [omega.transition(s, q) for s in sieves for q in above]
        for s in all_subobjects(poset, ("x",)):
            results.append(characteristic_map(s, p, "x"))
    assert all(Sieve(s.poset, s.at, s.bits) == s for s in results)


# ---------------------------------------------------------------------------
# Characteristic maps


def test_characteristic_map_reduces_to_the_indicator_on_one_point():
    p = one_point()
    s = SubobjectOfConstant(p, frozenset({"x", "y"}), (frozenset({"x"}),))
    assert characteristic_map(s, "p", "x").bits == 1
    assert characteristic_map(s, "p", "y").bits == 0


def test_characteristic_map_of_a_constant_selection():
    p = diamond()
    s = SubobjectOfConstant(
        p, frozenset({"x", "y"}), tuple(frozenset({"x"}) for _ in range(4))
    )
    for anchor in p.elements:
        i = p.index(anchor)
        assert characteristic_map(s, anchor, "x").bits == p.up[i]
        assert characteristic_map(s, anchor, "y").bits == 0


def test_characteristic_map_on_a_chain():
    p = chain(2)
    s = SubobjectOfConstant(p, frozenset({"x"}), (frozenset(), frozenset({"x"})))
    sieve = characteristic_map(s, "c0", "x")
    assert sieve.members == ("c1",)


def test_characteristic_map_rejects_non_subobjects():
    p = chain(2)
    s = SubobjectOfConstant(p, frozenset({"x"}), (frozenset({"x"}), frozenset()))
    with pytest.raises(NotASubobject):
        characteristic_map(s, "c0", "x")


def all_subobjects(poset: FinitePoset, ambient: tuple) -> list[SubobjectOfConstant]:
    """Every monotone selection: each ambient element picks an upper set."""
    n = len(poset)
    upper_sets = [
        bits
        for bits in range(1 << n)
        if all(poset.up[i] & bits == poset.up[i] for i in range(n) if bits >> i & 1)
    ]
    out = []
    for assignment in itertools.product(upper_sets, repeat=len(ambient)):
        selections = tuple(
            frozenset(
                x for x, bits in zip(ambient, assignment) if bits >> i & 1
            )
            for i in range(n)
        )
        out.append(SubobjectOfConstant(poset, frozenset(ambient), selections))
    return out


@pytest.mark.parametrize(
    "poset", [one_point(), chain(2), chain(3), antichain(3), diamond(), n_poset()],
    ids=lambda p: f"P{len(p)}",
)
def test_characteristic_naturality_exhaustively(poset):
    for s in all_subobjects(poset, ("x", "y")):
        ok, _ = is_subobject(s)
        assert ok
        assert naturality_failures_oracle(s) == ()


def test_characteristic_naturality_on_the_grid():
    poset = grid_2x3()
    # principal upper-set selections keep the corpus exhaustive yet small
    for i in range(len(poset)):
        bits = poset.up[i]
        s = SubobjectOfConstant(
            poset,
            frozenset({"x"}),
            tuple(frozenset({"x"}) if bits >> j & 1 else frozenset() for j in range(len(poset))),
        )
        assert naturality_failures_oracle(s) == ()


def naturality_failures_oracle(s: SubobjectOfConstant) -> tuple:
    """Triples (p, q, x), p <= q, where χ(p, x) restricted to q is not
    χ(q, x): two ``characteristic_map`` calls per triple.  Empty on every
    transitive order (see ``characteristic_map``), which the exhaustive
    tests confirm cell by cell."""
    failures = []
    poset = s.poset
    for i, row in enumerate(poset.up):
        for j in set_bits(row):
            for x in sorted(s.ambient, key=str):
                at_q = characteristic_map(s, poset.elements[j], x)
                restricted = characteristic_map(s, poset.elements[i], x).bits & poset.up[j]
                if at_q.bits != restricted:
                    failures.append((poset.elements[i], poset.elements[j], x))
    return tuple(failures)


def test_characteristic_maps_check_monotonicity_once_across_calls(monkeypatch):
    """Every χ cell of one subobject reads one verdict, decided on the first call."""
    calls = []
    plain = topos_oracle.is_subobject
    monkeypatch.setattr(topos_oracle, "is_subobject", lambda s: calls.append(s) or plain(s))
    instance = build_mce_instance(algebra_of_size(3))
    s = support_subobject(instance.space)
    cells = [characteristic_map(s, phi, ev) for phi in s.poset.elements for ev in s.ambient]
    assert len(cells) == 56 and len(calls) == 1
    bad = SubobjectOfConstant(chain(2), frozenset({"x"}), (frozenset({"x"}), frozenset()))
    for _ in range(3):
        with pytest.raises(NotASubobject):
            characteristic_map(bad, "c0", "x")
    assert len(calls) == 2


def is_subobject_oracle(poset: FinitePoset, selections: tuple) -> tuple:
    """The pairwise walk over comparable pairs, one subset test per pair."""
    witnesses = [
        (poset.elements[i], poset.elements[j])
        for i, row in enumerate(poset.up)
        for j in set_bits(row & ~(1 << i))
        if not selections[i] <= selections[j]
    ]
    return not witnesses, tuple(witnesses)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_is_subobject_matches_the_pairwise_walk(data):
    """Same verdict and the same witnesses, in the same order, as the
    pairwise subset walk, on any reflexive relation built unchecked; the
    selections and the ambient set read back as given."""
    n = data.draw(st.integers(1, 5), label="n")
    up = tuple(
        1 << i | data.draw(st.integers(0, (1 << n) - 1), label=f"up[{i}]") for i in range(n)
    )
    poset = unchecked(FinitePoset, elements=tuple(f"e{i}" for i in range(n)), up=up)
    ambient = frozenset(data.draw(st.sets(st.sampled_from("xyzw")), label="ambient"))
    pick = st.sets(st.sampled_from(sorted(ambient))) if ambient else st.just(set())
    selections = tuple(frozenset(data.draw(pick, label=f"sel[{i}]")) for i in range(n))
    s = SubobjectOfConstant(poset, ambient, selections)
    assert is_subobject(s) == is_subobject_oracle(poset, selections)
    assert s.ambient == ambient
    assert [s.selection(p) for p in poset.elements] == list(selections)


def test_subobject_constructor_checks():
    p = chain(2)
    with pytest.raises(ValueError, match="one selection per poset element"):
        SubobjectOfConstant(p, frozenset({"x"}), (frozenset({"x"}),))
    with pytest.raises(ValueError, match="subsets of the ambient set"):
        SubobjectOfConstant(p, frozenset({"x"}), (frozenset({"x"}), frozenset({"y"})))
    s = SubobjectOfConstant(p, frozenset({"x"}), (frozenset(), frozenset({"x"})))
    with pytest.raises(ValueError, match="not in the ambient set"):
        characteristic_map(s, "c0", "y")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("include_empty", [False, True])
def test_support_selection_is_each_members_support(n, include_empty):
    inst = build_mce_instance(algebra_of_size(n), include_empty_dual=include_empty)
    space = inst.algebra.space
    s = support_subobject(inst.space)
    assert s.ambient == frozenset(inst.algebra.events())
    for phi in inst.space.members:
        assert s.selection(phi) == frozenset(Event(space, m) for m in phi.support)


# ---------------------------------------------------------------------------
# The instance over the dual-ordered coevents


def test_mce_instance_order_at_n2(coin_algebra):
    inst = build_mce_instance(coin_algebra)
    omega_star = dual_of_event(coin_algebra.full)
    h_star = dual_of_event(coin_algebra.event_from_labels(["h"]))
    poset = dual_order(inst.space)
    assert poset.leq(omega_star, h_star)  # full event's dual is the bottom
    assert not poset.leq(h_star, omega_star)
    assert not inst.is_antichain


def test_mce_instance_vsupp_monotone_example(coin_algebra):
    inst = build_mce_instance(coin_algebra)
    omega_star = dual_of_event(coin_algebra.full)
    h_star = dual_of_event(coin_algebra.event_from_labels(["h"]))
    sel_omega = support_subobject(inst.space).selection(omega_star)
    sel_h = support_subobject(inst.space).selection(h_star)
    assert sel_omega == frozenset({coin_algebra.full})
    assert sel_h == frozenset({coin_algebra.event_from_labels(["h"]), coin_algebra.full})
    assert sel_omega <= sel_h


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("include_empty", [False, True])
def test_vsupp_is_a_subobject(n, include_empty):
    inst = build_mce_instance(algebra_of_size(n), include_empty_dual=include_empty)
    ok, witnesses = is_subobject(support_subobject(inst.space))
    assert ok and witnesses == ()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dual_order_rows_are_principal_containment(data):
    space = draw_dual_space(data, max_n=4)
    principals = [phi.principal_mask for phi in space.members]
    poset = dual_order(build_instance(space).space)
    assert poset.elements == space.members
    for i, p in enumerate(principals):
        # p* <= q* iff q is inside p
        assert poset.up[i] == sum(1 << j for j, q in enumerate(principals) if q & p == q)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_dual_order_passes_the_checked_constructor(data):
    """An instance builds the dual order without FinitePoset's law
    checks and indexes it lazily; the validated constructor accepts the
    same rows, and the index is the space's, with or without the
    constant-one map."""
    drawn = draw_dual_space(data, max_n=5)
    alg = drawn.algebra
    members = [phi for phi in drawn.members if phi.principal_mask != 0]
    if data.draw(st.booleans(), label="with the constant-one map"):
        members.append(dual_of_event(alg.empty, include_empty_dual=True))
    space = CoeventSpace.build(alg, members, "user-supplied")
    poset = dual_order(build_instance(space, cap=5).space)
    assert poset == FinitePoset(space.members, poset.up)
    assert all(poset.index(phi) == space.index_of(phi) for phi in space.members)


def test_library_orders_skip_the_poset_checks(capsys, monkeypatch):
    """On all duals, building an instance, the Heyting implication and both
    forms of the topos verb run no FinitePoset validation; the public
    constructors still do, and a space still refuses a repeated member."""
    checked = []
    validate = FinitePoset.__post_init__

    def spied(poset):
        checked.append(poset.elements)
        validate(poset)

    monkeypatch.setattr(FinitePoset, "__post_init__", spied)
    alg = algebra_of_size(4)
    build_instance(enumerate_multiplicative(alg, include_empty_dual=True))
    build_mce_instance(alg)
    space = enumerate_multiplicative(algebra_of_size(3))
    completion = complete(space, "upper")
    for alpha in completion.members:
        heyting_implication(alpha, completion.members[0], completion)
    theory = str(THEORIES / "four_slit_decoherence.json")
    for argv in (["topos", theory], ["topos", theory, "--context", "a,b", "--event", "a"]):
        assert run(argv) == 0
    assert "@{a,b}*: [{a}*]" in capsys.readouterr().out
    assert checked == []

    two = FinitePoset(("x", "y"), (0b11, 0b10))
    assert FinitePoset.from_pairs(("x", "y"), [("x", "y")]) == two
    assert checked == [("x", "y")] * 2
    phi = dual_of_event(alg.full)
    with pytest.raises(ValueError, match="members must be distinct"):
        CoeventSpace(alg, [phi, phi])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_support_verdict_matches_is_subobject(data):
    space = draw_dual_space(data, max_n=4)
    inst = build_instance(space)
    poset = dual_order(inst.space)
    assert poset.elements == space.members and poset.up is space.up_rows
    assert is_subobject(support_subobject(inst.space)) == (True, ())
    whole = (1 << len(space)) - 1
    assert all(row in UpSets(poset.up, whole) for row in space.tau_table)
    # Under an arbitrary order on the members the selection may fail to be
    # monotone: it is a subobject iff every tau row is an up-set of that order.
    members = space.members
    pairs = data.draw(
        st.sets(st.tuples(st.sampled_from(members), st.sampled_from(members))),
        label="covers",
    )
    order = FinitePoset.from_pairs(
        members, [(a, b) for a, b in pairs if space.index_of(a) < space.index_of(b)]
    )
    events = tuple(space.algebra.events())
    selections = [[a for a in events if phi(a)] for phi in members]
    ok = is_subobject(SubobjectOfConstant(order, events, selections))[0]
    assert ok == all(row in UpSets(order.up, whole) for row in space.tau_table)


def test_an_instance_is_its_space_and_builds_its_order_on_first_read():
    """The instance holds its space alone and no order of its own: neither
    the members nor the dual order exist until a sieve reads the space's
    ``up_rows``, and the order is built once.  The general-order objects
    are the tests' oracle, not the library's."""
    assert CoeventToposInstance._fields == ("space",)
    space = enumerate_multiplicative(algebra_of_size(3))
    inst = build_instance(space)
    assert "members" not in vars(space) and "up_rows" not in vars(space)
    topos_module.sieves_at(inst.space, space.members[0])
    rows = space.up_rows
    assert rows is inst.space.up_rows and rows == dual_order(space).up
    assert not hasattr(inst, "poset") and not hasattr(inst, "support_subobject")
    assert not hasattr(topos_module, "poset_of_coevents")
    moved = "FinitePoset SubobjectOfConstant SubobjectClassifier is_subobject characteristic_map"
    for name in [*moved.split(), "sieve_meet", "sieve_join", "sieve_implication"]:
        assert not hasattr(topos_module, name) and not hasattr(poset_module, name)
    for name in ("up_sets", "implication", "is_up_set", "is_antichain"):
        assert not hasattr(FinitePoset, name)


def test_mce_instance_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the duals before checking the cap")

    monkeypatch.setattr(topos_module, "enumerate_multiplicative", refuse)
    alg = EventAlgebra(SampleSpace(tuple(f"x{i}" for i in range(5))))
    with pytest.raises(CapExceeded):
        build_mce_instance(alg)


def chi_oracle(inst, phi, event) -> set[int]:
    """Third route: duals of nonempty subsets of A meet phi's principal event."""
    principal = min(phi.support, key=int.bit_count)
    both = event.mask & principal
    out = set()
    for j, psi in enumerate(inst.space.members):
        q = min(psi.support, key=int.bit_count)
        if q != 0 and q & both == q:
            out.add(j)
        if q == 0 and 0 in psi.support:  # the constant-one member is everywhere
            out.add(j)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("include_empty", [False, True])
def test_chi_two_routes_and_oracle(n, include_empty):
    alg = algebra_of_size(n)
    inst = build_mce_instance(alg, include_empty_dual=include_empty)
    for phi in inst.space.members:
        for mask in range(alg.size):
            ev = alg.event(mask)
            sieve = chi_vsupp(inst, phi, ev)
            principal = dual_of_coevent(phi, include_empty_dual=True)
            assert sieve.bits == tau(ev & principal, inst.space).bits
            expected = chi_oracle(inst, phi, ev)
            assert {j for j in range(len(inst.space)) if sieve.bits >> j & 1} == expected


def same_sieve(sieve: topos_module.Sieve, expected: Sieve) -> bool:
    """A library sieve over a space and the oracle's over its dual order
    are the same truth value: the same anchor, bits, members and string."""
    return (sieve.at, sieve.bits, sieve.members, str(sieve)) == (
        expected.at, expected.bits, expected.members, str(expected)
    )


def assert_chi_is_the_characteristic_map(inst) -> None:
    for phi in inst.space.members:
        for ev in inst.algebra.events():
            expected = characteristic_map(support_subobject(inst.space), phi, ev)
            assert same_sieve(chi_vsupp(inst, phi, ev), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("include_empty", [False, True])
def test_chi_matches_characteristic_map_on_mce_instances(n, include_empty):
    assert_chi_is_the_characteristic_map(
        build_mce_instance(algebra_of_size(n), include_empty_dual=include_empty)
    )


@settings(max_examples=50, deadline=None)
@given(amplitudes=st.lists(st.integers(-2, 2), min_size=1, max_size=4))
def test_chi_matches_characteristic_map_on_scheme_instances(amplitudes):
    space = SampleSpace(tuple("abcd"[: len(amplitudes)]))
    m = Measure.from_amplitudes(space, [GaussianRational.real(x) for x in amplitudes])
    assert_chi_is_the_characteristic_map(build_scheme_instance(m))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chi_matches_the_tau_route_on_random_dual_spaces(data):
    space = draw_dual_space(data, max_n=5)
    alg = space.algebra
    inst = build_instance(space, cap=alg.space.n)
    phi = data.draw(st.sampled_from(space.members), label="context")
    ev = alg.event(data.draw(st.integers(0, alg.size - 1), label="event"))
    principal = dual_of_coevent(phi, include_empty_dual=True)
    assert chi_vsupp(inst, phi, ev).bits == tau(ev & principal, space).bits


def test_chi_examples(coin_algebra):
    inst = build_mce_instance(coin_algebra)
    a_star = dual_of_event(coin_algebra.event_from_labels(["h"]))
    omega_star = dual_of_event(coin_algebra.full)
    b = coin_algebra.event_from_labels(["t"])
    assert chi_vsupp(inst, a_star, b).bits == 0  # false at every context above
    sieve = chi_vsupp(inst, omega_star, coin_algebra.event_from_labels(["h"]))
    assert [str(e) for e in sieve.members] == ["{h}*"]
    for phi in inst.space.members:
        top = chi_vsupp(inst, phi, coin_algebra.full)
        i = inst.space.index_of(phi)
        assert top.bits == inst.space.up_rows[i]  # totally true


# ---------------------------------------------------------------------------
# The scheme instance


def test_scheme_instance_three_slit_is_one_point():
    inst = build_scheme_instance(three_slit())
    assert len(inst.space) == 1
    assert inst.is_antichain
    point = inst.space.members[0]
    assert [len(s) for s in (topos_module.sieves_at(inst.space, point),)] == [2]


def test_scheme_instance_four_slit_is_a_three_point_antichain():
    inst = build_scheme_instance(four_slit())
    assert len(inst.space) == 3
    assert inst.is_antichain
    # anti-chain: sieves at every point collapse to the two truth values
    for phi in inst.space.members:
        assert len(topos_module.sieves_at(inst.space, phi)) == 2
    omega = topos_module.classifier(inst.space)
    assert topos_module.classifier_functoriality_failures(omega) == ()


def test_scheme_instance_chi_still_cross_checks():
    inst = build_scheme_instance(four_slit())
    alg = inst.algebra
    for phi in inst.space.members:
        for mask in range(alg.size):
            ev = alg.event(mask)
            via_tau = tau(ev & dual_of_coevent(phi, include_empty_dual=True), inst.space)
            assert chi_vsupp(inst, phi, ev).bits == via_tau.bits


# ---------------------------------------------------------------------------
# The library's topos against the general-order oracle


def draw_null_family_scheme(data, max_n: int) -> CoeventSpace:
    """The scheme of a measure whose null events are a drawn family (the
    empty event among them): 0 on the family, 1 elsewhere."""
    alg = algebra_of_size(data.draw(st.integers(1, max_n), label="n"))
    null = data.draw(st.sets(st.integers(1, alg.size - 1)), label="null events") | {0}
    return multiplicative_scheme(Measure(alg, {a: int(a not in null) for a in range(alg.size)}))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_library_topos_is_the_oracle_on_the_dual_order(data):
    """On random spaces of nonzero duals, all duals and schemes of random null
    families, at n <= 4: χ at every (context, event), the sieves at each
    member, the classifier's fibers, the sieve counts and the antichain test
    equal the general-order oracle's, built through the checked
    ``FinitePoset(members, up_rows)``, the support selection as a
    ``SubobjectOfConstant`` and ``characteristic_map``."""
    kind = data.draw(st.sampled_from(["drawn", "all duals", "scheme"]), label="space")
    if kind == "drawn":
        space = draw_dual_space(data, max_n=4)
    elif kind == "all duals":
        alg = algebra_of_size(data.draw(st.integers(1, 4), label="n"))
        space = enumerate_multiplicative(alg, data.draw(st.booleans(), label="with the empty dual"))
    else:
        space = draw_null_family_scheme(data, max_n=4)
    inst = build_instance(space)
    s = support_subobject(space)  # over FinitePoset(members, up_rows), checked
    poset = s.poset
    for phi in space.members:
        for ev in space.algebra.events():
            assert same_sieve(chi_vsupp(inst, phi, ev), characteristic_map(s, phi, ev))
    cap = len(space)
    omega = classifier(poset, cap=cap)
    fibers = topos_module.classifier(space, cap=cap)
    assert len(fibers) == len(omega.fibers)
    for phi, fiber, expected in zip(space.members, fibers, omega.fibers):
        assert fiber == topos_module.sieves_at(space, phi, cap=cap)
        assert len(fiber) == len(expected)
        assert all(same_sieve(a, b) for a, b in zip(fiber, expected))
    assert topos_module.sieve_counts(space) == [len(fiber) for fiber in omega.fibers]
    comparable = any(poset.leq(p, q) for p, q in itertools.permutations(space.members, 2))
    assert inst.is_antichain == topos_module.is_antichain(space) == (not comparable)


def test_one_chi_query_on_all_duals_at_n16_builds_no_member_row_or_table():
    """χ at ({a,b}*, {a}) over the 65,535 duals of amplitudes_16.json reads
    one tau row: the space's members, up-set rows and tau table stay unbuilt."""
    theory = load(ROOT / "tests" / "golden" / "theories" / "amplitudes_16.json")
    alg = theory.algebra
    inst = build_mce_instance(alg, cap=16)
    phi = dual_of_event(alg.event_from_labels(["a", "b"]))
    sieve = chi_vsupp(inst, phi, alg.event_from_labels(["a"]))
    assert (sieve.at, sieve.bits) == (phi, 1)  # {a}*, the first member, alone
    assert not {"members", "up_rows", "tau_table"} & vars(inst.space).keys()
