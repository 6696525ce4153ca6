from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from coevents import (
    CapExceeded,
    Coevent,
    CoeventSpace,
    EmptyEventDual,
    EventAlgebra,
    GaussianRational,
    Measure,
    NotMultiplicative,
    SampleSpace,
    ZeroCoevent,
    check_modus_ponens,
    classical_from_history,
    classical_preclusive_set,
    dual_of_coevent,
    dual_of_event,
    enumerate_coevents,
    enumerate_multiplicative,
    is_classical,
    is_filter,
    is_multiplicative,
    is_preclusive,
    multiplicative_scheme,
)
from coevents.catalog import dirac, fair_coin, four_slit, three_slit
from coevents.cli import section_coevents
from coevents.coevent import (
    _preclusive_bits,
    enumerate_classical,
    preclusive_key,
    render_key,
)
from coevents.eventalg import Event, EventFamily, iter_supermasks, set_bits
from coevents.measure import null_cover_exists, null_sets
from coevents.theoryfile import HistoriesTheory, TheoryOptions

from conftest import algebra_of_size, support_key
from test_beables import dual_spaces, mixed_spaces


def zero_coevent(alg: EventAlgebra) -> Coevent:
    return Coevent(alg, frozenset())


def constant_one(alg: EventAlgebra) -> Coevent:
    return Coevent(alg, frozenset(range(alg.size)))


# ---------------------------------------------------------------------------
# Evaluation and classical coevents


def test_evaluate_examples(coin_algebra):
    h_star = dual_of_event(coin_algebra.event_from_labels(["h"]))
    assert h_star(coin_algebra.full) == 1
    assert h_star(coin_algebra.event_from_labels(["t"])) == 0
    assert zero_coevent(coin_algebra)(coin_algebra.full) == 0


def test_evaluate_rejects_foreign_events(coin_algebra, abc_algebra):
    from coevents import MismatchedSpace

    h_star = dual_of_event(coin_algebra.event_from_labels(["h"]))
    with pytest.raises(MismatchedSpace):
        h_star(abc_algebra.full)


@pytest.mark.parametrize("mask", [-1, 4])
def test_support_masks_must_lie_in_the_algebra(coin_algebra, mask):
    with pytest.raises(ValueError, match="outside the algebra"):
        Coevent(coin_algebra, frozenset([0, mask]))
    Coevent(coin_algebra, frozenset([0, 3]))


def test_is_preclusive_rejects_foreign_measures(abc_algebra):
    from coevents import MismatchedSpace

    fc = fair_coin()
    phi = dual_of_event(abc_algebra.full)
    with pytest.raises(MismatchedSpace):
        is_preclusive(phi, fc)


def test_classical_from_history(coin_algebra, abc_algebra):
    h = classical_from_history(coin_algebra, "h")
    assert h.support == {1, 3}
    a = classical_from_history(abc_algebra, "a")
    assert a(abc_algebra.event_from_labels(["b", "c"])) == 0


def test_classical_support_size(small_algebra):
    for lab in small_algebra.space.labels:
        phi = classical_from_history(small_algebra, lab)
        assert len(phi.support) == small_algebra.size // 2


def test_is_classical_examples(coin_algebra):
    assert is_classical(classical_from_history(coin_algebra, "h"))
    assert not is_classical(dual_of_event(coin_algebra.full))  # fails joins
    assert not is_classical(zero_coevent(coin_algebra))


@pytest.mark.parametrize("n", [2, 3])
def test_classical_census_by_brute_force(n):
    alg = algebra_of_size(n)
    everything = enumerate_coevents(alg)
    found = {support_key(phi) for phi in everything if is_classical(phi)}
    expected = {
        support_key(classical_from_history(alg, lab)) for lab in alg.space.labels
    }
    assert found == expected
    assert len(found) == n


# ---------------------------------------------------------------------------
# Multiplicativity and the duality


def test_is_multiplicative_examples(coin_algebra):
    assert is_multiplicative(dual_of_event(coin_algebra.event_from_labels(["h"])))
    bad = Coevent(coin_algebra, frozenset([1, 2, 3]))  # {h}, {t}, full
    assert not is_multiplicative(bad)
    assert is_multiplicative(classical_from_history(coin_algebra, "h"))


def test_constant_one_map_is_convention_dependent(coin_algebra):
    one = constant_one(coin_algebra)
    assert not is_multiplicative(one)
    assert is_multiplicative(one, include_empty_dual=True)


def test_duality_examples(abc_algebra):
    ab = abc_algebra.event_from_labels(["a", "b"])
    phi = dual_of_event(ab)
    assert phi(abc_algebra.full) == 1
    assert phi(abc_algebra.event_from_labels(["a"])) == 0
    assert dual_of_coevent(phi) == ab
    full_dual = dual_of_event(abc_algebra.full)
    assert full_dual.support == {abc_algebra.space.full_mask}


def test_duality_involution_exhaustive(small_algebra):
    alg = small_algebra
    for mask in range(1, alg.size):
        ev = alg.event(mask)
        assert dual_of_coevent(dual_of_event(ev)) == ev
    for phi in enumerate_multiplicative(alg):
        assert dual_of_event(dual_of_coevent(phi)) == phi


@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_duality_involution_random(data, n):
    alg = EventAlgebra(SampleSpace(tuple(f"x{i}" for i in range(n))))
    mask = data.draw(st.integers(min_value=1, max_value=alg.size - 1))
    ev = alg.event(mask)
    assert dual_of_coevent(dual_of_event(ev)) == ev


def test_dual_errors(coin_algebra):
    with pytest.raises(EmptyEventDual):
        dual_of_event(coin_algebra.empty)
    with pytest.raises(ZeroCoevent):
        dual_of_coevent(zero_coevent(coin_algebra))
    bad = Coevent(coin_algebra, frozenset([1, 2, 3]))
    with pytest.raises(NotMultiplicative):
        dual_of_coevent(bad)
    with pytest.raises(NotMultiplicative):
        dual_of_coevent(constant_one(coin_algebra))
    assert dual_of_coevent(constant_one(coin_algebra), include_empty_dual=True).is_empty


def test_empty_dual_is_the_constant_one_map(coin_algebra):
    phi = dual_of_event(coin_algebra.empty, include_empty_dual=True)
    assert phi.support == frozenset(range(coin_algebra.size))


def test_enumerate_multiplicative_counts():
    assert len(enumerate_multiplicative(algebra_of_size(2))) == 3
    assert len(enumerate_multiplicative(algebra_of_size(3))) == 7
    assert len(enumerate_multiplicative(algebra_of_size(3), include_empty_dual=True)) == 8


def test_enumerate_multiplicative_canonical_order(coin_algebra):
    assert str(enumerate_multiplicative(coin_algebra)) == "[{h}*, {t}*, {h,t}*]"


@pytest.mark.parametrize("n", [2, 3])
def test_multiplicative_census_by_brute_force(n):
    alg = algebra_of_size(n)
    everything = enumerate_coevents(alg)

    strict = {support_key(phi) for phi in everything if is_multiplicative(phi)}
    expected_strict = {
        support_key(phi) for phi in enumerate_multiplicative(alg)
    } | {support_key(zero_coevent(alg))}
    assert strict == expected_strict

    literal = {
        support_key(phi)
        for phi in everything
        if is_multiplicative(phi, include_empty_dual=True)
    }
    expected_literal = {
        support_key(phi)
        for phi in enumerate_multiplicative(alg, include_empty_dual=True)
    } | {support_key(zero_coevent(alg))}
    assert literal == expected_literal
    assert literal - strict == {support_key(constant_one(alg))}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonzero_multiplicative_iff_filter_support(n):
    alg = algebra_of_size(n)
    for phi in enumerate_coevents(alg):
        lhs = is_multiplicative(phi, include_empty_dual=True) and not phi.is_zero
        rhs = is_filter(EventFamily(alg.space, phi.support))[0]
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_implies_multiplicative(n):
    alg = algebra_of_size(n)
    for phi in enumerate_coevents(alg):
        if is_classical(phi):
            assert is_multiplicative(phi)


# ---------------------------------------------------------------------------
# The principal-mask closed forms against their pairwise definitions


def filter_principal(masks: frozenset[int], n: int) -> int | None:
    """Oracle: the mask p with ``masks`` exactly the supersets of p, else None.

    Each of the distinct masks contains their intersection p, so they lie
    inside the 2^(n - |p|) supersets of p and are all of them iff there
    are that many.
    """
    if not masks:
        return None
    p = (1 << n) - 1
    for m in masks:
        p &= m
    return p if len(masks) == 1 << (n - p.bit_count()) else None


def filter_oracle(support: frozenset[int], full: int) -> bool:
    """Nonempty, upward closed and closed under intersection, pair by pair."""
    return (
        bool(support)
        and all(s in support for m in support for s in iter_supermasks(m, full))
        and all(a & b in support for a in support for b in support)
    )


def multiplicative_oracle(phi: Coevent, include_empty_dual: bool) -> bool:
    size = phi.algebra.size
    v = [1 if m in phi.support else 0 for m in range(size)]
    meets = all(v[a & b] == v[a] * v[b] for a in range(size) for b in range(size))
    return meets and (include_empty_dual or v[0] == 0)


def classical_oracle(phi: Coevent) -> bool:
    size, full = phi.algebra.size, phi.algebra.space.full_mask
    v = [1 if m in phi.support else 0 for m in range(size)]
    return all(
        v[a ^ full] == 1 - v[a]
        and all(v[a & b] == v[a] & v[b] and v[a | b] == v[a] | v[b] for b in range(size))
        for a in range(size)
    )


@st.composite
def supports(draw, alg=None):
    """An algebra of n <= 5 histories, unless one is given, and a support on
    it: random, or a filter of supersets with nothing, one mask added or one
    removed."""
    if alg is None:
        n = draw(st.integers(1, 5), label="n")
        alg = EventAlgebra(SampleSpace(tuple("abcde"[:n])))
    full = alg.space.full_mask
    kind = draw(st.sampled_from(["random", "filter", "plus one", "minus one"]), label="kind")
    if kind == "random":
        return alg, frozenset(draw(st.sets(st.integers(0, full))))
    support = set(iter_supermasks(draw(st.integers(0, full), label="p"), full))
    if kind == "plus one":
        support.add(draw(st.integers(0, full), label="added"))
    elif kind == "minus one":
        support.discard(draw(st.sampled_from(sorted(support)), label="removed"))
    return alg, frozenset(support)


@settings(max_examples=300, deadline=None)
@given(drawn=supports())
def test_principal_mask_predicates_match_pairwise_definitions(drawn):
    alg, support = drawn
    phi = Coevent(alg, support)
    is_a_filter = filter_oracle(support, alg.space.full_mask)
    ok, principal = is_filter(EventFamily(alg.space, support))
    assert ok == is_a_filter
    assert (phi.principal_mask is not None) == is_a_filter
    if is_a_filter:
        meet = alg.space.full_mask
        for m in support:
            meet &= m
        assert principal.mask == phi.principal_mask == meet
        assert dual_of_coevent(phi, include_empty_dual=True).mask == meet
        assert str(phi) == f"{principal}*"
    for include_empty_dual in (False, True):
        assert is_multiplicative(phi, include_empty_dual) == multiplicative_oracle(
            phi, include_empty_dual
        )
    assert is_classical(phi) == classical_oracle(phi)


def test_brute_force_cap():
    with pytest.raises(CapExceeded) as exc:
        enumerate_coevents(algebra_of_size(4))
    assert (exc.value.limit, exc.value.override) == (3, "--cap")
    assert len(enumerate_coevents(algebra_of_size(4), cap=4)) == 1 << 16
    with pytest.raises(CapExceeded) as exc:  # the hard cap: no cap argument lifts it
        enumerate_coevents(EventAlgebra(SampleSpace(tuple(f"x{i}" for i in range(5)))), cap=8)
    assert (exc.value.limit, exc.value.override) == (4, None)
    assert str(exc.value).endswith("size 5 exceeds cap 4 (hard cap, no override)")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_brute_force_enumeration_is_the_sorted_space_of_every_support(n):
    """The supports are made in canonical order and unchecked; the sorting,
    checking route of ``CoeventSpace.build`` must give the same space."""
    alg = algebra_of_size(n)
    everything = enumerate_coevents(alg)
    reference = CoeventSpace.build(
        alg, [Coevent(alg, set_bits(code)) for code in range(1 << alg.size)], "all"
    )
    assert everything.members == reference.members
    assert everything.provenance == "all"


# ---------------------------------------------------------------------------
# Preclusivity and the scheme


def test_is_preclusive_examples():
    fc = fair_coin()
    assert is_preclusive(classical_from_history(fc.algebra, "h"), fc)
    ts = three_slit()
    assert not is_preclusive(classical_from_history(ts.algebra, "1"), ts)
    assert is_preclusive(dual_of_event(ts.algebra.event_from_labels(["1", "2"])), ts)


def test_classical_preclusive_set_examples():
    fc = fair_coin()
    assert str(classical_preclusive_set(fc)) == "[{h}*, {t}*]"
    assert len(classical_preclusive_set(three_slit())) == 0
    d = dirac(("a", "b", "c"), "b")
    assert str(classical_preclusive_set(d)) == "[{b}*]"


def scheme_oracle(measure) -> set[tuple[int, ...]]:
    """Independent route: minimal preclusive duals by direct definition."""
    alg = measure.algebra
    preclusive = [
        mask
        for mask in range(1, alg.size)
        if is_preclusive(dual_of_event(alg.event(mask)), measure)
    ]
    keep = set()
    for mask in preclusive:
        if not any(other != mask and other & mask == other for other in preclusive):
            keep.add(support_key(dual_of_event(alg.event(mask))))
    return keep


@st.composite
def measures_with_zeros(draw, max_n: int = 5, space: Optional[SampleSpace] = None) -> Measure:
    """An exact measure over n <= max_n histories, or over ``space`` if one is
    given, from amplitudes in {-1, 0, 1} (so interference makes some zeros),
    with more zeros injected at random events; the empty event is null or not."""
    if space is None:
        space = SampleSpace(tuple("abcde"[: draw(st.integers(1, max_n), label="n")]))
    n = space.n
    amps = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n), label="amplitudes")
    m = Measure.from_amplitudes(space, [GaussianRational.real(a) for a in amps])
    zeros = draw(st.frozensets(st.integers(0, (1 << n) - 1)), label="zeros")
    values = {mask: Fraction(0) if mask in zeros else v for mask, v in m.values.items()}
    values[0] = draw(st.sampled_from([Fraction(0), Fraction(1)]), label="empty value")
    return Measure(m.algebra, values)


def preclusive_dual_events(m: Measure) -> EventFamily:
    """The nonempty events whose dual is preclusive, read from the null
    sets' down-closure (``_preclusive_bits``)."""
    return EventFamily(m.algebra.space, set_bits(_preclusive_bits(m)))


@settings(max_examples=300, deadline=None)
@given(m=measures_with_zeros())
def test_preclusive_duals_and_scheme_match_pairwise_definitions(m):
    alg = m.algebra
    preclusive = [
        mask
        for mask in range(1, alg.size)
        if is_preclusive(dual_of_event(alg.event(mask)), m)
    ]
    assert preclusive_dual_events(m).masks == tuple(preclusive)
    scheme = multiplicative_scheme(m)
    assert [support_key(phi) for phi in scheme] == sorted(scheme_oracle(m))
    assert scheme.provenance == "scheme"
    classical = [phi for phi in enumerate_classical(alg) if is_preclusive(phi, m)]
    assert classical_preclusive_set(m).members == tuple(classical)


@settings(max_examples=300, deadline=None)
@given(m=measures_with_zeros(), data=st.data())
def test_null_reads_match_a_rescan_of_the_values(m, data):
    """is_preclusive, null_sets and null_cover_exists read the measure's
    cached null masks; each is checked against a fresh scan of m.values."""
    alg = m.algebra
    events = st.integers(0, alg.size - 1)
    if data.draw(st.booleans(), label="dual"):
        phi = dual_of_event(alg.event(data.draw(events, label="p")), include_empty_dual=True)
    else:
        phi = Coevent(alg, data.draw(st.frozensets(events), label="support"))
    nulls = [mask for mask, v in m.values.items() if v == 0]
    assert is_preclusive(phi, m) == all(mask not in phi.support for mask in nulls)
    assert null_sets(m).masks == tuple(sorted(nulls))
    covered = 0
    for mask in nulls:
        covered |= mask
    assert null_cover_exists(m) == (covered == alg.space.full_mask)


@pytest.mark.parametrize(
    "build,expected",
    [
        (fair_coin, "[{h}*, {t}*]"),
        (three_slit, "[{1,2}*]"),
        (lambda: dirac(("a", "b", "c"), "b"), "[{b}*]"),
        (four_slit, "[{a,b}*, {a,c}*, {b,c}*]"),
    ],
)
def test_multiplicative_scheme_examples(build, expected):
    m = build()
    scheme = multiplicative_scheme(m)
    assert str(scheme) == expected
    assert {support_key(phi) for phi in scheme} == scheme_oracle(m)


def test_scheme_is_an_antichain(theory_corpus):
    for m in theory_corpus.values():
        scheme = multiplicative_scheme(m)
        principals = [dual_of_coevent(phi).mask for phi in scheme]
        for i, p in enumerate(principals):
            for j, q in enumerate(principals):
                if i != j:
                    assert p & q != p  # no principal contains another


def test_scheme_members_are_preclusive(theory_corpus):
    for m in theory_corpus.values():
        for phi in multiplicative_scheme(m):
            assert is_preclusive(phi, m)
            assert is_multiplicative(phi)


def test_null_cover_motivating_phenomenon():
    ts = three_slit()
    assert len(classical_preclusive_set(ts)) == 0
    assert len(multiplicative_scheme(ts)) > 0


# ---------------------------------------------------------------------------
# Modus ponens


def test_modus_ponens_examples(coin_algebra):
    for phi in enumerate_multiplicative(coin_algebra):
        assert check_modus_ponens(phi)
    stuck = Coevent(coin_algebra, frozenset([1]))  # only {h}
    assert not check_modus_ponens(stuck)
    assert check_modus_ponens(zero_coevent(coin_algebra))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_modus_ponens_iff_upward_closed_support(n):
    alg = algebra_of_size(n)
    full = alg.space.full_mask
    for phi in enumerate_coevents(alg):
        upward = all(
            (m | extra) in phi.support
            for m in phi.support
            for extra in range(full + 1)
            if extra & m == 0
        )
        assert check_modus_ponens(phi) == upward


@settings(max_examples=300, deadline=None)
@given(drawn=supports())
def test_modus_ponens_matches_the_superset_walk(drawn):
    alg, support = drawn
    full = alg.space.full_mask
    walk = all(s in support for m in support for s in iter_supermasks(m, full))
    assert check_modus_ponens(Coevent(alg, support)) == walk


# ---------------------------------------------------------------------------
# Spaces


def test_coevent_space_dedupes_and_orders(coin_algebra):
    h_star = dual_of_event(coin_algebra.event_from_labels(["h"]))
    omega_star = dual_of_event(coin_algebra.full)
    space = CoeventSpace.build(
        coin_algebra, [omega_star, h_star, h_star], "user-supplied"
    )
    assert str(space) == "[{h}*, {h,t}*]"
    # built directly, a space is a set: a dual and the coevent of its support are equal
    h_support = Coevent(coin_algebra, h_star.support)
    for members in ((h_star, h_star), (h_star, omega_star, h_support)):
        with pytest.raises(ValueError, match="distinct"):
            CoeventSpace(coin_algebra, members)


def test_a_space_keeps_the_callers_order_and_build_sorts_it():
    alg = three_slit().algebra
    duals = enumerate_multiplicative(alg)
    reversed_space = CoeventSpace(alg, reversed(duals.members))
    assert reversed_space.keys == (7, 6, 5, 4, 3, 2, 1)
    assert reversed_space != duals
    built = CoeventSpace.build(alg, reversed_space.members, "multiplicative")
    assert built == duals and built.keys == range(1, 8)


def test_rendering_of_general_coevents(coin_algebra):
    assert str(zero_coevent(coin_algebra)) == "[]"
    ragged = Coevent(coin_algebra, frozenset([1, 2]))
    assert str(ragged) == "[{h}, {t}]"
    assert str(constant_one(coin_algebra)) == "{}*"


# ---------------------------------------------------------------------------
# Duals held by their principal masks


def explicit_dual(alg: EventAlgebra, p: int) -> Coevent:
    """p* built from its support, the supersets of p."""
    return Coevent(alg, frozenset(iter_supermasks(p, alg.space.full_mask)))


def support_scan(space: CoeventSpace) -> tuple[int, ...]:
    """Oracle: tau of each event mask, by scanning every member's support."""
    return tuple(
        sum(1 << i for i, phi in enumerate(space) if mask in phi.support)
        for mask in range(space.algebra.size)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_a_mask_built_dual_is_the_coevent_of_its_support(data, n):
    alg = EventAlgebra(SampleSpace(tuple("abcde"[:n])))
    p = data.draw(st.integers(0, alg.size - 1), label="p")
    dual, explicit = dual_of_event(alg.event(p), include_empty_dual=True), explicit_dual(alg, p)
    assert dual == explicit and explicit == dual
    assert hash(dual) == hash(explicit)
    assert str(dual) == str(explicit)
    assert dual.support == explicit.support and dual.principal_mask == p
    assert pickle.loads(pickle.dumps(dual)) == dual == copy.deepcopy(dual)
    space = enumerate_multiplicative(alg, include_empty_dual=True)
    assert space.index_of(dual) == space.index_of(explicit) == p
    assert explicit in space and dual in space
    other = data.draw(st.frozensets(st.integers(0, alg.size - 1)), label="other support")
    assert (dual == Coevent(alg, other)) == (other == explicit.support)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_a_dual_stores_no_support_and_a_support_fixes_its_principal_mask(data, n):
    alg = EventAlgebra(SampleSpace(tuple("abcd"[:n])))
    p = data.draw(st.integers(0, alg.size - 1), label="p")
    dual, explicit = dual_of_event(alg.event(p), include_empty_dual=True), explicit_dual(alg, p)
    assert dual.support == explicit.support
    assert Coevent.__slots__ == ("algebra", "_key")
    assert dual._key == p  # the support is derived on the read, not stored
    assert explicit._key == p and explicit.principal_mask == p  # held as the dual
    for copied in (pickle.loads(pickle.dumps(dual)), copy.deepcopy(dual), copy.copy(dual)):
        assert copied == dual and copied.principal_mask == p and copied._key == p
    support = data.draw(st.frozensets(st.integers(0, alg.size - 1)), label="support")
    phi = Coevent(alg, support)
    assert phi.principal_mask == filter_principal(support, n)
    bits = sum(1 << m for m in support)
    assert phi._key == (~bits if phi.principal_mask is None else phi.principal_mask)
    assert copy.deepcopy(phi)._key == phi._key
    with pytest.raises(AttributeError):
        phi.principal_mask = 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), include_empty=st.booleans())
def test_building_the_explicit_supports_gives_the_mask_built_space(data, n, include_empty):
    alg = algebra_of_size(n)
    space = enumerate_multiplicative(alg, include_empty_dual=include_empty)
    masks = data.draw(st.permutations(range(0 if include_empty else 1, alg.size)))
    built = CoeventSpace.build(alg, [explicit_dual(alg, p) for p in masks], "multiplicative")
    assert built == space
    for phi, psi in zip(built, space):
        assert phi == psi and support_key(phi) == support_key(psi)
        assert built.index_of(psi) == space.index_of(phi)
    assert built.tau_table == space.tau_table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("include_empty", [False, True])
def test_the_zeta_tau_table_of_all_duals_is_the_support_scan(n, include_empty):
    alg = EventAlgebra(SampleSpace(tuple("abcdef"[:n])))
    space = enumerate_multiplicative(alg, include_empty_dual=include_empty)
    table = space.tau_table
    assert all(phi._key >= 0 for phi in space)  # read no support
    assert table == support_scan(space)


@settings(max_examples=200, deadline=None)
@given(m=measures_with_zeros())
def test_the_zeta_tau_tables_of_the_scheme_and_classical_set_are_the_support_scan(m):
    for space in (multiplicative_scheme(m), classical_preclusive_set(m)):
        assert space.tau_table == support_scan(space)
        assert space == CoeventSpace.build(
            m.algebra, [explicit_dual(m.algebra, phi.principal_mask) for phi in space], ""
        )


@settings(max_examples=200, deadline=None)
@given(m=measures_with_zeros())
def test_preclusive_and_zero_on_duals_match_their_supports(m):
    alg = m.algebra
    nulls = m.null_masks
    for p in range(alg.size):
        dual = dual_of_event(alg.event(p), include_empty_dual=True)
        assert is_preclusive(dual, m) == dual.support.isdisjoint(nulls)
        assert is_preclusive(dual, m) == is_preclusive(explicit_dual(alg, p), m)
        assert dual.is_zero is False and not explicit_dual(alg, p).is_zero
    assert zero_coevent(alg).is_zero and is_preclusive(zero_coevent(alg), m)


@settings(max_examples=200, deadline=None)
@given(m=measures_with_zeros(max_n=6), data=st.data())
def test_preclusive_key_on_a_support_is_the_per_null_mask_test(m, data):
    """On a coevent held as its support bits (a negative key), one AND with
    the null bits answers what testing the support bit at each null mask
    answers, on random supports and on those that hold or miss every null."""
    alg = m.algebra
    drawn = data.draw(st.integers(0, (1 << alg.size) - 1), label="support bits")
    everything = (1 << alg.size) - 1
    for bits in (drawn, drawn & ~m.values.null_bits, drawn | m.values.null_bits, 0, everything):
        key = ~bits
        assert preclusive_key(key, m) == (not any(~key >> a & 1 for a in m.null_masks))


# ---------------------------------------------------------------------------
# The two forms: a dual's principal mask, any other coevent's support bits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_bits_never_share_a_key_with_a_dual(n):
    """Every support at n <= 3: a coevent held as its support bits S never
    equals or hashes like the dual whose principal mask is S as an int, a
    space holds both apart, and pickle and copy keep each coevent's form."""
    alg = algebra_of_size(n)
    for bits in range(1 << alg.size):
        phi = Coevent(alg, set_bits(bits))
        for copied in (pickle.loads(pickle.dumps(phi)), copy.copy(phi), copy.deepcopy(phi)):
            assert copied == phi
            assert (copied.principal_mask, copied._key) == (phi.principal_mask, phi._key)
        if phi.principal_mask is not None or bits >= alg.size:
            continue
        dual = Coevent._of_key(alg, bits)
        assert phi != dual and dual != phi and hash(phi) != hash(dual)
        space = CoeventSpace.build(alg, [dual, phi], "user-supplied")
        assert len(space) == 2 and space.index_of(phi) != space.index_of(dual)
    zero, one = zero_coevent(alg), dual_of_event(alg.empty, include_empty_dual=True)
    assert zero._key == ~0 and one.principal_mask == 0
    assert zero != one and hash(zero) != hash(one)
    space = CoeventSpace(alg, (zero, one))
    assert (space.index_of(zero), space.index_of(one)) == (0, 1)
    assert zero in space and one in space


@settings(max_examples=300, deadline=None)
@given(m=measures_with_zeros(max_n=4), data=st.data())
def test_support_bits_match_the_frozenset_oracles(m, data):
    alg = m.algebra
    n, full = alg.space.n, alg.space.full_mask
    _, support = data.draw(supports(alg), label="support")
    phi = Coevent(alg, support)
    p = filter_principal(support, n)
    assert phi.principal_mask == p and phi.support == support
    assert [phi(alg.event(a)) for a in range(alg.size)] == [
        int(a in support) for a in range(alg.size)
    ]
    assert is_preclusive(phi, m) == support.isdisjoint(m.null_masks)
    walk = all(s in support for a in support for s in iter_supermasks(a, full))
    assert check_modus_ponens(phi) == walk
    family = str(EventFamily(alg.space, support))
    assert str(phi) == (family if p is None else f"{Event(alg.space, p)}*")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coevents_rows_match_the_pairwise_definitions(data):
    """section_coevents reads its four flags from the members' keys; each row
    must agree with the flag's definition on the member's support.  Spaces
    with and without the constant-one map (and, mixed, with the zero
    coevent) are read under both empty-dual conventions."""
    spaces = data.draw(st.sampled_from([mixed_spaces, dual_spaces]), label="spaces")
    space = data.draw(spaces(include_empty=data.draw(st.booleans())), label="space")
    include_empty = data.draw(st.booleans(), label="include_empty_dual")
    alg = space.algebra
    m = data.draw(measures_with_zeros(space=alg.space), label="measure")
    theory = HistoriesTheory(alg.space, alg, m, TheoryOptions(include_empty), "amplitudes")
    full = alg.space.full_mask
    rows = [
        {
            "coevent": (
                str(EventFamily(alg.space, phi.support))
                if phi.principal_mask is None
                else f"{Event(alg.space, phi.principal_mask)}*"
            ),
            "classical": classical_oracle(phi),
            "multiplicative": multiplicative_oracle(phi, include_empty),
            "preclusive": phi.support.isdisjoint(m.null_masks),
            "modus_ponens": all(
                s in phi.support for a in phi.support for s in iter_supermasks(a, full)
            ),
        }
        for phi in space.members
    ]
    section = section_coevents(theory, space, include_empty)
    assert section == {"set": space.provenance, "count": len(space), "members": rows}


@pytest.mark.parametrize(
    "keys, reads_names",
    [
        (range(1, 16), True),
        (range(0, 16), True),
        (range(8, 16), True),
        (range(9, 16), False),
        (range(5, 6), False),
        ((3, 5, 6), False),
    ],
)
def test_renderings_read_the_event_names_only_for_a_long_range(keys, reads_names):
    """At n=4 a range of 8 or more duals reads ``event_names``; a shorter
    range or a tuple renders each key and leaves the names unbuilt."""
    alg = EventAlgebra(SampleSpace(tuple("abcd")))
    space = CoeventSpace._of_keys(alg, keys, "user-supplied")
    renderings = space.renderings
    assert ("event_names" in alg.space.__dict__) == reads_names
    assert renderings == tuple(render_key(alg.space, key) for key in keys)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_renderings_of_all_coevents_are_render_key(n):
    """Over all coevents, in canonical order, each non-dual extends the
    string of its support less the highest mask, rendered before it."""
    alg = algebra_of_size(n)
    space = enumerate_coevents(alg)
    assert space.renderings == tuple(render_key(alg.space, key) for key in space.keys)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_renderings_of_any_space_are_render_key(data):
    """Any subset of the coevents at n <= 3, in any order: a prefix rendered
    before a member is extended, any other member goes through render_key."""
    alg = algebra_of_size(data.draw(st.integers(1, 3), label="n"))
    every = enumerate_coevents(alg).keys
    keys = data.draw(st.lists(st.sampled_from(every), unique=True, max_size=40), label="keys")
    if data.draw(st.booleans(), label="canonical order"):
        keys.sort(key=every.index)
    space = CoeventSpace._of_keys(alg, keys, "user-supplied")
    assert space.renderings == tuple(render_key(alg.space, key) for key in keys)
