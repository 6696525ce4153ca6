from __future__ import annotations

import copy
import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coevents import (
    CapExceeded,
    Coevent,
    CoeventSpace,
    Event,
    EventAlgebra,
    MismatchedSpace,
    NotMultiplicative,
    NotUpperMode,
    SampleSpace,
    TruthFunction,
    ValuationEvent,
    and_or_audit,
    complete,
    dual_of_event,
    enumerate_multiplicative,
    heyting_implication,
    or_discrepancies,
    order_report,
    tau,
)
from coevents import beables as beables_mod
from coevents.beables import OrderReport, _flags_from_principals, _flags_from_table
from coevents.catalog import three_slit
from coevents.cli import section_audit, section_complete, section_tau, section_topos
from coevents.coevent import enumerate_classical, multiplicative_scheme
from coevents.eventalg import WITNESS_LIST_CAP, set_bits
from coevents.theoryfile import load_data
from coevents.topos import build_instance, chi_vsupp, poset_of_coevents

from conftest import (
    algebra_of_size,
    audit_oracle,
    boolean_closure_oracle,
    dual_up_masks,
    order_report_oracle,
    upper_closure_oracle,
)


def mce(n: int, include_empty_dual: bool = False) -> CoeventSpace:
    return enumerate_multiplicative(algebra_of_size(n), include_empty_dual)


def all_upper_sets(space: CoeventSpace) -> set[int]:
    """Oracle: every upward-closed subset of the dual order, by brute force."""
    ups = dual_up_masks(space)
    out = set()
    for bits in range(1 << len(space)):
        if all(ups[i] & bits == ups[i] for i in range(len(space)) if bits >> i & 1):
            out.add(bits)
    return out


def member_scan(mask: int, space: CoeventSpace) -> int:
    """Oracle: the members whose support holds the event, by one scan."""
    return sum(1 << i for i, phi in enumerate(space.members) if mask in phi.support)


@st.composite
def mixed_spaces(draw, include_empty: bool = True) -> CoeventSpace:
    """A space over n <= 4 histories: random supports, most of them not
    filters, next to duals (the constant-one map among them unless
    ``include_empty`` is False)."""
    alg = algebra_of_size(draw(st.integers(1, 4), label="n"))
    events = st.integers(0, alg.size - 1)
    supports = draw(st.lists(st.frozensets(events), max_size=5), label="supports")
    principals = st.integers(0 if include_empty else 1, alg.size - 1)
    principals = draw(st.lists(principals, min_size=1, max_size=5), label="principals")
    members = [Coevent(alg, support) for support in supports] + [
        dual_of_event(alg.event(p), include_empty_dual=True) for p in principals
    ]
    return CoeventSpace.build(
        alg, [phi for phi in members if include_empty or phi.principal_mask != 0], "user-supplied"
    )


@st.composite
def dual_spaces(draw, include_empty: bool = True) -> CoeventSpace:
    """A space of duals over n <= 6 histories: a run of principals s, s + 1,
    ... (s = 0 holds the empty dual) or any set of them, the empty one
    among them or not (never, if ``include_empty`` is False), in ascending
    order or shuffled."""
    n = draw(st.integers(1, 6), label="n")
    alg = EventAlgebra(SampleSpace(tuple("abcdef"[:n])))
    lowest = 0 if include_empty else 1
    if draw(st.booleans(), label="a run"):
        start = draw(st.integers(lowest, alg.size - 1), label="start")
        principals = list(range(start, draw(st.integers(start, alg.size), label="stop")))
    else:
        masks = st.sets(st.integers(lowest, alg.size - 1), max_size=12)
        principals = sorted(draw(masks, label="principals"))
    if draw(st.booleans(), label="shuffled"):
        principals = draw(st.permutations(principals), label="order")
    members = [dual_of_event(alg.event(p), include_empty_dual=True) for p in principals]
    return CoeventSpace(alg, tuple(members), "user-supplied")


# ---------------------------------------------------------------------------
# tau


@settings(max_examples=100, deadline=None)
@given(space=mixed_spaces())
def test_principals_are_the_member_masks_exactly_when_all_are_duals(space):
    """Oracle: a support is a dual's iff it is every superset of its least member."""
    masks = []
    for phi in space.members:
        p = min(phi.support, key=int.bit_count, default=None)
        if p is not None and phi.support == {a for a in range(space.algebra.size) if a & p == p}:
            masks.append(p)
    principals = None if space.principals is None else tuple(space.principals)
    assert principals == (tuple(masks) if len(masks) == len(space) else None)


def rendering_oracle(phi: Coevent) -> str:
    """A coevent's string from its events' strings: p* for a dual, else
    the list of its support's events."""
    alg = phi.algebra
    if phi.principal_mask is not None:
        return f"{alg.event(phi.principal_mask)}*"
    return "[" + ", ".join(str(alg.event(m)) for m in sorted(phi.support)) + "]"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), include_empty=st.booleans())
def test_a_space_rebuilt_from_its_members_is_the_same_space(data, include_empty):
    """A space held as keys against the same space built from its Coevents."""
    spaces = st.one_of(dual_spaces(include_empty), mixed_spaces(include_empty))
    space = data.draw(spaces, label="space")
    alg = space.algebra
    rebuilt = CoeventSpace(alg, space.members, space.provenance)
    assert rebuilt == space and hash(rebuilt) == hash(space)
    principals = [phi.principal_mask for phi in space.members]
    start = principals[0] if principals and principals[0] is not None else 0
    a_run = principals == list(range(start, start + len(principals)))
    assert isinstance(space.keys, range) == isinstance(rebuilt.keys, range) == a_run
    assert space.principals == rebuilt.principals
    assert space.principals == (None if None in principals else space.keys)
    for i, phi in enumerate(space.members):
        assert space.index_of(phi) == rebuilt.index_of(phi) == i
        assert phi in space and phi in rebuilt
    members = set(space.members)
    outsiders = (Coevent(alg, set_bits(bits)) for bits in range(1 << alg.size))
    outsider = next((phi for phi in outsiders if phi not in members), None)
    if outsider is not None:  # at n = 1 a space may hold all four coevents
        for s in (space, rebuilt):
            assert outsider not in s
            with pytest.raises(ValueError, match="not a member"):
                s.index_of(outsider)
    assert [space.tau_row(m) for m in range(alg.size)] == [
        rebuilt.tau_row(m) for m in range(alg.size)
    ]
    assert space.renderings == rebuilt.renderings
    assert space.renderings == tuple(map(rendering_oracle, space.members))
    for copied in (pickle.loads(pickle.dumps(space)), copy.copy(space), copy.deepcopy(space)):
        assert copied == space and copied.keys == space.keys
        assert type(copied.keys) is type(space.keys) and copied.provenance == space.provenance
        assert copied.members == space.members and copied.renderings == space.renderings


@settings(max_examples=100, deadline=None)
@given(space=mixed_spaces())
def test_tau_table_matches_the_member_scan(space):
    alg = space.algebra
    assert space.tau_table == tuple(member_scan(m, space) for m in range(alg.size))
    for mask in range(alg.size):
        assert tau(alg.event(mask), space).bits == member_scan(mask, space)


@settings(max_examples=200, deadline=None)
@given(space=dual_spaces())
def test_tau_rows_of_a_dual_space_match_the_member_scan(space):
    """Each row on demand, and the table, against the supports read once."""
    supports = [phi.support for phi in space]
    scan = [
        sum(1 << i for i, support in enumerate(supports) if mask in support)
        for mask in range(space.algebra.size)
    ]
    assert [space.tau_row(mask) for mask in range(space.algebra.size)] == scan
    assert list(space.tau_table) == scan


def test_tau_examples_n2():
    space = mce(2)
    alg = space.algebra
    a = alg.event_from_labels(["a"])
    assert [str(phi) for phi in tau(a, space).members] == ["{a}*"]
    assert len(tau(alg.full, space)) == 3
    assert len(tau(alg.empty, space)) == 0


def test_tau_empty_event_with_empty_dual():
    space = mce(2, include_empty_dual=True)
    members = tau(space.algebra.empty, space).members
    assert [str(phi) for phi in members] == ["{}*"]


def test_tau_is_the_up_set_of_the_dual(small_algebra):
    space = enumerate_multiplicative(small_algebra)
    ups = dual_up_masks(space)
    for mask in range(1, small_algebra.size):
        ev = small_algebra.event(mask)
        i = space.members.index(dual_of_event(ev))
        assert tau(ev, space).bits == ups[i]


def test_tau_rejects_foreign_events(coin_algebra, abc_algebra):
    space = enumerate_multiplicative(coin_algebra)
    with pytest.raises(MismatchedSpace):
        tau(abc_algebra.full, space)


# ---------------------------------------------------------------------------
# Order reports


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_report_over_all_duals(n):
    rep = order_report(mce(n))
    assert rep == order_report_oracle(mce(n))
    assert rep.tau_injective
    assert rep.pushforward_well_defined
    assert rep.orders_agree
    assert rep.meet_agree
    if n == 1:
        assert rep.join_agree
    else:
        assert not rep.join_agree
        assert len(rep.witnesses["join"]) >= 1


def test_join_witness_at_n2_is_the_two_singletons():
    rep = order_report(mce(2))
    first = rep.witnesses["join"][0]
    assert (str(first[0]), str(first[1])) == ("{a}", "{b}")


def test_scheme_report_for_three_slit():
    scheme = multiplicative_scheme(three_slit())
    rep = order_report(scheme)
    assert rep.pushforward_well_defined
    assert not rep.tau_injective
    # {1,2} and the full event have the same image
    pairs = {(a.mask, b.mask) for a, b in rep.witnesses["injectivity"]}
    assert (0b011, 0b111) in pairs


def test_zero_coevent_space_report(coin_algebra):
    zero = Coevent(coin_algebra, frozenset())
    rep = order_report(CoeventSpace.build(coin_algebra, [zero], "user-supplied"))
    assert not rep.tau_injective
    assert rep.witnesses["injectivity"]
    assert rep.pushforward_well_defined  # tau is constant, hence monotone


def test_non_monotone_space_report(coin_algebra):
    stuck = Coevent(coin_algebra, frozenset([1]))  # true only on {h}
    rep = order_report(CoeventSpace.build(coin_algebra, [stuck], "user-supplied"))
    assert not rep.pushforward_well_defined
    assert rep.witnesses["pushforward"]
    assert rep.notes


def test_filter_supports_give_well_defined_pushforward(theory_corpus):
    for m in theory_corpus.values():
        rep = order_report(multiplicative_scheme(m))
        assert rep.pushforward_well_defined


@st.composite
def report_spaces(draw) -> CoeventSpace:
    """A space over n <= 4 histories mixing the members that decide the
    report's flags: filters (duals, the constant-one map among them),
    complements of principal ideals (join-preserving), unions of a few
    filters (up-closed, so monotone, but not filters), the zero map and
    arbitrary supports.  At most five members, so many events share an
    image and tau is often neither injective nor monotone."""
    alg = algebra_of_size(draw(st.integers(1, 4), label="n"))
    events = st.integers(0, alg.size - 1)
    member = st.one_of(
        events.map(lambda p: dual_of_event(alg.event(p), include_empty_dual=True)),
        events.map(lambda p: Coevent(alg, frozenset(a for a in range(alg.size) if a & ~p))),
        st.lists(events, min_size=1, max_size=3).map(
            lambda ps: Coevent(alg, frozenset(a for a in range(alg.size) for p in ps if a & p == p))
        ),
        st.just(Coevent(alg, frozenset())),
        st.frozensets(events).map(lambda support: Coevent(alg, support)),
    )
    members = draw(st.lists(member, max_size=5), label="members")
    return CoeventSpace.build(alg, members, "user-supplied")


FLAGS = ("tau_injective", "pushforward_well_defined", "orders_agree", "meet_agree", "join_agree")


def assert_cut_witness_lists_are_prefixes(space: CoeventSpace) -> None:
    """The full report is the pairwise oracle, and at every limit where a
    list can change shape each list is its prefix and only the flags'
    lists longer than the limit are marked cut."""
    full = order_report(space, limit=None)
    assert full == order_report_oracle(space)
    totals = {key: len(pairs) for key, pairs in full.witnesses.items()}
    limits = {0, 1} | {t + d for t in totals.values() for d in (-1, 0, 1)} - {-1}
    for limit in sorted(limits):
        rep = order_report(space, limit=limit)
        for key, pairs in full.witnesses.items():
            assert rep.witnesses[key] == pairs[:limit]
        assert rep.truncated == {key for key, t in totals.items() if t > limit}
        assert [getattr(rep, f) for f in FLAGS] == [getattr(full, f) for f in FLAGS]
        assert rep.notes == full.notes


@settings(max_examples=300, deadline=None)
@given(space=report_spaces())
def test_order_report_matches_the_pairwise_oracle(space):
    assert order_report(space) == order_report_oracle(space)
    assert_cut_witness_lists_are_prefixes(space)


@settings(max_examples=100, deadline=None)
@given(space=dual_spaces())
def test_closed_form_flags_equal_the_table_formulas_and_the_oracle(space):
    closed = _flags_from_principals(space.principals, space.algebra.space.n)
    assert closed == _flags_from_table(space)
    assert closed == tuple(getattr(order_report_oracle(space), f) for f in FLAGS)
    assert closed == tuple(getattr(order_report(space), f) for f in FLAGS)


@settings(max_examples=100, deadline=None)
@given(
    space=dual_spaces(),
    limit=st.sampled_from([0, 1, 5, None]),
    truncated_first=st.booleans(),
)
def test_lazily_listed_witnesses_equal_the_eager_listing(space, limit, truncated_first):
    """Whichever of ``witnesses`` and ``truncated`` is read first, the report
    equals one built with the oracle's lists cut at the limit."""
    full = order_report_oracle(space).witnesses
    rep = order_report(space, limit)
    first = rep.truncated if truncated_first else rep.witnesses
    witnesses = {key: pairs[:limit] for key, pairs in full.items()}
    cut = {key for key, pairs in full.items() if limit is not None and len(pairs) > limit}
    assert (rep.witnesses, rep.truncated) == (witnesses, cut)
    assert first == (cut if truncated_first else witnesses)
    flags = [getattr(rep, f) for f in FLAGS]
    assert rep == OrderReport(*flags, witnesses, rep.notes, frozenset(cut))


def test_order_reports_pickle_before_and_after_listing():
    unlisted, listed = order_report(mce(3), limit=2), order_report(mce(3), limit=2)
    assert listed.truncated == {"join"}
    for rep in (unlisted, listed):
        copied = pickle.loads(pickle.dumps(rep))
        assert copied == rep and repr(copied) == repr(rep)
        assert copied.truncated == {"join"} and len(copied.witnesses["join"]) == 2


def test_an_unlisted_order_report_lists_only_on_a_witness_field(monkeypatch):
    """On a report not yet listed, a misspelt name raises AttributeError and
    lists nothing; a copy or deep copy taken then equals the listed report;
    and the record fields are the public ones only."""
    calls, walk = [], beables_mod._order_witnesses

    def spy(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(beables_mod, "_order_witnesses", spy)
    rep = order_report(mce(3), limit=2)
    assert not rep.join_agree
    for name in ("witness", "truncate", "_listing", "__setstate__"):
        with pytest.raises(AttributeError):
            getattr(rep, name)
    copies = copy.copy(rep), copy.deepcopy(rep)
    assert calls == []
    assert list(type(rep)._fields) == [*FLAGS, "witnesses", "notes", "truncated"]
    assert rep.truncated == {"join"} and len(rep.witnesses["join"]) == 2 and len(calls) == 1
    assert set(vars(rep)) == set(type(rep)._fields)  # the lister is dropped
    for copied in copies:
        assert copied == rep and repr(copied) == repr(rep)
    assert len(calls) == 3  # each copy listed once, on its own first read
    assert OrderReport.__hash__ is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("include_empty", [False, True])
def test_cut_witness_lists_on_dual_spaces(n, include_empty):
    assert_cut_witness_lists_are_prefixes(mce(n, include_empty))


def test_default_limit_cuts_the_join_witnesses():
    """Join fails on every incomparable pair of duals: 26,335 pairs at n = 8."""
    rep = order_report(enumerate_multiplicative(EventAlgebra(SampleSpace(tuple("abcdefgh")))))
    assert rep.truncated == {"join"}
    assert len(rep.witnesses["join"]) == WITNESS_LIST_CAP
    assert not rep.join_agree and rep.meet_agree and rep.orders_agree


def test_order_report_walks_no_pairs_when_every_flag_holds(monkeypatch):
    """Over the classical space tau(A) is A itself, so every flag holds; at
    n = 12 a walk over the 2^24 ordered pairs would take many seconds.
    Over all duals at n = 8 join fails, yet reading the flags builds no
    event and walks no pair; the first read of the witnesses lists them."""
    alg = EventAlgebra(SampleSpace(tuple("abcdefghijkl")))
    space = enumerate_classical(alg)

    def no_events(self):
        raise AssertionError("a witness list was built")

    monkeypatch.setattr(EventAlgebra, "events", no_events)
    rep = order_report(space)
    assert tuple(getattr(rep, f) for f in FLAGS) == (True,) * 5
    assert all(pairs == () for pairs in rep.witnesses.values())
    assert rep.notes == ()

    duals = enumerate_multiplicative(EventAlgebra(SampleSpace(tuple("abcdefgh"))))
    with monkeypatch.context() as patch:
        patch.setattr(Event, "__post_init__", no_events)
        patch.setattr(beables_mod, "first_witnesses", no_events)
        rep = order_report(duals)
        assert tuple(getattr(rep, f) for f in FLAGS) == (True,) * 4 + (False,)
        assert rep.notes == ()
    join = rep.witnesses["join"]
    assert rep.truncated == {"join"} and len(join) == WITNESS_LIST_CAP
    assert join == order_report_oracle(duals).witnesses["join"][:WITNESS_LIST_CAP]


def test_meet_agreement_exhaustive(small_algebra):
    space = enumerate_multiplicative(small_algebra)
    alg = small_algebra
    for a in range(alg.size):
        for b in range(alg.size):
            ea, eb = alg.event(a), alg.event(b)
            assert tau(ea & eb, space).bits == (tau(ea, space) & tau(eb, space)).bits


def test_join_escapes_the_image_at_n2():
    space = mce(2)
    alg = space.algebra
    image = {tau(alg.event(m), space).bits for m in range(alg.size)}
    a = tau(alg.event_from_labels(["a"]), space)
    b = tau(alg.event_from_labels(["b"]), space)
    assert (a | b).bits not in image


# ---------------------------------------------------------------------------
# Completions


@pytest.mark.parametrize("n", [1, 2, 3])
def test_upper_completion_is_every_upper_set(n):
    space = mce(n)
    completion = complete(space, "upper")
    assert set(completion.member_bits) == all_upper_sets(space)


@settings(max_examples=100, deadline=None)
@given(space=mixed_spaces())
def test_upper_completion_matches_the_worklist(space):
    completion = complete(space, "upper", cap=len(space))
    assert set(completion.member_bits) == upper_closure_oracle(space)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_upper_completion_matches_the_worklist_on_duals_and_classical(n):
    spaces = [mce(n), mce(n, include_empty_dual=True), enumerate_classical(algebra_of_size(n))]
    for space in spaces:
        assert set(complete(space, "upper").member_bits) == upper_closure_oracle(space)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_upper_completion_of_duals_in_any_member_order_is_the_worklist(data):
    """On a space of duals built by ``CoeventSpace`` in a drawn member
    order, with and without the constant-one dual, the up-sets read from
    the tau rows are the worklist closure, and ``section_complete`` lists
    each member as ``render`` does: out of ascending-principal order a
    member less its highest member need not be a member."""
    alg = algebra_of_size(data.draw(st.integers(1, 4), label="n"))
    principals = st.lists(st.integers(1, alg.size - 1), unique=True, max_size=7)
    principals = data.draw(principals, label="principals")
    if data.draw(st.booleans(), label="the constant-one dual"):
        principals.append(0)
    principals = data.draw(st.permutations(principals), label="order")
    duals = [dual_of_event(alg.event(p), include_empty_dual=True) for p in principals]
    space = CoeventSpace(alg, duals, "user-supplied")
    member_bits = complete(space, "upper", cap=len(space)).member_bits
    assert member_bits == tuple(sorted(upper_closure_oracle(space)))
    section = section_complete(space, len(space), "upper", limit=None)
    assert section["members"] == [space.render(b) for b in member_bits]


@settings(max_examples=150, deadline=None)
@given(space=mixed_spaces())
def test_upper_completion_holds_two_to_the_widest_support_size_less_one(space):
    """Members whose supports have one size are pairwise incomparable, so w
    of them give at least 2^w - 1 up-sets: the bound the hard cap reads."""
    sizes = Counter(len(phi.support) for phi in space.members)
    w = max(sizes.values())
    assert len(complete(space, "upper", cap=len(space)).member_bits) >= 2**w - 1


@pytest.mark.parametrize("principals, widest", [((1, 2, 4), 21), ((1, 2, 6), 20)])
def test_upper_completion_refuses_a_support_size_held_by_more_than_the_cap(
    monkeypatch, principals, widest
):
    """Over n = 3, 18 non-filter supports of 4 events and the duals {i}*,
    whose support size 4 is read from |p|, share one size: w = 21 is
    refused before any up-set is listed.  With one dual moved to {b,c}*
    (support size 2), w = 20 passes the check and reaches the listing."""

    class Listed(Exception):
        pass

    def listing(*args, **kwargs):
        raise Listed

    monkeypatch.setattr(beables_mod, "up_sets", listing)
    alg = algebra_of_size(3)
    filters = {frozenset(a for a in range(8) if a & p == p) for p in (1, 2, 4)}
    others = [s for s in map(frozenset, itertools.combinations(range(8), 4)) if s not in filters]
    members = [Coevent(alg, s) for s in others[:18]] + [
        dual_of_event(alg.event(p)) for p in principals
    ]
    space = CoeventSpace.build(alg, members, "user-supplied")
    if widest > 20:
        with pytest.raises(CapExceeded, match=r"size 21 exceeds cap 20 \(hard cap"):
            complete(space, "upper", cap=len(space))
    else:
        with pytest.raises(Listed):
            complete(space, "upper", cap=len(space))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_upper_completion_of_mixed_spaces_in_any_member_order_is_the_worklist(data):
    """On a space of random supports and duals built by ``CoeventSpace`` in a
    drawn member order, so that the zero coevent and the constant-one dual
    sit at any index, the up-sets of the support order are the worklist
    closure, and ``section_complete`` lists each member as ``render`` does."""
    alg = algebra_of_size(data.draw(st.integers(1, 3), label="n"))
    events = st.integers(0, alg.size - 1)
    supports = data.draw(st.lists(st.frozensets(events), max_size=5), label="supports")
    principals = data.draw(st.lists(st.integers(0, alg.size - 1), max_size=3), label="principals")
    if data.draw(st.booleans(), label="the zero coevent"):
        supports.append(frozenset())
    if data.draw(st.booleans(), label="the constant-one dual"):
        principals.append(0)
    members = [Coevent(alg, support) for support in supports] + [
        dual_of_event(alg.event(p), include_empty_dual=True) for p in principals
    ]
    members = data.draw(st.permutations(list(dict.fromkeys(members))), label="order")
    space = CoeventSpace(alg, members, "user-supplied")
    member_bits = complete(space, "upper", cap=len(space)).member_bits
    assert member_bits == tuple(sorted(upper_closure_oracle(space)))
    section = section_complete(space, len(space), "upper", limit=None)
    assert section["members"] == [space.render(b) for b in member_bits]


@pytest.mark.parametrize(
    "names, expected",
    [
        ("", (0,)),
        ("zero", (0,)),
        ("one", (1,)),
        ("zero,one", (2,)),
        ("one,zero", (1,)),
        ("first,zero,one", (4, 5)),
    ],
)
def test_upper_completion_of_degenerate_spaces_at_n2(names, expected):
    """Over n = 2 histories, members named in order: the zero coevent lies
    in no tau row, so no member holds it, and the constant-one dual lies
    in every row, so ∅ is no member beside it.  "first" is the dual of
    the first history."""
    alg = algebra_of_size(2)
    coevents = {
        "zero": Coevent(alg, ()),
        "one": dual_of_event(alg.empty, include_empty_dual=True),
        "first": dual_of_event(alg.event(1)),
    }
    members = [coevents[name] for name in names.split(",") if name]
    space = CoeventSpace(alg, members, "user-supplied")
    member_bits = complete(space, "upper", cap=len(space)).member_bits
    assert member_bits == expected == tuple(sorted(upper_closure_oracle(space)))


def test_upper_completion_sizes():
    # sizes cross-checked against the brute-force upper-set oracle above
    assert len(complete(mce(1), "upper")) == 2
    assert len(complete(mce(2), "upper")) == 5
    assert len(complete(mce(3), "upper")) == 19


def test_upper_completion_contains_a_new_member_at_n2():
    space = mce(2)
    alg = space.algebra
    image = {tau(alg.event(m), space).bits for m in range(alg.size)}
    a = tau(alg.event_from_labels(["a"]), space)
    b = tau(alg.event_from_labels(["b"]), space)
    union = (a | b).bits
    assert union in set(complete(space, "upper").member_bits)
    assert union not in image


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boolean_completion_is_the_full_powerset(n):
    # tau separates the duals, so the generated Boolean algebra is everything
    space = mce(n)
    completion = complete(space, "boolean")
    assert [alpha.bits for alpha in completion] == list(range(1 << len(space)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_boolean_completion_matches_the_closure(data):
    """On spaces with non-duals and the zero map, the Boolean completion is
    the closure of the tau image under union, intersection and complement."""
    drawn = data.draw(mixed_spaces(), label="space")
    alg = drawn.algebra
    space = CoeventSpace.build(
        alg, drawn.members[:6] + (Coevent(alg, ()),), "user-supplied"
    )
    completion = complete(space, "boolean")
    assert tuple(completion.member_bits) == tuple(sorted(boolean_closure_oracle(space)))


@pytest.mark.parametrize("mode", ["upper", "boolean"])
def test_completion_membership_is_its_member_bits(mode):
    space = mce(3)
    completion = complete(space, mode)
    for bits in range(1 << len(space)):
        alpha = ValuationEvent(space, bits)
        assert (alpha in completion) == (bits in completion.member_bits)
    assert ValuationEvent(mce(2), 0) not in completion


@settings(max_examples=100, deadline=None)
@given(space=mixed_spaces(), mode=st.sampled_from(["upper", "boolean"]))
def test_completion_holds_exactly_its_member_bits(space, mode):
    """On spaces with non-duals, the zero coevent and ∅*, ``holds`` and
    ``in`` answer for every bit pattern as a set of the member bits does,
    and the non-Boolean witness is the set scan's: the first member whose
    complement is no member."""
    completion = complete(space, mode, cap=len(space))
    members = set(completion.member_bits)
    for bits in range(1 << len(space)):
        expected = bits in members
        assert completion.holds(bits) == expected
        assert (ValuationEvent(space, bits) in completion) == expected
    full = (1 << len(space)) - 1
    scan = next((b for b in completion.member_bits if b ^ full not in members), None)
    witness = section_complete(space, len(space), mode)["non_boolean_witness"]
    assert witness == (None if scan is None else space.render(scan))


@settings(max_examples=100, deadline=None)
@given(space=st.one_of(mixed_spaces(), dual_spaces()))
def test_up_rows_are_the_support_inclusion_order(space):
    """Row i holds the members whose support contains member i's.  Over
    duals that is each principal's tau row, otherwise the AND of the tau
    table's rows that hold i, and the dual order reads the same rows."""
    supports = [phi.support for phi in space.members]
    assert space.up_rows == tuple(
        sum(1 << j for j, other in enumerate(supports) if other >= support)
        for support in supports
    )
    if space.principals is None:
        rows = [(1 << len(space)) - 1] * len(space)
        for row in space.tau_table:
            for i in set_bits(row):
                rows[i] &= row
        assert space.up_rows == tuple(rows)
    else:
        assert space.up_rows == tuple(space.tau_row(p) for p in space.principals)
        assert poset_of_coevents(space).up is space.up_rows


def test_the_dual_order_is_built_once_per_space(monkeypatch):
    """The upper completion and two Heyting implications over it read
    each member's tau row once: all three share the space's ``up_rows``."""
    alg = algebra_of_size(3)
    space = CoeventSpace(alg, [dual_of_event(alg.event(p)) for p in range(1, alg.size)])
    reads = Counter()
    tau_row = CoeventSpace.tau_row

    def counted(self, mask):
        reads[mask] += 1
        return tau_row(self, mask)

    monkeypatch.setattr(CoeventSpace, "tau_row", counted)
    completion = complete(space, "upper")
    alpha, beta = (ValuationEvent(space, completion.member_bits[i]) for i in (3, -4))
    heyting_implication(alpha, beta, completion)
    heyting_implication(beta, alpha, completion)
    assert reads == Counter(space.principals)


def test_completion_and_implication_build_no_coevent(monkeypatch):
    """Over all duals the upper completion and its Heyting implication read
    the space's principals and up-set rows and never build a member."""
    space = enumerate_multiplicative(algebra_of_size(3))
    built = []
    monkeypatch.setattr(Coevent, "_of_key", classmethod(lambda cls, *args: built.append(args)))
    monkeypatch.setattr(Coevent, "__init__", lambda phi, *args: built.append(args))
    completion = complete(space, "upper")
    alpha, beta = (ValuationEvent(space, completion.member_bits[i]) for i in (3, -4))
    assert heyting_implication(alpha, beta, completion).bits == 0b1111111  # alpha <= beta
    assert heyting_implication(beta, alpha, completion) == alpha
    assert built == []


def test_boolean_completion_contains_upper(small_algebra):
    space = enumerate_multiplicative(small_algebra)
    upper = set(complete(space, "upper").member_bits)
    boolean = set(complete(space, "boolean").member_bits)
    assert upper <= boolean


def test_degenerate_completions_at_n1():
    space = mce(1)
    alg = space.algebra
    image = {tau(alg.event(m), space).bits for m in range(alg.size)}
    assert set(complete(space, "upper").member_bits) == image
    assert set(complete(space, "boolean").member_bits) == image


def test_completion_cap():
    space = enumerate_multiplicative(algebra_of_size(4))  # 15 members, fine
    complete(space, "upper")
    with pytest.raises(CapExceeded):
        complete(space, "upper", cap=10)
    # 2^|V| members: above |V| = 20 no cap lifts the Boolean completion's refusal
    space = enumerate_multiplicative(EventAlgebra(SampleSpace(tuple("abcde"))))  # 31 duals
    for cap in (20, 31, 2**31):
        with pytest.raises(CapExceeded) as exc:
            complete(space, "boolean", cap=cap)
        assert (exc.value.limit, exc.value.override) == (20, None)
    with pytest.raises(CapExceeded) as exc:
        complete(space, "upper", cap=30)
    assert (exc.value.limit, exc.value.override) == (30, "--cap")


def test_non_boolean_witness_at_n2():
    space = mce(2)
    completion = complete(space, "upper")
    members = set(completion.member_bits)
    full = (1 << len(space)) - 1
    missing = [bits for bits in completion.member_bits if bits ^ full not in members]
    assert missing  # some member has no complement inside the completion
    a = tau(space.algebra.event_from_labels(["a"]), space)
    b = tau(space.algebra.event_from_labels(["b"]), space)
    assert (a | b).bits in missing


# ---------------------------------------------------------------------------
# Heyting implication


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heyting_adjunction_exhaustive(n):
    space = mce(n)
    completion = complete(space, "upper")
    members = completion.members
    for alpha in members:
        for beta in members:
            imp = heyting_implication(alpha, beta, completion)
            assert imp in completion
            assert (imp & alpha).issubset(beta)
            for gamma in members:
                assert ((gamma & alpha).issubset(beta)) == gamma.issubset(imp)


def test_heyting_examples_n2():
    space = mce(2)
    completion = complete(space, "upper")
    alg = space.algebra
    top = tau(alg.full, space)
    a = tau(alg.event_from_labels(["a"]), space)
    bottom = tau(alg.empty, space)
    assert heyting_implication(a, top, completion) == top  # alpha <= beta
    assert heyting_implication(a, a, completion) == top
    assert str(heyting_implication(a, bottom, completion)) == "[{b}*]"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_heyting_implication_matches_member_scan(data):
    """On random spaces of duals: the upper completion is the up-sets of the
    dual order (all but the empty one when the empty dual is a member, since
    it lies in every tau image), and the pointwise implication is the
    largest member gamma with gamma & alpha <= beta."""
    n = data.draw(st.integers(1, 5), label="n")
    alg = EventAlgebra(SampleSpace(tuple("abcde"[:n])))
    lowest = data.draw(st.sampled_from([0, 1]), label="lowest principal")
    principals = data.draw(
        st.sets(st.integers(lowest, alg.size - 1), min_size=1, max_size=6),
        label="principals",
    )
    space = CoeventSpace.build(
        alg,
        [dual_of_event(alg.event(p), include_empty_dual=True) for p in principals],
        "user-supplied",
    )
    completion = complete(space, "upper")
    ups = dual_up_masks(space)
    up_sets = {
        bits
        for bits in range(1 << len(space))
        if all(ups[i] & bits == ups[i] for i in range(len(space)) if bits >> i & 1)
    }
    if 0 in principals:
        up_sets.discard(0)
    assert set(completion.member_bits) == up_sets

    members = st.sampled_from(completion.member_bits)
    alpha = ValuationEvent(space, data.draw(members, label="alpha"))
    beta = ValuationEvent(space, data.draw(members, label="beta"))
    scan = 0
    for gamma in completion.member_bits:
        if gamma & alpha.bits & ~beta.bits == 0:
            scan |= gamma
    assert heyting_implication(alpha, beta, completion).bits == scan


def test_heyting_requires_upper_mode():
    space = mce(2)
    boolean = complete(space, "boolean")
    alpha = ValuationEvent(space, 0)
    with pytest.raises(NotUpperMode):
        heyting_implication(alpha, alpha, boolean)


def test_heyting_requires_membership():
    space = mce(2)
    completion = complete(space, "upper")
    outside = ValuationEvent(space, 0b100)  # not an upper set member of U
    with pytest.raises(ValueError):
        heyting_implication(outside, outside, completion)


def test_general_spaces_support_reports_and_completions_only(coin_algebra):
    # a user-supplied space with a non-multiplicative member still gets
    # its order report and completions, but has no dual order to
    # compute implications with
    ragged = Coevent(coin_algebra, frozenset([1, 2]))
    space = CoeventSpace.build(coin_algebra, [ragged], "user-supplied")
    order_report(space)
    completion = complete(space, "upper")
    alpha = completion.members[0]
    with pytest.raises(ValueError, match="multiplicative"):
        heyting_implication(alpha, alpha, completion)


# ---------------------------------------------------------------------------
# Truth functions and audits


@pytest.mark.parametrize("n", [2, 3])
def test_truth_functions_are_boolean_homomorphisms(n):
    space = mce(n)
    size = 1 << len(space)
    assert len(space) <= 8
    for phi in space.members:
        f = TruthFunction(space, phi)
        for abits in range(size):
            alpha = ValuationEvent(space, abits)
            assert f(alpha) == (phi in alpha)
            assert f(~alpha) == 1 - f(alpha)
            for bbits in range(size):
                beta = ValuationEvent(space, bbits)
                assert f(alpha & beta) == f(alpha) & f(beta)
                assert f(alpha | beta) == f(alpha) | f(beta)


def test_truth_function_requires_member_pivot(coin_algebra):
    space = enumerate_multiplicative(coin_algebra)
    foreign = Coevent(coin_algebra, frozenset([1, 2]))
    with pytest.raises(MismatchedSpace):
        TruthFunction(space, foreign)


def test_truth_function_rejects_foreign_valuation_events():
    f = TruthFunction(mce(2), mce(2).members[0])
    with pytest.raises(MismatchedSpace, match="different coevent space"):
        f(ValuationEvent(mce(3), 1))


def test_audit_or_discrepancy_at_the_full_dual():
    space = mce(2)
    alg = space.algebra
    omega_star = dual_of_event(alg.full)
    record = and_or_audit(
        omega_star,
        alg.event_from_labels(["a"]),
        alg.event_from_labels(["b"]),
        space,
    )
    assert (record.phi_a, record.phi_b) == (0, 0)
    assert record.f_join == 0 and record.phi_join == 1
    assert record.or_discrepancy
    assert record.and_identity_holds


def test_audit_and_identity_values():
    space = mce(2)
    alg = space.algebra
    a_star = dual_of_event(alg.event_from_labels(["a"]))
    record = and_or_audit(a_star, alg.event_from_labels(["a"]), alg.full, space)
    assert (record.phi_a, record.phi_b, record.phi_meet) == (1, 1, 1)
    assert not record.or_discrepancy


@pytest.mark.parametrize("n", [1, 2, 3])
def test_audit_full_event_forces_identity(n):
    space = mce(n)
    alg = space.algebra
    for phi in space.members:
        for mask in range(alg.size):
            record = and_or_audit(phi, alg.event(mask), alg.full, space)
            assert record.and_identity_holds
            assert record.phi_meet == record.phi_a


@pytest.mark.parametrize("n", [2, 3])
def test_audit_finds_an_or_discrepancy(n):
    space = mce(n)
    alg = space.algebra
    found = False
    for phi in space.members:
        for a in range(alg.size):
            for b in range(a, alg.size):
                record = and_or_audit(phi, alg.event(a), alg.event(b), space)
                assert record.and_identity_holds
                found = found or record.or_discrepancy
    assert found


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_audit_matches_the_truth_function_route(data):
    """The audit's table bits against f(tau(A) & tau(B)) and f(tau(A) | tau(B))
    with tau by the member scan, on spaces that also hold non-duals."""
    space = data.draw(mixed_spaces(), label="space")
    alg = space.algebra
    pivots = [phi for phi in space.members if phi.principal_mask is not None]
    phi = data.draw(st.sampled_from(pivots), label="pivot")
    a, b = (alg.event(data.draw(st.integers(0, alg.size - 1))) for _ in range(2))
    record = and_or_audit(phi, a, b, space)
    f = TruthFunction(space, phi)
    ta = ValuationEvent(space, member_scan(a.mask, space))
    tb = ValuationEvent(space, member_scan(b.mask, space))
    assert record.f_meet == f(ta & tb)
    assert record.f_join == f(ta | tb)
    assert (record.phi_a, record.phi_b) == (phi(a), phi(b))
    assert (record.phi_meet, record.phi_join) == (phi(a & b), phi(a | b))


def test_audit_rejects_foreign_events(coin_algebra, abc_algebra):
    space = enumerate_multiplicative(coin_algebra)
    foreign = abc_algebra.full
    with pytest.raises(MismatchedSpace):
        and_or_audit(space.members[0], foreign, coin_algebra.full, space)
    with pytest.raises(MismatchedSpace):
        and_or_audit(space.members[0], coin_algebra.full, foreign, space)


@st.composite
def amplitude_theories(draw):
    """A theory over n <= 4 histories with integer amplitudes in [-2, 2]."""
    n = draw(st.integers(1, 4), label="n")
    amplitudes = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n), label="amps")
    return load_data({"sample_space": list("abcd"[:n]), "measure": {"amplitudes": amplitudes}})


@settings(max_examples=60, deadline=None)
@given(theory=amplitude_theories(), include_empty=st.booleans())
def test_all_pairs_audit_section_matches_the_per_pair_oracle(theory, include_empty):
    space = enumerate_multiplicative(theory.algebra, include_empty_dual=include_empty)
    assert section_audit(space, include_empty, None, None, None) == audit_oracle(space)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_or_discrepancy_count_is_the_length_of_the_listing(data):
    """The closed-form count equals the listing's length on spaces of
    duals up to n=5, with the empty dual or without, and on the scheme
    of a theory; a space that holds a non-dual is refused with the
    lister's message."""
    space = data.draw(st.one_of(
        dual_spaces(include_empty=data.draw(st.booleans(), label="empty dual")),
        mixed_spaces(),
        amplitude_theories().map(lambda theory: multiplicative_scheme(theory.measure)),
    ).filter(lambda space: space.algebra.space.n <= 5), label="space")
    if space.principals is None:
        with pytest.raises(NotMultiplicative, match="audit is defined for nonzero multiplicative"):
            beables_mod.or_discrepancy_count(space)
        return
    assert beables_mod.or_discrepancy_count(space) == len(list(or_discrepancies(space)))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("include_empty", [False, True])
def test_or_discrepancy_count_over_all_duals(n, include_empty):
    alg = EventAlgebra(SampleSpace(tuple("abcdef"[:n])))
    space = enumerate_multiplicative(alg, include_empty_dual=include_empty)
    count = beables_mod.or_discrepancy_count(space)
    assert count == len(list(or_discrepancies(space))) == (7**n - 2 * 6**n + 5**n) // 2


@settings(max_examples=100, deadline=None)
@given(space=mixed_spaces())
def test_or_discrepancies_match_the_per_pair_audit(space):
    """On a space of duals, the constant-one map possibly among them, the
    lister equals the per-pair audit; a space that holds a non-dual is
    refused, as ``and_or_audit`` refuses such a pivot."""
    alg = space.algebra
    if any(phi.principal_mask is None for phi in space):
        with pytest.raises(NotMultiplicative):
            list(or_discrepancies(space))
        return
    assert list(or_discrepancies(space)) == [
        (i, a, b)
        for i, phi in enumerate(space)
        for a in range(alg.size)
        for b in range(a, alg.size)
        if and_or_audit(phi, alg.event(a), alg.event(b), space).or_discrepancy
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rendering_matches_per_member_str(data):
    """``render(bits)`` against the per-object join, and the doubling in
    ``subset_renderings`` against ``render`` on every bit pattern, on spaces
    of duals, non-duals and (when drawn) the zero map; each event's name
    against ``str(Event)``."""
    space = data.draw(mixed_spaces(), label="space")
    alg = space.algebra
    if data.draw(st.booleans(), label="with the zero map"):
        space = CoeventSpace.build(alg, [*space, Coevent(alg, frozenset())], "user-supplied")
    bits = data.draw(st.integers(0, (1 << len(space)) - 1), label="bits")
    val = ValuationEvent(space, bits)
    per_member = "[" + ", ".join(str(phi) for phi in val.members) + "]"
    assert space.render(bits) == str(val) == per_member
    assert space.subset_renderings() == [space.render(b) for b in range(1 << len(space))]
    assert str(space) == "[" + ", ".join(str(phi) for phi in space.members) + "]"
    names = alg.space.event_names
    assert names == tuple(str(Event(alg.space, m)) for m in range(alg.size))
    for phi in space:
        if phi.principal_mask is None:
            events = (str(Event(alg.space, m)) for m in sorted(phi.support))
            assert str(phi) == "[" + ", ".join(events) + "]"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_render_each_is_render_in_any_order(data):
    """``render_each`` gives ``render(b)`` for bit patterns in any order,
    repeats among them, on spaces of duals and mixed spaces."""
    space = data.draw(st.one_of(mixed_spaces(), dual_spaces()), label="space")
    patterns = st.integers(0, (1 << len(space)) - 1)
    bits = data.draw(st.lists(patterns, max_size=40), label="bits")
    assert list(space.render_each(bits)) == [space.render(b) for b in bits]
    assert list(space.render_each(range(min(1 << len(space), 256)))) == [
        space.render(b) for b in range(min(1 << len(space), 256))
    ]


def test_subset_renderings_of_the_empty_space():
    space = CoeventSpace(algebra_of_size(2), ())
    assert space.subset_renderings() == ["[]"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_subset_renderings_stop_doubling_past_the_limit(data):
    """With a limit the list is the full list's prefix of the first power of
    two above the limit (or all of it): its first ``limit`` strings are the
    full list's, and it holds more than ``limit`` iff the full list does.

    The full list has 2^|V| strings and a drawn run of duals has up to 64
    members, so the full list itself is built only for |V| <= 12; every
    drawn space checks its cut lists against ``render`` of each bit pattern.
    """
    space = data.draw(st.one_of(mixed_spaces(), dual_spaces()), label="space")
    size = 1 << len(space)
    full = space.subset_renderings() if len(space) <= 12 else None
    if full is not None:
        assert full == [space.render(b) for b in range(size)]
        assert space.subset_renderings(None) == full
    for limit in (0, 1, 5):
        head = space.subset_renderings(limit)
        assert head == [space.render(b) for b in range(min(size, 1 << limit.bit_length()))]
        if full is not None:
            assert head == full[: 1 << limit.bit_length()]
            assert head[:limit] == full[:limit]
        assert (len(head) > limit) == (size > limit)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_section_complete_lists_the_first_members_and_marks_the_cut(data):
    """Both modes list ``render(b)`` for the first min(size, limit) member
    bits in ascending order, and add ``members_truncated`` iff size > limit;
    every other key is the uncut section's."""
    drawn = data.draw(st.one_of(mixed_spaces(), dual_spaces()), label="space")
    space = CoeventSpace(drawn.algebra, drawn.members[:6], "user-supplied")
    mode = data.draw(st.sampled_from(["upper", "boolean"]), label="mode")
    if mode == "upper":
        member_bits = sorted(upper_closure_oracle(space))
    else:
        member_bits = range(1 << len(space))
    uncut = section_complete(space, None, mode, limit=None)
    assert uncut["size"] == len(member_bits)
    assert uncut["members"] == [space.render(b) for b in member_bits]
    assert "members_truncated" not in uncut
    for limit in (0, 1, 5, WITNESS_LIST_CAP):
        section = section_complete(space, None, mode, limit)
        assert section["members"] == [space.render(b) for b in member_bits[:limit]]
        assert section.pop("members_truncated", False) == (len(member_bits) > limit)
        assert {**section, "members": uncut["members"]} == uncut


@settings(max_examples=60, deadline=None)
@given(space=dual_spaces())
def test_chi_table_rows_are_the_single_queries(space):
    """Each row of the topos section's χ table, and the single query's sieve
    at its (context, event) cell, is ``str(chi_vsupp(...))``: contexts in
    member order, then events in mask order."""
    instance = build_instance(space, cap=space.algebra.space.n)
    alg, names = space.algebra, space.algebra.space.event_names
    cells = [
        (phi, rendered, event, str(chi_vsupp(instance, phi, event)))
        for phi, rendered in zip(space, space.renderings)
        for event in alg.events()
    ]
    assert section_topos(space, None, False, None, None)["chi"] == {
        "mode": "table",
        "rows": [
            {"context": rendered, "event": names[event.mask], "sieve": sieve}
            for _, rendered, event, sieve in cells
        ],
    }
    for phi, _, event, sieve in cells:
        context = alg.event(phi.principal_mask)
        single = section_topos(space, None, context.is_empty, context, event)["chi"]
        assert single == {
            "mode": "single", "context": str(phi), "event": str(event), "sieve": sieve
        }


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_section_tau_renders_the_row(data):
    """The tau section lists the row's members and renders the row as
    ``space.render`` does, on spaces of duals and mixed spaces."""
    space = data.draw(st.one_of(dual_spaces(), mixed_spaces()), label="space")
    event = space.algebra.event(data.draw(st.integers(0, space.algebra.size - 1), label="A"))
    row = space.tau_row(event.mask)
    section = section_tau(space, event)
    assert section["valuation_event"] == space.render(row) == str(tau(event, space))
    assert section["members"] == [space.renderings[i] for i in set_bits(row)]
    assert (section["set"], section["event"]) == (space.provenance, str(event))


def test_valuation_event_rendering():
    from coevents import EventAlgebra, SampleSpace

    alg = EventAlgebra(SampleSpace(("1", "2", "3")))
    space = enumerate_multiplicative(alg)
    val = tau(alg.event_from_labels(["1", "2"]), space)
    assert str(val) == "[{1}*, {2}*, {1,2}*]"
    pair = ValuationEvent(
        space,
        (1 << space.members.index(dual_of_event(alg.event_from_labels(["1", "2"]))))
        | (1 << space.members.index(dual_of_event(alg.full))),
    )
    assert str(pair) == "[{1,2}*, {1,2,3}*]"
