from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from coevents import (
    EventAlgebra,
    EventFamily,
    MismatchedSpace,
    SampleSpace,
    UnknownHistory,
    complement,
    down_closure,
    implies,
    is_filter,
    join,
    meet,
    sym_diff,
    up_closure,
)
from coevents.eventalg import down_set, iter_submasks, iter_supermasks, masks_lacking, set_bits

from conftest import algebra_of_size


def test_sample_space_rejects_duplicates_and_bad_sizes():
    with pytest.raises(ValueError):
        SampleSpace(("h", "h"))
    with pytest.raises(ValueError):
        SampleSpace(())
    with pytest.raises(ValueError):
        SampleSpace(tuple(f"x{i}" for i in range(17)))
    for label in ("", "a,b", "{a", "a}"):  # events would not render apart
        with pytest.raises(ValueError, match="render apart"):
            SampleSpace(("a", "b", label))


def test_label_order_defines_the_encoding():
    space = SampleSpace(("t", "h"))
    assert SampleSpace(["t", "h"]) == space  # a list is held as a tuple
    alg = EventAlgebra(space)
    assert alg.event_from_labels(["t"]).mask == 1
    assert str(alg.event_from_labels(["h", "t"])) == "{t,h}"


def test_meet_join_complement_sym_diff(coin_algebra, abc_algebra):
    h = coin_algebra.event_from_labels(["h"])
    t = coin_algebra.event_from_labels(["t"])
    ht = coin_algebra.full
    assert meet(h, ht) == h  # absorption
    assert sym_diff(h, t) == ht  # disjoint union
    ab = abc_algebra.event_from_labels(["a", "b"])
    assert complement(ab) == abc_algebra.event_from_labels(["c"])
    assert str(complement(ab)) == "{c}"


def test_operations_reject_mismatched_spaces(coin_algebra, abc_algebra):
    h = coin_algebra.event_from_labels(["h"])
    a = abc_algebra.event_from_labels(["a"])
    for op in (meet, join, sym_diff, implies):
        with pytest.raises(MismatchedSpace):
            op(h, a)


def test_implies_examples(coin_algebra, abc_algebra):
    h = coin_algebra.event_from_labels(["h"])
    assert implies(h, h) == coin_algebra.full
    assert implies(coin_algebra.full, h) == h
    a = abc_algebra.event_from_labels(["a"])
    ab = abc_algebra.event_from_labels(["a", "b"])
    assert implies(a, ab) == abc_algebra.full


def test_implies_full_iff_subset(small_algebra):
    alg = small_algebra
    for a in alg.events():
        for b in alg.events():
            assert (implies(a, b) == alg.full) == a.issubset(b)


def test_up_closure_examples(coin_algebra):
    h = coin_algebra.event_from_labels(["h"])
    assert [ev.mask for ev in up_closure(h)] == [h.mask, coin_algebra.full.mask]
    assert len(up_closure(coin_algebra.empty)) == 4


def test_down_closure_size_matches_subset_count(abc_algebra):
    ab = abc_algebra.event_from_labels(["a", "b"])
    # oracle: count subsets by scanning the whole algebra
    expected = sum(1 for ev in abc_algebra.events() if ev.issubset(ab))
    assert expected == 4
    assert len(down_closure(ab)) == expected


def test_closures_are_canonically_ordered(small_algebra):
    for ev in small_algebra.events():
        for family in (up_closure(ev), down_closure(ev)):
            assert list(family.masks) == sorted(set(family.masks))


def test_is_filter_examples(coin_algebra):
    h = coin_algebra.event_from_labels(["h"])
    t = coin_algebra.event_from_labels(["t"])
    full = coin_algebra.full
    ok, principal = is_filter(EventFamily.from_events([h, full]))
    assert ok and principal == h
    ok, principal = is_filter(EventFamily.from_events([h, t, full]))
    assert not ok and principal is None
    assert is_filter(EventFamily.from_masks(coin_algebra.space, [])) == (False, None)


def test_up_closures_are_exactly_the_filters(small_algebra):
    for ev in small_algebra.events():
        ok, principal = is_filter(up_closure(ev))
        assert ok and principal == ev


def test_filter_is_filter_via_closure_oracle(abc_algebra):
    ab = abc_algebra.event_from_labels(["a", "b"])
    family = up_closure(ab)
    ok, principal = is_filter(family)
    assert ok and principal == ab
    # oracle: the family is the up-closure of its minimal element
    assert set(family.masks) == set(up_closure(principal).masks)


@pytest.mark.parametrize("n", [1, 2])
def test_filter_scan_intersection_closed_union_not(n):
    alg = algebra_of_size(n)
    size = alg.size
    families = []
    for code in range(1 << size):
        masks = [m for m in range(size) if code >> m & 1]
        families.append(EventFamily.from_masks(alg.space, masks))
    filters = [f for f in families if is_filter(f)[0]]
    # every up-closure appears, and nothing else does
    assert len(filters) == size
    union_failures = 0
    for f in filters:
        for g in filters:
            inter = EventFamily.from_masks(alg.space, set(f.masks) & set(g.masks))
            assert is_filter(inter)[0]
            union = EventFamily.from_masks(alg.space, set(f.masks) | set(g.masks))
            if not is_filter(union)[0]:
                union_failures += 1
    if n == 2:
        assert union_failures > 0


def test_boolean_lattice_axioms_exhaustive(small_algebra):
    alg = small_algebra
    events = list(alg.events())
    empty, full = alg.empty, alg.full
    for a in events:
        assert meet(a, complement(a)) == empty
        assert join(a, complement(a)) == full
        for b in events:
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert meet(a, join(a, b)) == a
            assert join(a, meet(a, b)) == a
    triples = itertools.product(events, repeat=3) if alg.size <= 8 else (
        (events[i], events[j], events[k])
        for i in range(0, alg.size, 3)
        for j in range(alg.size)
        for k in range(alg.size)
    )
    for a, b, c in triples:
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_lattice_laws_random_masks(data, n):
    alg = EventAlgebra(SampleSpace(tuple(f"x{i}" for i in range(n))))
    masks = st.integers(min_value=0, max_value=alg.size - 1)
    a = alg.event(data.draw(masks))
    b = alg.event(data.draw(masks))
    assert complement(complement(a)) == a
    assert complement(meet(a, b)) == join(complement(a), complement(b))
    assert complement(join(a, b)) == meet(complement(a), complement(b))
    assert sym_diff(a, b) == join(meet(a, complement(b)), meet(b, complement(a)))


def test_submask_iterators_are_ascending_and_complete():
    assert list(iter_submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(iter_supermasks(0b001, 0b111)) == [0b001, 0b011, 0b101, 0b111]


def test_event_rendering(coin_algebra):
    assert str(coin_algebra.full) == "{h,t}"
    assert str(coin_algebra.empty) == "{}"


@given(n=st.integers(1, 6), data=st.data())
def test_every_event_name_parses_back_to_its_event(n, data):
    labels = tuple(f"h{i}" for i in range(n))
    alg = EventAlgebra(SampleSpace(labels))
    names = alg.space.event_names
    assert names == tuple(str(event) for event in alg.events())
    mask = data.draw(st.integers(0, alg.size - 1), label="mask")
    event = alg.event(mask)
    assert alg.parse_event(names[mask]) == event
    assert alg.parse_event(" " + ",".join(event.labels) + ",") == event
    assert alg.parse_mask(names[mask]) == alg.parse_mask(",".join(event.labels)) == mask


def test_parse_event_drops_one_pair_of_braces_and_refuses_unknown_labels(coin_algebra):
    assert coin_algebra.parse_event("{}") == coin_algebra.parse_event("") == coin_algebra.empty
    assert coin_algebra.parse_event("{h,t}") == coin_algebra.full
    with pytest.raises(UnknownHistory):
        coin_algebra.parse_event("{{h}}")
    with pytest.raises(UnknownHistory):
        coin_algebra.parse_event("{h,x}")
    assert coin_algebra.parse_mask(" {t} ") == 0b10 and coin_algebra.parse_mask("{}") == 0
    with pytest.raises(UnknownHistory, match="'x'"):
        coin_algebra.parse_mask("h,x")


@given(mask=st.integers(0, (1 << 10) - 1))
def test_down_set_holds_exactly_the_submasks(mask):
    assert down_set(mask) == sum(1 << m for m in iter_submasks(mask))


@pytest.mark.parametrize("n", range(11))
def test_masks_lacking_holds_exactly_the_masks_without_the_history(n):
    for i in range(n):
        expected = sum(1 << a for a in range(1 << n) if not a >> i & 1)
        assert masks_lacking(n, i) == expected
        assert masks_lacking(n, i) is masks_lacking(n, i)  # built once per (n, i)


@given(bits=st.one_of(st.integers(0, 1 << 12), st.integers(0, 1 << 3000)))
def test_set_bits_lists_the_set_positions_in_ascending_order(bits):
    assert set_bits(bits) == [a for a in range(bits.bit_length()) if bits >> a & 1]


def bit_positions(bits: int) -> list[int]:
    return [a for a in range(bits.bit_length()) if bits >> a & 1]


@settings(max_examples=60, deadline=None)
@given(bits=st.one_of(
    st.integers(0, 16).map(lambda i: 1 << (1 << i) - 1),
    st.sets(st.integers(0, (1 << 16) - 1), max_size=600).map(lambda at: sum(1 << a for a in at)),
    st.binary(max_size=1 << 13).map(lambda raw: int.from_bytes(raw, "little")),
))
def test_set_bits_lists_single_bits_and_sparse_and_dense_ints_of_up_to_2_16_bits(bits):
    assert set_bits(bits) == bit_positions(bits)


def crossover_count(length: int) -> int:
    """The fewest set bits that ``set_bits`` lists by the dense pass."""
    return -(-(length << 9) // (length + 4096))


@pytest.mark.parametrize("length", [64, 2048, 4096, 1 << 16])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_set_bits_lists_ints_at_the_strategy_crossover(length, extra):
    """The last int below the dense pass's threshold and the first two on
    it, from about one set bit in 8 at 64 bits to 483 set bits at 2^16."""
    ones = crossover_count(length) + extra
    at = random.Random(length * 3 + extra).sample(range(length - 1), ones - 1) + [length - 1]
    bits = sum(1 << a for a in at)
    assert (bits.bit_count() * (length + 4096) >= length << 9) == (extra >= 0)
    assert set_bits(bits) == bit_positions(bits) == sorted(at)


def test_event_family_dedupes_and_orders(coin_algebra):
    h = coin_algebra.event_from_labels(["h"])
    family = EventFamily.from_events([coin_algebra.full, h, h])
    assert family.masks == (h.mask, coin_algebra.full.mask)
    assert str(family) == "[{h}, {h,t}]"
    assert h in family and coin_algebra.empty not in family
    with pytest.raises(MismatchedSpace):
        EventAlgebra(SampleSpace(("x",))).full in family


@given(masks=st.lists(st.integers(0, 7), max_size=10))
def test_event_family_masks_are_ascending_and_distinct(masks):
    """Sorted input with repeats must be deduplicated too, not only unsorted input."""
    space = algebra_of_size(3).space
    expected = tuple(sorted(set(masks)))
    for given_masks in (masks, sorted(masks)):
        assert EventFamily.from_masks(space, given_masks).masks == expected
        assert EventFamily(space, tuple(given_masks)).masks == expected
        # a list or a generator is stored as the same tuple, so the families
        # are equal and hash alike
        canonical = EventFamily(space, expected)
        for form in (list(given_masks), (mask for mask in given_masks)):
            family = EventFamily(space, form)
            assert type(family.masks) is tuple and family.masks == expected
            assert family == canonical and hash(family) == hash(canonical)
