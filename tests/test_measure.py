from __future__ import annotations

import copy
import json
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from coevents import measure as measure_mod
from coevents import (
    CoarseGraining,
    DecoherenceSpec,
    EventAlgebra,
    EventFamily,
    GaussianRational,
    InvalidPartition,
    Measure,
    MismatchedSpace,
    SampleSpace,
    ValidationReport,
    Violation,
    classical_preclusive_set,
    coarse_grain,
    is_decoherent,
    measure_from_decoherence,
    multiplicative_scheme,
    null_cover_exists,
    null_sets,
    validate_classical,
    validate_quantum,
)
from coevents.catalog import complex_phases, dirac, fair_coin, three_slit
from coevents.coevent import preclusive_key
from coevents.eventalg import WITNESS_LIST_CAP, down_set, first_witnesses
from coevents.theoryfile import load

from conftest import LETTER_LABELS


def amplitude_oracle(space: SampleSpace, amps: list[GaussianRational]) -> dict[int, Fraction]:
    """Independent route: expand |sum of amplitudes|^2 per event."""
    out = {}
    for mask in range(1 << space.n):
        re = sum((amps[i].re for i in range(space.n) if mask >> i & 1), Fraction(0))
        im = sum((amps[i].im for i in range(space.n) if mask >> i & 1), Fraction(0))
        out[mask] = re * re + im * im
    return out


THREE_SLIT_TABLE = {
    "{}": Fraction(0),
    "{1}": Fraction(1),
    "{2}": Fraction(1),
    "{1,2}": Fraction(4),
    "{3}": Fraction(1),
    "{1,3}": Fraction(0),
    "{2,3}": Fraction(0),
    "{1,2,3}": Fraction(1),
}


def test_three_slit_values_match_amplitude_oracle():
    m = three_slit()
    amps = [GaussianRational.real(1), GaussianRational.real(1), GaussianRational.real(-1)]
    assert dict(m.values) == amplitude_oracle(m.algebra.space, amps)
    by_render = {str(m.algebra.event(k)): v for k, v in m.values.items()}
    assert by_render == THREE_SLIT_TABLE


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_constructors_match_per_event_sums(data):
    """One pair-sum path: |sum of a over A|^2 and sum of w over A, per event."""
    n = data.draw(st.integers(1, 5), label="n")
    space = SampleSpace(tuple("abcde"[:n]))
    amps = data.draw(st.lists(gaussians, min_size=n, max_size=n), label="amplitudes")
    assert dict(Measure.from_amplitudes(space, amps).values) == amplitude_oracle(space, amps)
    weights = data.draw(st.lists(small_fractions, min_size=n, max_size=n), label="weights")
    m = Measure.from_atom_weights(space, dict(zip(space.labels, weights)))
    for mask in range(1 << n):
        picked = (w for i, w in enumerate(weights) if mask >> i & 1)
        assert m.values[mask] == sum(picked, Fraction(0))


def test_fair_coin_is_classical():
    rep = validate_classical(fair_coin())
    assert rep.ok and rep.violations == ()
    assert repr(rep) == (
        "ValidationReport(rule='classical', violations=(), ok=True, truncated=False)"
    )


def test_three_slit_fails_classical_with_the_singleton_pair():
    rep = validate_classical(three_slit())
    assert not rep.ok
    first = rep.violations[0]
    assert [str(ev) for ev in first.events] == ["{1}", "{2}"]
    assert (first.got, first.expected) == (Fraction(4), Fraction(2))
    assert str(first) == "additivity {1} {2}: got 4, expected 2"


def test_dirac_is_classical():
    assert validate_classical(dirac(("a", "b", "c"), "b")).ok


def test_three_slit_passes_quantum():
    assert validate_quantum(three_slit()).ok


def test_breaking_normalization_is_reported():
    m = three_slit()
    values = dict(m.values)
    values[m.algebra.space.full_mask] = Fraction(2)
    edited = Measure(m.algebra, values)
    rep = validate_quantum(edited)
    assert not rep.ok
    assert any(v.rule == "normalization" for v in rep.violations)


def test_negative_value_is_reported():
    m = fair_coin()
    values = dict(m.values)
    values[1] = Fraction(-1, 2)
    rep = validate_quantum(Measure(m.algebra, values))
    assert any(v.rule == "nonnegativity" for v in rep.violations)


def test_nonzero_empty_measure_violates_level2():
    m = fair_coin()
    values = dict(m.values)
    values[0] = Fraction(1, 7)
    rep = validate_quantum(Measure(m.algebra, values))
    level2 = [v for v in rep.violations if v.rule == "level2"]
    assert level2
    assert any(any(ev.is_empty for ev in v.events) for v in level2)


def random_atom_measure(rng: random.Random, n: int) -> Measure:
    space = SampleSpace(LETTER_LABELS[:n])
    while True:
        raw = [rng.randint(0, 8) for _ in range(n)]
        if sum(raw) > 0:
            break
    total = sum(raw)
    weights = {lab: Fraction(raw[i], total) for i, lab in enumerate(space.labels)}
    return Measure.from_atom_weights(space, weights)


def test_classical_measures_pass_both_validators():
    rng = random.Random(2026)
    for _ in range(60):
        m = random_atom_measure(rng, rng.randint(1, 4))
        assert validate_classical(m).ok
        assert validate_quantum(m).ok


def test_null_sets_downward_closed_for_classical_measures():
    rng = random.Random(7)
    for _ in range(40):
        m = random_atom_measure(rng, rng.randint(1, 4))
        nulls = set(null_sets(m).masks)
        for mask in nulls:
            for sub in range(mask + 1):
                if sub & mask == sub:
                    assert sub in nulls


def test_measure_must_be_total():
    space = SampleSpace(("h", "t"))
    from coevents import EventAlgebra

    with pytest.raises(ValueError):
        Measure(EventAlgebra(space), {0: Fraction(0)})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_amplitude_subset_sums_equal_the_rank_one_pair_sums(data):
    """Oracle: the rank-one matrix re_k re_l + im_k im_l, built in Fractions
    and summed over the pairs inside each event.  Both routes reduce to one
    (den, nums) pair, so the tables are equal as pairs, with int parts and
    zero amplitudes among the draws."""
    n = data.draw(st.integers(1, 7), label="n")
    space = SampleSpace(tuple("abcdefg"[:n]))
    parts = st.one_of(small_fractions, st.integers(-3, 3))
    amplitude = st.one_of(st.just(GaussianRational()), st.builds(GaussianRational, parts, parts))
    amps = data.draw(st.lists(amplitude, min_size=n, max_size=n), label="amplitudes")
    rank_one = [[a.re * b.re + a.im * b.im for b in amps] for a in amps]
    assert Measure.from_amplitudes(space, amps).values == pair_sum_values(rank_one, 1 << n)


# The routes that the integer ones replaced, kept as oracles: the pair sums
# of a ``Fraction`` matrix, and the null bits found by a numerator scan.


def pair_sum_values(matrix: list[list[Fraction]], size: int) -> measure_mod.MeasureValues:
    """The pair-sum table of a rational matrix, in integers over its common
    denominator."""
    den, scaled = measure_mod._integer_rows(
        [[measure_mod._ratio_of(x) for x in row] for row in matrix]
    )
    return measure_mod._pair_sum_table(den, scaled, size)


def zero_bits(nums) -> int:
    """The integer whose bit m is set iff ``nums[m] == 0``: ``count`` and
    ``index`` scan the numerators, one byte write per zero."""
    found, mask = bytearray(len(nums) + 7 >> 3), -1
    for _ in range(nums.count(0)):
        mask = nums.index(0, mask + 1)
        found[mask >> 3] |= 1 << (mask & 7)
    return int.from_bytes(found, "little")


# The list-doubling cores that the packed tables replaced, kept as oracles.
# Each builds every event's value in a Python list, one history at a time
# (the events holding history i are those without it, plus its term), and
# reduces through the checked ``MeasureValues(den, nums)``.


def doubling_atom_weight_values(weights: list[measure_mod.Ratio]) -> measure_mod.MeasureValues:
    den, (w,) = measure_mod._integer_rows([weights])
    sums = [0]
    for x in w:
        sums += [s + x for s in sums]
    return measure_mod.MeasureValues(den, sums)


def doubling_amplitude_values(
    amplitudes: list[measure_mod.ComplexRatio],
) -> measure_mod.MeasureValues:
    d, (re_parts, im_parts) = measure_mod._integer_rows(list(zip(*amplitudes)))
    re_sums, im_sums = [0], [0]
    for re, im in zip(re_parts, im_parts):
        re_sums += [s + re for s in re_sums]
        im_sums += [s + im for s in im_sums]
    return measure_mod.MeasureValues(d * d, [x * x + y * y for x, y in zip(re_sums, im_sums)])


def doubling_pair_sums(den: int, matrix: list[list[int]]) -> measure_mod.MeasureValues:
    sums = [0]
    for i, row in enumerate(matrix):
        cross = [row[i]]
        for k in range(i):
            c = row[k] + matrix[k][i]
            cross += [x + c for x in cross]
        sums += [s + x for s, x in zip(sums, cross)]
    return measure_mod.MeasureValues(den, sums)


# Numerators from small to past 2^80, so that squares and sums run past
# 2^64 and the packed tables read back fields wider than 8 bytes.
wide_ints = st.one_of(
    st.integers(-3, 3), st.integers(-(1 << 20), 1 << 20), st.integers(-(1 << 80), 1 << 80)
)
wide_ratios = st.one_of(
    st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, 5])),
    st.tuples(wide_ints, st.one_of(st.integers(1, 6), st.integers(1, 1 << 70))),
)
wide_amplitudes = st.one_of(
    st.just(((0, 1), (0, 1))),
    st.tuples(wide_ratios, wide_ratios),
    st.tuples(wide_ratios, st.just((0, 3))),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_tables_equal_the_list_doubling_cores(data):
    """The three packed cores give the (den, nums) pair of the list-doubling
    cores, reduced through the checked constructor, at n <= 10: negative
    parts, zero amplitudes, mixed denominators and values past 2^64.
    ``MeasureValues`` compare as their (den, nums) pairs."""
    n = data.draw(st.integers(1, 10), label="n")
    space = SampleSpace(tuple("abcdefghij"[:n]))
    weights = data.draw(st.lists(wide_ratios, min_size=n, max_size=n), label="weights")
    assert measure_mod.atom_weight_values(
        space, dict(zip(space.labels, weights))
    ) == doubling_atom_weight_values(weights)
    amps = data.draw(st.lists(wide_amplitudes, min_size=n, max_size=n), label="amplitudes")
    assert measure_mod.amplitude_values(space, amps) == doubling_amplitude_values(amps)
    den = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 1 << 70)), label="den")
    matrix = data.draw(st.lists(
        st.lists(wide_ints, min_size=n, max_size=n), min_size=n, max_size=n
    ), label="matrix")
    assert measure_mod._pair_sum_table(den, matrix, 1 << n) == doubling_pair_sums(den, matrix)


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 128, 256])
def test_packed_fields_hold_the_ends_of_their_signed_range(bits):
    """A table whose largest |value| is its bound reads back at every field
    width: the bound 2^(bits-1) - 1 keeps the width, one more doubles it,
    and both signs read back from the same width.  The table built from
    the numerators is packed when built, and reads back its numerators and
    the null bits of a scan of them."""
    top = (1 << bits - 1) - 1
    assert measure_mod._field_bits(top) == bits and measure_mod._field_bits(top + 1) == 2 * bits
    space = SampleSpace(("a", "b"))
    for x, y in ((top, 0), (-top, 0), (top - 1, 1), (-1, 1 - top), (top + 1, 0), (-top - 1, 0)):
        weights = [(x, 1), (y, 1)]
        got = measure_mod.atom_weight_values(space, dict(zip(space.labels, weights)))
        assert (got.den, got.nums) == (1, (0, x, y, x + y))
        assert got == doubling_atom_weight_values(weights)
        nums = (0, x, y, x + y)
        built = measure_mod.MeasureValues(1, nums)
        assert built._packed is not None and built.packed == got.packed
        assert built.nums == nums and built.null_bits == zero_bits(nums) == got.null_bits


def test_amplitude_gcd_reads_the_cross_terms():
    """(1+2i)/5 and (2+i)/5: d^2 and both |a_i|^2 share the factor 5, but
    mu({a,b}) = 18/25 does not, so only the cross term 2(1*2 + 2*1) = 8
    keeps the table from being divided by 5."""
    space = SampleSpace(("a", "b"))
    table = measure_mod.amplitude_values(space, [((1, 5), (2, 5)), ((2, 5), (1, 5))])
    assert (table.den, table.nums) == (25, (0, 5, 5, 18))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_null_masks_are_the_zero_numerators(data):
    """The walk from zero to zero finds what a scan of every numerator
    finds, on random tables with many zeros, on the all-zero table and on a
    table whose only null is the empty event."""
    n = data.draw(st.integers(1, 6), label="n")
    alg = EventAlgebra(SampleSpace(tuple("abcdef"[:n])))
    drawn = data.draw(st.lists(st.integers(-2, 2), min_size=alg.size, max_size=alg.size))
    for nums in (drawn, [0] * alg.size, [0] + [1] * (alg.size - 1)):
        m = Measure(alg, measure_mod.MeasureValues(1, nums))
        assert m.null_masks == tuple(mask for mask, x in enumerate(nums) if not x)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_null_down_set_is_the_per_mask_or(data):
    """The null bits, closed downward by shifts, give what ORing each null
    mask's submasks (``down_set``) into one integer gives;
    ``null_down_bytes`` holds the same bits.  Up to
    n = 10, so a table runs to 128 bytes, with the no-null and all-null
    tables as well."""
    n = data.draw(st.integers(1, 10), label="n")
    alg = EventAlgebra(SampleSpace(tuple("abcdefghij"[:n])))
    nulls = data.draw(st.sets(st.integers(0, alg.size - 1), max_size=40), label="nulls")
    for zeros in (nulls, set(), set(range(alg.size))):
        nums = [int(e not in zeros) for e in range(alg.size)]
        m = Measure(alg, measure_mod.MeasureValues(1, nums))
        covered = 0
        for e in zeros:
            covered |= down_set(e)
        assert m.null_down_set == covered
        assert m.null_down_bytes == covered.to_bytes((alg.size + 7) // 8, "little")


#: Common factors of a packed table's inputs, from 1 up to 2^45: each
#: widens the fields, from 8 bits to 128, and over a denominator of the same
#: factor it is divided out again by a reducing gcd of its square.
PACKED_SCALES = (1, 1 << 5, 1 << 12, 1 << 28, 1 << 45)


def packed_tables(data, n: int, scale: int, reduced: bool):
    """A builder of one packed table of each stanza kind on n histories, from
    small parts, so that many events cancel to 0, each part times
    ``scale``, over a denominator of ``scale`` when ``reduced``: amplitudes,
    atom weights (negative ones among them) and a symmetric pair-sum
    matrix.  Each call builds the three tables afresh."""
    space = SampleSpace(tuple("abcdefgh"[:n]))
    q = scale if reduced else 1
    small = st.integers(-2, 2)
    parts = data.draw(st.lists(st.tuples(small, small), min_size=n, max_size=n), label="amps")
    weights = data.draw(st.lists(small, min_size=n, max_size=n), label="weights")
    upper = data.draw(st.lists(small, min_size=n * n, max_size=n * n), label="matrix")
    matrix = [[upper[min(i, j) * n + max(i, j)] * scale for j in range(n)] for i in range(n)]
    return lambda: [
        measure_mod.amplitude_values(space, [((a * scale, q), (b * scale, q)) for a, b in parts]),
        measure_mod.atom_weight_values(
            space, {lab: (w * scale, q) for lab, w in zip(space.labels, weights)}
        ),
        measure_mod._pair_sum_table(q, matrix, 1 << n),
    ]


def test_packed_scales_give_every_field_width():
    """The scales reach fields of 8, 16, 32, 64 and 128 bits, and over a
    denominator of the scale the table is reduced back to small values."""
    space = SampleSpace(("a", "b", "c"))
    widths = []
    for scale in PACKED_SCALES:
        for q in (1, scale):
            parts = [((s * scale, q), (0, 1)) for s in (1, 1, -1)]
            table = measure_mod.amplitude_values(space, parts)
            widths.append(table.packed[1])
            assert (table.den, table.nums[7]) == ((1, scale * scale) if q == 1 else (1, 1))
    assert widths == [8, 8, 16, 16, 32, 32, 64, 64, 128, 128]


@pytest.mark.parametrize("reduced", [False, True], ids=["gcd1", "reduced"])
@pytest.mark.parametrize("scale", PACKED_SCALES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_null_bits_of_packed_tables_match_their_numerators(scale, reduced, data):
    """A packed table's ``null_bits``, read from its fields, has bit m set
    iff numerator m is 0, and so has its twin built from the numerators;
    the measure's null masks, down-closure and cover verdict, read from the
    bits before any numerator is unpacked, equal their definitions."""
    n = data.draw(st.integers(1, 8), label="n")
    for table in packed_tables(data, n, scale, reduced)():
        m = Measure(EventAlgebra(SampleSpace(tuple("abcdefgh"[:n]))), table)
        null_masks, down, cover = m.null_masks, m.null_down_set, null_cover_exists(m)
        assert table._nums is None  # nothing above read the numerators
        nulls = [mask for mask, x in enumerate(table.nums) if x == 0]
        assert table.null_bits == sum(1 << mask for mask, x in enumerate(table.nums) if x == 0)
        assert measure_mod.MeasureValues(table.den, table.nums).null_bits == table.null_bits
        assert null_masks == tuple(nulls)
        covered = 0
        for mask in nulls:
            covered |= down_set(mask)
        assert down == covered
        union = 0
        for mask in nulls:
            union |= mask
        assert cover == (union == m.algebra.space.full_mask)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_tables_pickle_copy_and_compare_before_and_after_unpacking(data):
    """A packed table pickles, copies and deep-copies to one equal to its
    twin built from the numerators, whether or not its numerators have
    been unpacked, and neither pickling nor copying unpacks them."""
    n = data.draw(st.integers(1, 6), label="n")
    scale = data.draw(st.sampled_from(PACKED_SCALES), label="scale")
    reduced = data.draw(st.booleans(), label="reduced")
    build = packed_tables(data, n, scale, reduced)
    for before, after in zip(build(), build()):
        twin = measure_mod.MeasureValues(after.den, after.nums)
        for table in (before, after):
            copies = [pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)]
            assert (table._nums is None) == (table is before)
            for copied in copies + [table]:
                assert copied == twin and twin == copied
                assert copied.null_bits == twin.null_bits and len(copied) == len(twin)


def amplitude_tables(data, n: int, scale: int, reduced: bool):
    """A builder of the amplitude table of n drawn amplitudes, each part
    from -2..2, so that many events cancel to 0, times ``scale``, over a
    denominator of ``scale`` when ``reduced``; all real, all imaginary or
    complex, so that either part sum may set the width of the sums'
    fields.  Each call builds the table afresh, unbuilt."""
    space = SampleSpace(tuple("abcdefghi"[:n]))
    q = scale if reduced else 1
    small = st.integers(-2, 2)
    parts = data.draw(st.lists(st.tuples(small, small), min_size=n, max_size=n), label="amps")
    kind = data.draw(st.sampled_from(["complex", "real", "imaginary"]), label="kind")
    if kind != "complex":
        parts = [(a, 0) if kind == "real" else (0, b) for a, b in parts]
    ratios = [((a * scale, q), (b * scale, q)) for a, b in parts]
    return lambda: measure_mod.amplitude_values(space, ratios)


@pytest.mark.parametrize("reduced", [False, True], ids=["gcd1", "reduced"])
@pytest.mark.parametrize("scale", PACKED_SCALES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_amplitude_null_bits_from_the_sums_match_the_table(scale, reduced, data):
    """An amplitude table's ``null_bits``, read before anything else, come
    from its amplitude sums and build no table; they equal the bits read
    from the fields of a twin whose numerators were read first, and the
    numerator scan; reading the numerators after them changes nothing."""
    n = data.draw(st.integers(1, 9), label="n")
    build = amplitude_tables(data, n, scale, reduced)
    lazy, read = build(), build()
    nums = read.nums
    bits = lazy.null_bits
    assert lazy._packed is None and lazy._den is None  # no table was built
    assert bits == read.null_bits == zero_bits(nums)
    assert lazy.nums == nums and lazy.null_bits == bits


def test_no_amplitude_sum_hides_in_the_other_part():
    """An event whose real sum is 2^k and whose imaginary sum is -1, or the
    reverse, is not null, for every k up to 100, while {b, c}, whose
    parts cancel, is: neither part's sum can carry into the other's bits
    of a field, whichever part is the larger, and 2^k reaches the top of
    every field width."""
    space = SampleSpace(("a", "b", "c"))
    for k in range(101):
        q = 1 << k
        for parts in ([(q, 0), (0, -1), (0, 1)], [(0, q), (-1, 0), (1, 0)]):
            ratios = [((a, 1), (b, 1)) for a, b in parts]
            lazy, read = (measure_mod.amplitude_values(space, ratios) for _ in range(2))
            assert lazy.null_bits == zero_bits(read.nums) == 0b1000001, k


#: Each read that builds an unbuilt amplitude table, as a function of it.
FIRST_READS = {
    "den": lambda t: t.den,
    "nums": lambda t: t.nums,
    "packed": lambda t: t.packed,
    "interference": lambda t: t.interference,
    "value": lambda t: t[len(t) - 1],
    "repr": repr,
}


@pytest.mark.parametrize("reduced", [False, True], ids=["gcd1", "reduced"])
@pytest.mark.parametrize("scale", PACKED_SCALES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_an_unbuilt_amplitude_table_reads_as_one_read_first(scale, reduced, data):
    """Whichever read comes first, an amplitude table gives what a twin
    whose values were all read first gives, and compares equal to it; its
    pickle, copy and deep copy stay unbuilt until read, and then read as
    the twin does."""
    n = data.draw(st.integers(1, 9), label="n")
    build = amplitude_tables(data, n, scale, reduced)
    twin = build()
    values = [twin[mask] for mask in twin]
    for name, first in FIRST_READS.items():
        lazy = build()
        assert first(lazy) == first(twin), name
        assert [lazy[mask] for mask in lazy] == values
    for name, first in FIRST_READS.items():
        lazy = build()
        copies = [pickle.loads(pickle.dumps(lazy)), copy.copy(lazy), copy.deepcopy(lazy)]
        assert lazy._den is None and all(c._den is None and c._packed is None for c in copies)
        for copied in copies + [lazy]:
            assert first(copied) == first(twin), name
            assert copied == twin and twin == copied
            assert copied.null_bits == twin.null_bits and copied.interference == twin.interference


def test_racing_first_reads_of_an_amplitude_table_agree():
    """Threads racing to the first reads of one amplitude table, each in
    its own order, all read what a table built before them holds."""
    space = SampleSpace(tuple("abcdefghij"))
    ratios = [((a, 7), (b, 5)) for a, b in zip(range(-5, 5), range(3, -7, -1))]
    twin = measure_mod.amplitude_values(space, ratios)
    names = ("den", "nums", "packed", "null_bits", "interference")
    expected = [getattr(twin, name) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            lazy = measure_mod.amplitude_values(space, ratios)
            seen = [None] * 8

            def read(k: int) -> None:
                order = names[k % 5:] + names[:k % 5]
                got = {name: getattr(lazy, name) for name in order}
                seen[k] = [got[name] for name in names]

            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_the_scale_scheme_op_builds_no_amplitude_table():
    """The scheme op that the benchmark's ``scale`` workload times reads only
    the null sets, so it leaves the amplitude table unbuilt: on complex
    amplitudes with 14 null sets, and on three slits."""
    path = Path(__file__).resolve().parent / "golden" / "theories" / "amplitudes_complex_11.json"
    theory = json.loads(path.read_text())
    space = SampleSpace(tuple(theory["sample_space"]))
    amps = [
        GaussianRational(Fraction(a["re"]), Fraction(a["im"]))
        for a in theory["measure"]["amplitudes"]
    ]
    three = [GaussianRational.real(1), GaussianRational.real(1), GaussianRational.real(-1)]
    for space, amps, count in ((space, amps, 14), (SampleSpace(("1", "2", "3")), three, 3)):
        m = Measure.from_amplitudes(space, amps)
        null_cover_exists(m)
        classical_preclusive_set(m)
        str(multiplicative_scheme(m))
        nulls = null_sets(m)
        for key in range(m.algebra.size):
            preclusive_key(key, m)
        assert m.values._packed is None and m.values._den is None
        assert nulls.masks == tuple(mask for mask, v in m.values.items() if v == 0)
        assert len(nulls) == count


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_values_read_back_exactly_from_one_reduced_pair(data):
    """Values are integer numerators over one denominator, reduced together;
    every read gives back the table's value as a Fraction."""
    n = data.draw(st.integers(1, 5), label="n")
    alg = EventAlgebra(SampleSpace(tuple("abcde"[:n])))
    table = dict(enumerate(data.draw(st.lists(
        table_values, min_size=alg.size, max_size=alg.size
    ), label="table")))
    m = Measure(alg, table)
    assert len(m.values) == alg.size and list(m.values) == list(range(alg.size))
    for mask, value in table.items():
        assert m.values[mask] == value and type(m.values[mask]) is Fraction
    for outside in (-1, alg.size, "0"):
        assert outside not in m.values
        with pytest.raises(KeyError):
            m.values[outside]
    den, nums = m.values.den, m.values.nums
    assert den > 0 and math.gcd(den, *nums) == 1
    as_ints = {mask: v.numerator if v.denominator == 1 else v for mask, v in table.items()}
    assert Measure.from_table(alg, as_ints) == m
    halved = Measure(alg, {mask: v / 2 for mask, v in table.items()})
    assert (halved == m) == (not any(table.values()))
    assert m.null_masks == tuple(mask for mask, v in table.items() if v == 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_pair_whichever_constructor_builds_the_measure(data):
    """Amplitudes summing to 1 need no rescaling, so the amplitude measure, its
    value table and the decoherence matrix of the same amplitudes agree on
    (den, nums), not just on the values."""
    n = data.draw(st.integers(1, 5), label="n")
    space = SampleSpace(tuple("abcde"[:n]))
    amps = data.draw(st.lists(gaussians, min_size=n - 1, max_size=n - 1), label="amplitudes")
    rest = GaussianRational.real(1)
    for a in amps:
        rest = rest - a
    amps.append(rest)
    direct = Measure.from_amplitudes(space, amps)
    table = Measure.from_table(direct.algebra, dict(direct.values))
    matrix = measure_from_decoherence(DecoherenceSpec.from_amplitudes(space, amps))
    for m in (table, matrix):
        assert (m.values.den, m.values.nums) == (direct.values.den, direct.values.nums)
        assert m == direct


def test_measure_from_table():
    from coevents import EventAlgebra

    alg = EventAlgebra(SampleSpace(("h", "t")))
    m = Measure.from_table(alg, {0: 0, 1: "1/2", 2: Fraction(1, 2), 3: 1})
    assert m.values[1] == Fraction(1, 2)
    assert m(alg.event(1)) == Fraction(1, 2) and m(alg.full) == 1
    with pytest.raises(MismatchedSpace):
        m(EventAlgebra(SampleSpace(("h", "t", "x"))).full)
    assert validate_classical(m).ok


# A float is a binary fraction (0.1 is 3602879701896397/2^55), never an
# exact input: each constructor refuses one with a TypeError that names it.


def test_from_table_refuses_a_float():
    alg = EventAlgebra(SampleSpace(("h", "t")))
    with pytest.raises(TypeError, match=r"^0\.5 is not an exact rational"):
        Measure.from_table(alg, {0: 0, 1: 0.5, 2: "1/2", 3: 1})


def test_from_atom_weights_refuses_a_float():
    with pytest.raises(TypeError, match=r"^0\.1 is not an exact rational"):
        Measure.from_atom_weights(SampleSpace(("a", "b")), {"a": 0.1, "b": 0.9})


def test_measure_refuses_a_float():
    alg = EventAlgebra(SampleSpace(("h",)))
    with pytest.raises(TypeError, match=r"^0\.0 is not an exact rational"):
        Measure(alg, {0: 0.0, 1: 1.0})


def test_from_amplitudes_refuses_a_float_part():
    space = SampleSpace(("a", "b"))
    with pytest.raises(TypeError, match=r"^0\.5 is not an exact rational"):
        Measure.from_amplitudes(space, [GaussianRational(0.5, 0), GaussianRational.real(1)])


def test_real_gaussian_rational_refuses_a_float():
    assert GaussianRational.real(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    with pytest.raises(TypeError, match=r"^0\.5 is not an exact rational"):
        GaussianRational.real(0.5)


def test_gaussian_rational_refuses_an_inexact_part_and_builds_results_unchecked(monkeypatch):
    for parts in ((0.5, 0), (Fraction(1), 0.5)):
        with pytest.raises(TypeError, match=r"^0\.5 is not an exact rational"):
            GaussianRational(*parts)
    with pytest.raises(TypeError, match=r"^'1/2' is not an exact rational"):
        GaussianRational(im="1/2")
    assert GaussianRational() == GaussianRational(0, 0)

    g, h = GaussianRational(1, Fraction(1, 2)), GaussianRational(Fraction(-2, 3), 3)
    expected = (
        GaussianRational(Fraction(1, 3), Fraction(7, 2)),
        GaussianRational(Fraction(5, 3), Fraction(-5, 2)),
        GaussianRational(Fraction(-13, 6), Fraction(8, 3)),
        GaussianRational(1, Fraction(-1, 2)),
    )

    def refuse(x):
        raise AssertionError("an arithmetic result was checked")

    monkeypatch.setattr(measure_mod, "_ratio_of", refuse)  # results are exact by construction
    results = (g + h, g - h, g * h, g.conjugate())
    assert results == expected
    assert all(type(part) in (int, Fraction) for r in results for part in (r.re, r.im))


# ---------------------------------------------------------------------------
# Closed-form verdicts against brute-force enumeration


def is_additive_oracle(values, size: int) -> bool:
    """Additivity on numerators, by its closed form: it holds on every
    disjoint pair iff it holds on each (low(A), A minus low(A)); at
    A = {i} that forces mu(empty) = 0, and by induction mu(A) is then the
    sum of its atoms."""
    return all(
        values[a] == values[a & -a] + values[a & (a - 1)] for a in range(1, size)
    )


def is_grade2_oracle(values, size: int) -> bool:
    """The level-2 sum rule on numerators, by its closed form.

    The triples ({i}, {j}, C) it checks are among the rule's triples.
    Conversely the grade-2 extension
    nu(A) = sum mu(i) + sum_{i<j} (mu(ij) - mu(i) - mu(j)) satisfies the
    rule and the same recurrence, and agrees with mu on events of at most
    two histories, so by induction mu = nu.
    """
    if values[0] != 0:
        return False
    for a in range(size):
        rest = a & (a - 1)
        c = rest & (rest - 1)
        if c == 0:
            continue
        i = a ^ rest
        j = rest ^ c
        expected = (
            values[i | j] + values[i | c] + values[j | c]
            - values[i] - values[j] - values[c]
        )
        if values[a] != expected:
            return False
    return True


def brute_force_classical(m: Measure) -> ValidationReport:
    """Oracle: additivity on every unordered disjoint pair, a <= b."""
    alg, v = m.algebra, m.values
    violations = []
    for a in range(alg.size):
        for b in range(a, alg.size):
            if a & b == 0 and v[a | b] != v[a] + v[b]:
                violations.append(Violation(
                    "additivity", (alg.event(a), alg.event(b)), v[a | b], v[a] + v[b]
                ))
    return ValidationReport("classical", tuple(violations), ok=not violations)


def brute_force_quantum(m: Measure) -> ValidationReport:
    """Oracle: sign and normalization, then every disjoint triple a <= b <= c."""
    alg, v = m.algebra, m.values
    violations = [
        Violation("nonnegativity", (alg.event(k),), v[k], Fraction(0))
        for k in range(alg.size)
        if v[k] < 0
    ]
    if v[alg.space.full_mask] != 1:
        violations.append(
            Violation("normalization", (alg.full,), v[alg.space.full_mask], Fraction(1))
        )
    for a in range(alg.size):
        for b in range(a, alg.size):
            for c in range(b, alg.size):
                if a & b or c & (a | b):
                    continue
                expected = v[a | b] + v[b | c] + v[a | c] - v[a] - v[b] - v[c]
                if v[a | b | c] != expected:
                    violations.append(Violation(
                        "level2",
                        (alg.event(a), alg.event(b), alg.event(c)),
                        v[a | b | c],
                        expected,
                    ))
    return ValidationReport("quantum", tuple(violations), ok=not violations)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
# Mixed denominators, negative values and many exact zeros.
table_values = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=12)
)
PERTURBED_EVENTS = ("empty", "singleton", "pair", "larger", "full")


def draw_measure(data, kind: str) -> Measure:
    n = data.draw(st.integers(1, 5), label="n")
    space = SampleSpace(tuple("abcde"[:n]))
    if kind == "table":
        values = data.draw(st.lists(table_values, min_size=1 << n, max_size=1 << n))
        return Measure(EventAlgebra(space), dict(enumerate(values)))
    if kind == "additive":
        weights = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
        return Measure.from_atom_weights(space, dict(zip(space.labels, weights)))
    if kind == "amplitude":
        amps = data.draw(st.lists(gaussians, min_size=n, max_size=n))
        return Measure.from_amplitudes(space, amps)
    a = data.draw(st.lists(gaussians, min_size=n, max_size=n))
    b = data.draw(st.lists(gaussians, min_size=n, max_size=n))
    rows = [[a[i] * a[j].conjugate() + b[i] * b[j].conjugate() for j in range(n)]
            for i in range(n)]
    total = sum((x.re for row in rows for x in row), Fraction(0))
    assume(total != 0)
    scale = GaussianRational.real(1 / total)
    spec = DecoherenceSpec.from_rows(space, [[x * scale for x in row] for row in rows])
    return measure_from_decoherence(spec)


def perturb(data, m: Measure, where: str) -> Measure:
    n = m.algebra.space.n
    sizes = {"empty": [0], "singleton": [1], "pair": [2],
             "larger": list(range(3, n)), "full": [n]}[where]
    masks = [k for k in range(m.algebra.size) if bin(k).count("1") in sizes]
    if not masks:
        return m
    mask = data.draw(st.sampled_from(masks), label="perturbed mask")
    delta = data.draw(small_fractions.filter(bool), label="delta")
    values = dict(m.values)
    values[mask] += delta
    return Measure(m.algebra, values)


MEASURE_KINDS = ["additive", "amplitude", "decoherence", "table"]


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_validators_match_brute_force(kind, data):
    m = draw_measure(data, kind)
    if kind == "decoherence":
        assert validate_quantum(m) == brute_force_quantum(m)
    where = data.draw(st.sampled_from((None,) + PERTURBED_EVENTS), label="perturbed")
    if where is not None:
        m = perturb(data, m, where)
    classical, quantum = brute_force_classical(m), brute_force_quantum(m)
    assert validate_classical(m, limit=None) == classical
    assert validate_quantum(m, limit=None) == quantum
    # A wrong "fails" verdict would only cost an enumeration, so check it too.
    size = m.algebra.size
    assert is_additive_oracle(m.values.nums, size) == classical.ok
    level2_ok = all(v.rule != "level2" for v in quantum.violations)
    assert is_grade2_oracle(m.values.nums, size) == level2_ok


def packed_values(den: int, nums: list[int]) -> measure_mod.MeasureValues:
    """The table of ``nums`` over den packed as the integer cores pack theirs,
    through ``_table_values``."""
    bits = measure_mod._field_bits(max(map(abs, nums)))
    table = sum(x << bits * mask for mask, x in enumerate(nums))
    ones = sum(1 << bits * mask for mask in range(len(nums)))
    return measure_mod._table_values(den, math.gcd(den, *nums), table, ones, bits)


STANZA_KINDS = ("event_table", "atom_weights", "amplitudes", "decoherence")
#: Perturbations of one entry, from 1 to past 2^64 and 2^100, so that the
#: perturbed table's fields are 8 to 128 bits wide.
DELTAS = (1, 3, 1 << 20, 1 << 60, 1 << 100)


def stanza_values(data, kind: str) -> measure_mod.MeasureValues:
    """A table of one stanza kind on n <= 8 histories, from its integer core,
    its small parts times a scale of up to 2^70, over a denominator that may
    be reduced away; an event table holds the values of another kind as
    numerators.  Then, about half the time, one entry moved by a drawn
    delta of either sign, the table repacked as its core packs it (an event
    table: as numerators)."""
    n = data.draw(st.integers(1, 8), label="n")
    space = SampleSpace(tuple("abcdefgh"[:n]))
    q = data.draw(st.sampled_from([1, 2, 9]), label="den")
    scale = data.draw(st.sampled_from([1, 1, 1 << 28, 1 << 70]), label="scale")
    small = st.integers(-2, 2).map(lambda x: x * scale)
    source = kind if kind != "event_table" else data.draw(
        st.sampled_from(STANZA_KINDS[1:]), label="values of"
    )
    if source == "atom_weights":
        weights = data.draw(st.lists(small, min_size=n, max_size=n), label="weights")
        table = measure_mod.atom_weight_values(
            space, {lab: (w, q) for lab, w in zip(space.labels, weights)}
        )
    elif source == "amplitudes":
        parts = data.draw(st.lists(st.tuples(small, small), min_size=n, max_size=n), label="amps")
        table = measure_mod.amplitude_values(space, [((a, q), (b, q)) for a, b in parts])
    else:
        upper = data.draw(st.lists(small, min_size=n * n, max_size=n * n), label="matrix")
        matrix = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
        table = measure_mod._pair_sum_table(q, matrix, 1 << n)
    nums = list(table.nums)
    if data.draw(st.booleans(), label="perturbed") or kind == "event_table":
        if nums and data.draw(st.booleans(), label="perturb one entry"):
            mask = data.draw(st.integers(0, len(nums) - 1), label="mask")
            delta = data.draw(st.sampled_from(DELTAS), label="delta")
            nums[mask] += delta if data.draw(st.booleans(), label="up") else -delta
        if kind == "event_table":
            return measure_mod.MeasureValues(table.den, nums)
        return packed_values(table.den, nums)
    return table


@pytest.mark.parametrize("kind", STANZA_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verdicts_from_the_interference_terms_match_the_closed_forms(kind, data):
    """Both sum-rule verdicts, read from the Möbius transform, against the
    closed-form oracles on the numerators, for tables of every stanza kind
    with one entry perturbed or none; nonnegativity and normalization as
    the quantum report lists them: the negative events first, then
    normalization iff the last numerator is not the denominator."""
    table = stanza_values(data, kind)
    m = Measure(EventAlgebra(SampleSpace(tuple("abcdefgh"[:len(table).bit_length() - 1]))), table)
    classical, quantum = validate_classical(m), validate_quantum(m)
    additive, grade2 = measure_mod._obeys_grade(table, 1), measure_mod._obeys_grade(table, 2)
    x, size = table.nums, len(table)
    assert additive == classical.ok == is_additive_oracle(x, size)
    assert grade2 == is_grade2_oracle(x, size)
    normalized = x[-1] == table.den
    assert quantum.ok == (min(x) >= 0 and grade2 and normalized)
    negatives = [mask for mask, value in enumerate(x) if value < 0]
    listed = validate_quantum(m, limit=len(negatives) + 1).violations
    assert [(v.rule, v.events[0].mask) for v in listed[:len(negatives)]] == [
        ("nonnegativity", mask) for mask in negatives
    ]
    after = listed[len(negatives):]
    assert (bool(after) and after[0].rule == "normalization") == (not normalized)


def test_a_passing_packed_table_unpacks_no_numerator():
    """Both validators pass on a packed table with its numerators unread."""
    path = Path(__file__).resolve().parent / "golden" / "theories" / "atom_weights_12.json"
    m = load(path).measure
    assert validate_classical(m).ok and validate_quantum(m).ok
    assert m.values._nums is None


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_constructor_holds_the_reduced_pair(kind, data):
    """The pair-sum constructors sum over the matrix's denominator, which
    can be finer than the values' (off-diagonal entries cancel), so the
    pair is reduced: rebuilding from the Fraction values gives it back."""
    m = draw_measure(data, kind)
    rebuilt = Measure.from_table(m.algebra, dict(m.values))
    assert (rebuilt.values.den, rebuilt.values.nums) == (m.values.den, m.values.nums)


def test_pair_sums_reduce_below_the_matrix_denominator():
    """Off-diagonal quarters enter every pair sum twice, so the values are
    halves: the sums over 4 must be reduced to the pair over 2."""
    half, quarter = GaussianRational.real(Fraction(1, 2)), GaussianRational.real(Fraction(1, 4))
    spec = DecoherenceSpec.from_rows(
        SampleSpace(("a", "b")), [[half, quarter], [quarter, GaussianRational()]]
    )
    m = measure_from_decoherence(spec)
    assert (m.values.den, m.values.nums) == (2, (0, 1, 0, 2))


def cut_points(total: int) -> list[int]:
    """The limits at which a witness list can change shape: 0, 1 and either
    side of its full length."""
    return sorted({0, 1, total - 1, total, total + 1} - {-1})


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@pytest.mark.parametrize("validator", [validate_classical, validate_quantum])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cut_violation_lists_are_prefixes_of_the_full_listing(kind, validator, data):
    m = draw_measure(data, kind)
    where = data.draw(st.sampled_from((None,) + PERTURBED_EVENTS), label="perturbed")
    if where is not None:
        m = perturb(data, m, where)
    full = validator(m, limit=None)
    assert not full.truncated
    total = len(full.violations)
    for limit in cut_points(total):
        rep = validator(m, limit=limit)
        assert rep.violations == full.violations[:limit]
        assert rep.truncated == (total > limit)
        assert rep.ok == full.ok == (total == 0)


def test_default_limit_cuts_a_large_listing():
    """At n = 9 the amplitude measure below has thousands of additivity
    violations; the default lists the first WITNESS_LIST_CAP of them."""
    space = SampleSpace(tuple("abcdefghi"))
    amps = [GaussianRational.real((1, 1, -1)[i % 3]) for i in range(space.n)]
    m = Measure.from_amplitudes(space, amps)
    rep = validate_classical(m)
    assert not rep.ok and rep.truncated
    assert len(rep.violations) == WITNESS_LIST_CAP
    assert rep.violations == validate_classical(m, limit=None).violations[: len(rep.violations)]


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_deferred_reports_equal_the_eager_listing(kind, data):
    """A report lists its witnesses on first read; what it lists, and its
    cut, are those of first_witnesses run at once on the full listing,
    whichever of ``violations`` and ``truncated`` is read first."""
    m = draw_measure(data, kind)
    where = data.draw(st.sampled_from((None,) + PERTURBED_EVENTS), label="perturbed")
    if where is not None:
        m = perturb(data, m, where)
    oracles = {validate_classical: brute_force_classical, validate_quantum: brute_force_quantum}
    for validator, oracle in oracles.items():
        full = oracle(m)
        for limit in (None, 0, 1, WITNESS_LIST_CAP):
            violations, truncated = first_witnesses(iter(full.violations), limit)
            eager = ValidationReport(full.rule, violations, ok=full.ok, truncated=truncated)
            rep = validator(m, limit=limit)
            assert rep.ok == full.ok
            if data.draw(st.booleans(), label="read truncated first"):
                assert rep.truncated == truncated
            assert rep == eager and hash(rep) == hash(eager)
            assert (rep.violations, rep.truncated) == (violations, truncated)


def test_witnesses_are_listed_once_on_first_read(monkeypatch):
    """No pair or triple is walked until the report's witnesses are read,
    and a second read walks none."""
    steps = {"pairs": 0, "triples": 0}

    def counting(name, walk):
        def counted(size):
            for step in walk(size):
                steps[name] += 1
                yield step
        return counted

    monkeypatch.setattr(
        measure_mod, "_iter_disjoint_pairs",
        counting("pairs", measure_mod._iter_disjoint_pairs),
    )
    monkeypatch.setattr(
        measure_mod, "_iter_disjoint_triples",
        counting("triples", measure_mod._iter_disjoint_triples),
    )
    alg = EventAlgebra(SampleSpace(tuple("abcd")))
    m = Measure(alg, {k: Fraction(k**3) for k in range(alg.size)})  # fails both rules
    listers = {
        validate_classical: lambda: measure_mod._additivity_violations(m),
        validate_quantum: lambda: measure_mod._quantum_violations(m, True, False),
    }
    for validator, read in [
        (validate_classical, "violations"), (validate_classical, "truncated"),
        (validate_quantum, "violations"), (validate_quantum, "truncated"),
    ]:
        steps.update(pairs=0, triples=0)
        eager = first_witnesses(listers[validator](), 3)
        eager_steps = dict(steps)
        steps.update(pairs=0, triples=0)
        rep = validator(m, limit=3)
        assert not rep.ok
        assert steps == {"pairs": 0, "triples": 0}
        first = getattr(rep, read)
        walked = dict(steps)
        assert walked == eager_steps and walked["pairs"] > 0
        assert (walked["triples"] > 0) == (validator is validate_quantum)
        assert (rep.violations, rep.truncated) == eager
        assert getattr(rep, read) == first
        assert (len(rep.violations), rep.truncated) == (3, True)
        assert steps == walked


def test_reports_pickle_before_and_after_listing():
    m = three_slit()
    unlisted, listed = validate_classical(m, limit=1), validate_classical(m, limit=1)
    assert listed.truncated
    for rep in (unlisted, listed):
        copied = pickle.loads(pickle.dumps(rep))
        assert copied == rep and copied.truncated and len(copied.violations) == 1


@pytest.mark.parametrize("validator", [validate_classical, validate_quantum])
def test_an_unlisted_report_lists_only_on_a_witness_field(monkeypatch, validator):
    """On a report not yet listed, a misspelt name raises AttributeError and
    lists nothing; a copy or deep copy taken then equals the listed report;
    and the record fields are the public ones only."""
    calls, listing = [], measure_mod._first_violations

    def spy(*args):
        calls.append(args)
        return listing(*args)

    monkeypatch.setattr(measure_mod, "_first_violations", spy)
    alg = EventAlgebra(SampleSpace(tuple("abc")))
    rep = validator(Measure(alg, {k: Fraction(k**3) for k in range(alg.size)}), limit=1)
    assert not rep.ok
    for name in ("violation", "truncate", "_listing", "__setstate__"):
        with pytest.raises(AttributeError):
            getattr(rep, name)
    copies = copy.copy(rep), copy.deepcopy(rep)
    assert calls == []
    assert list(type(rep)._fields) == ["rule", "violations", "ok", "truncated"]
    assert rep.truncated and len(rep.violations) == 1 and len(calls) == 1
    assert set(vars(rep)) == set(type(rep)._fields)  # the lister is dropped
    for copied in copies:
        assert copied == rep and hash(copied) == hash(rep) and repr(copied) == repr(rep)
    assert len(calls) == 3  # each copy listed once, on its own first read


# ---------------------------------------------------------------------------
# Decoherence matrices


def test_rank_one_matrix_reproduces_three_slit():
    space = SampleSpace(("1", "2", "3"))
    amps = [GaussianRational.real(1), GaussianRational.real(1), GaussianRational.real(-1)]
    spec = DecoherenceSpec.from_amplitudes(space, amps)
    m = measure_from_decoherence(spec)
    assert dict(m.values) == dict(three_slit().values)
    assert validate_quantum(m).ok


def test_measure_from_decoherence_runs_no_validator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("measure_from_decoherence ran a sum-rule validator")

    monkeypatch.setattr(measure_mod, "validate_quantum", refuse)
    monkeypatch.setattr(measure_mod, "validate_classical", refuse)
    space = SampleSpace(("1", "2", "3"))
    amps = [GaussianRational.real(1), GaussianRational.real(1), GaussianRational.real(-1)]
    m = measure_from_decoherence(DecoherenceSpec.from_amplitudes(space, amps))
    assert m == three_slit()
    assert list(Measure._fields) == ["algebra", "values"]


def test_diagonal_matrix_gives_uniform_classical():
    space = SampleSpace(("a", "b", "c"))
    third = Fraction(1, 3)
    rows = [
        [GaussianRational.real(third if i == j else 0) for j in range(3)]
        for i in range(3)
    ]
    m = measure_from_decoherence(DecoherenceSpec.from_rows(space, rows))
    assert validate_classical(m).ok
    assert m.values[1] == third


def test_one_history_matrix_is_degenerate():
    space = SampleSpace(("only",))
    spec = DecoherenceSpec.from_rows(space, [[GaussianRational.real(1)]])
    m = measure_from_decoherence(spec)
    assert m.values[0] == 0 and m.values[1] == 1


def test_hermiticity_and_normalization_are_checked():
    space = SampleSpace(("a", "b"))
    i_half = GaussianRational(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError, match="Hermitian"):
        DecoherenceSpec.from_rows(
            space,
            [
                [GaussianRational.real(Fraction(1, 2)), i_half],
                [i_half, GaussianRational.real(Fraction(1, 2))],
            ],
        )
    with pytest.raises(ValueError, match="sum"):
        DecoherenceSpec.from_rows(
            space,
            [
                [GaussianRational.real(1), GaussianRational()],
                [GaussianRational(), GaussianRational.real(1)],
            ],
        )


def fraction_invariant_error(space: SampleSpace, rows) -> str | None:
    """Oracle: the Hermiticity and sum checks on GaussianRational sums, and
    the message each raises."""
    n = space.n
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i].conjugate():
                return f"matrix is not Hermitian at ({space.labels[i]}, {space.labels[j]})"
    total = GaussianRational()
    for row in rows:
        for v in row:
            total = total + v
    if total != GaussianRational.real(1):
        return f"matrix entries sum to {total}, expected 1"
    return None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invariant_errors_match_the_fraction_oracle(data):
    n = data.draw(st.integers(1, 4), label="n")
    space = SampleSpace(tuple("abcd"[:n]))
    rows = data.draw(st.lists(
        st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n
    ))
    if data.draw(st.booleans(), label="hermitian"):
        for i in range(n):
            rows[i][i] = GaussianRational.real(rows[i][i].re)
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j].conjugate()
    total = sum((x.re for row in rows for x in row), Fraction(0))
    if total and data.draw(st.booleans(), label="normalised"):
        rows = [[x * GaussianRational.real(1 / total) for x in row] for row in rows]
    expected = fraction_invariant_error(space, rows)
    if expected is None:
        DecoherenceSpec(space, tuple(map(tuple, rows)))
    else:
        with pytest.raises(ValueError) as caught:
            DecoherenceSpec(space, tuple(map(tuple, rows)))
        assert str(caught.value) == expected


def test_corrupted_matrix_is_refused_by_the_constructor():
    space = SampleSpace(("a", "b"))
    i_one = GaussianRational(Fraction(0), Fraction(1))
    rows = [
        [GaussianRational.real(Fraction(1, 2)), i_one],
        [GaussianRational.real(Fraction(1, 2)), GaussianRational()],
    ]
    with pytest.raises(ValueError) as caught:
        DecoherenceSpec(space, tuple(map(tuple, rows)))
    assert str(caught.value) == fraction_invariant_error(space, rows)
    assert str(caught.value) == "matrix is not Hermitian at (a, b)"


def test_random_rank_one_matrices_pass_quantum():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        space = SampleSpace(LETTER_LABELS[:n])
        while True:
            amps = [
                GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                for _ in range(n)
            ]
            total = GaussianRational()
            for a in amps:
                total = total + a
            if total.re * total.re + total.im * total.im != 0:
                break
        m = measure_from_decoherence(DecoherenceSpec.from_amplitudes(space, amps))
        assert validate_quantum(m).ok


def brute_force_pair_sums(space: SampleSpace, rows) -> dict[int, GaussianRational]:
    """Oracle: the matrix summed over every pair of histories of each event."""
    n = space.n
    sums = {}
    for mask in range(1 << n):
        total = GaussianRational()
        for k in range(n):
            for l in range(n):
                if mask >> k & 1 and mask >> l & 1:
                    total = total + rows[k][l]
        sums[mask] = total
    return sums


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_decoherence_sums_match_brute_force(data):
    n = data.draw(st.integers(1, 5), label="n")
    space = SampleSpace(tuple("abcde"[:n]))
    rows = data.draw(st.lists(
        st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n
    ))
    if data.draw(st.booleans(), label="hermitian off the diagonal"):
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j].conjugate()
    if data.draw(st.booleans(), label="real diagonal"):
        for i in range(n):
            rows[i][i] = GaussianRational.real(rows[i][i].re)
    total = sum((x.re for row in rows for x in row), Fraction(0))
    if total and data.draw(st.booleans(), label="normalised"):
        rows = [[x * GaussianRational.real(1 / total) for x in row] for row in rows]
    expected = fraction_invariant_error(space, rows)
    if expected is not None:
        with pytest.raises(ValueError) as caught:
            DecoherenceSpec(space, tuple(map(tuple, rows)))
        assert str(caught.value) == expected
    else:
        m = measure_from_decoherence(DecoherenceSpec(space, tuple(map(tuple, rows))))
        sums = brute_force_pair_sums(space, rows)
        assert all(z.is_real for z in sums.values())
        assert dict(m.values) == {mask: z.re for mask, z in sums.items()}


# ---------------------------------------------------------------------------
# Null structure


def test_null_sets_examples():
    assert [str(ev) for ev in null_sets(fair_coin())] == ["{}"]
    assert not null_cover_exists(fair_coin())

    ts = three_slit()
    assert [str(ev) for ev in null_sets(ts)] == ["{}", "{1,3}", "{2,3}"]
    assert null_cover_exists(ts)

    d = dirac(("a", "b", "c"), "b")
    expected = {m for m in range(8) if not m >> 1 & 1}
    assert set(null_sets(d).masks) == expected
    assert not null_cover_exists(d)


def test_complex_phases_has_single_null_doubleton():
    cp = complex_phases()
    assert [str(ev) for ev in null_sets(cp)] == ["{}", "{b,d}"]
    assert not null_cover_exists(cp)


# ---------------------------------------------------------------------------
# Coarse graining


def test_coarse_graining_validation():
    space = SampleSpace(("1", "2", "3"))
    with pytest.raises(InvalidPartition):
        CoarseGraining(EventFamily(space, [0b011, 0b110]))  # overlap
    with pytest.raises(InvalidPartition):
        CoarseGraining(EventFamily(space, [0b011]))  # no cover
    with pytest.raises(InvalidPartition):
        CoarseGraining(EventFamily(space, [0, 0b111]))  # empty block


def test_three_slit_coarse_grainings():
    ts = three_slit()
    split = CoarseGraining.from_label_blocks(ts.algebra.space, [["1", "2"], ["3"]])
    cg = coarse_grain(ts, split)
    values = {str(ts.algebra.event(m)): v for m, v in cg.values.items()}
    assert values == {
        "{}": Fraction(0),
        "{1,2}": Fraction(4),
        "{3}": Fraction(1),
        "{1,2,3}": Fraction(1),
    }
    assert not is_decoherent(ts, split)

    trivial = CoarseGraining.from_label_blocks(ts.algebra.space, [["1", "2", "3"]])
    assert is_decoherent(ts, trivial)


def test_fair_coin_atom_graining_is_decoherent():
    fc = fair_coin()
    atoms = CoarseGraining.from_label_blocks(fc.algebra.space, [["h"], ["t"]])
    assert is_decoherent(fc, atoms)


def decoherence_oracle(m: Measure, graining: CoarseGraining) -> bool:
    """The pairwise definition: additive on every disjoint pair of the subalgebra."""
    cg = coarse_grain(m, graining)
    members = cg.subalgebra.masks
    return all(
        cg.values[a | b] == cg.values[a] + cg.values[b]
        for a in members
        for b in members
        if a & b == 0
    )


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_is_decoherent_matches_pairwise_definition(kind, data):
    m = draw_measure(data, kind)
    where = data.draw(st.sampled_from((None,) + PERTURBED_EVENTS), label="perturbed")
    if where is not None:
        m = perturb(data, m, where)
    n = m.algebra.space.n
    owner = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="blocks")
    blocks = {}
    for i, b in enumerate(owner):
        blocks[b] = blocks.get(b, 0) | 1 << i
    graining = CoarseGraining(EventFamily(m.algebra.space, blocks.values()))
    assert is_decoherent(m, graining) == decoherence_oracle(m, graining)
