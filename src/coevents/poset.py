"""The one lattice of the up-sets of a finite order held as up-set rows.

The up-sets of a finite poset form a finite locale, and two layers use
one: the upper completion (:mod:`.beables`) is exactly the up-sets of
the members ordered by support inclusion, the dual order over a space
of duals, and the sieves at an anchor (:mod:`.topos`) are the up-sets
inside its up-set.  :class:`UpSets` is the core's one spelling of that
lattice: every listing, count, up-set test, antichain test and Heyting
implication over up-set rows is one of its members.  Nothing here reads
a coevent: the rows are a space's ``up_rows``, or rows read on demand.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .eventalg import Record, set_bits


class UpSets(Record):
    """The up-sets inside the up-set ``within`` of the order whose up-set
    rows are ``up``: a finite locale under union and intersection.

    Nothing is listed until :attr:`listed` is read.  Membership, the
    size of an antichain's lattice, the antichain test and the Heyting
    implication read the rows alone.
    """

    up: Sequence[int]
    within: int

    def __contains__(self, bits: int) -> bool:
        """True iff ``bits`` lies inside ``within`` and holds the up-set
        row of each of its elements."""
        up = self.up
        return bits & ~self.within == 0 and all(up[j] & ~bits == 0 for j in set_bits(bits))

    @cached_property
    def listed(self) -> tuple[int, ...]:
        """Every up-set, ascending, listed once on first read.

        Built by doubling over ``within``'s elements in a linear extension:
        an element's strict up-set is smaller than its own, so ascending
        ``up[j].bit_count()`` is one, and each of its elements comes earlier.
        Element j keeps the sets built so far, the up-sets of the elements
        before it, and adds ``u | 1 << j`` for each u that holds its strict
        up-set.  When each row has no element above its own index, as the
        dual order in ascending-principal order has, index order is a linear
        extension in which each new set is larger than every old one, so the
        list is built ascending; any other order is sorted at the end.
        """
        up = self.up
        order = set_bits(self.within)
        ascending = all(up[j] >> j == 1 for j in order)
        if not ascending:
            order = sorted(order, key=lambda j: up[j].bit_count())
        sets = [0]
        for j in order:
            bit = 1 << j
            strict = up[j] ^ bit
            sets += [u | bit for u in sets if u & strict == strict]
        return tuple(sets if ascending else sorted(sets))

    @property
    def size(self) -> int:
        """How many up-sets: 2^k when the k elements of ``within`` form an
        antichain, where every subset is one, else the listing's length."""
        if self.is_antichain:
            return 1 << self.within.bit_count()
        return len(self.listed)

    @property
    def is_antichain(self) -> bool:
        """True iff no element of ``within`` lies below another."""
        up = self.up
        return all(up[j] == 1 << j for j in set_bits(self.within))

    def implies(self, a: int, b: int) -> int:
        """Heyting implication a => b of two up-sets: the largest up-set
        whose meet with a lies in b, the elements whose whole up-set
        avoids a minus b."""
        up, outside = self.up, a & ~b
        bits = 0
        for j in set_bits(self.within):
            if up[j] & outside == 0:
                bits |= 1 << j
        return bits
