from __future__ import annotations

import pytest

from coevents import CoeventSpace, EventAlgebra, SampleSpace
from coevents.coevent import principal_event
from coevents.catalog import corpus

LETTER_LABELS = ("a", "b", "c", "d")


@pytest.fixture
def coin_space() -> SampleSpace:
    return SampleSpace(("h", "t"))


@pytest.fixture
def coin_algebra(coin_space) -> EventAlgebra:
    return EventAlgebra(coin_space)


@pytest.fixture
def abc_algebra() -> EventAlgebra:
    return EventAlgebra(SampleSpace(("a", "b", "c")))


def algebra_of_size(n: int) -> EventAlgebra:
    return EventAlgebra(SampleSpace(LETTER_LABELS[:n]))


def dual_up_masks(space: CoeventSpace) -> list[int]:
    """Oracle: per member of a space of duals, the bitmask of members above
    it in the dual order (those whose principal event lies inside its own)."""
    principals = [principal_event(phi).mask for phi in space.members]
    return [
        sum(1 << j for j, q in enumerate(principals) if q & p == q) for p in principals
    ]


@pytest.fixture(params=[1, 2, 3, 4])
def small_algebra(request) -> EventAlgebra:
    return algebra_of_size(request.param)


@pytest.fixture(scope="session")
def theory_corpus():
    return corpus()
