"""A small corpus of ready-made histories theories.

Used by the tests, the demos, and the documentation.  Each entry is a
(sample space, measure) pair built in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .eventalg import SampleSpace
from .measure import GaussianRational, Measure


def fair_coin() -> Measure:
    """Two histories with equal weight; the textbook classical theory."""
    space = SampleSpace(("h", "t"))
    return Measure.from_atom_weights(space, {"h": Fraction(1, 2), "t": Fraction(1, 2)})


def uniform(labels: tuple[str, ...]) -> Measure:
    """Uniform classical measure over the given histories."""
    space = SampleSpace(labels)
    w = Fraction(1, len(labels))
    return Measure.from_atom_weights(space, {lab: w for lab in labels})


def dirac(labels: tuple[str, ...], real_history: str) -> Measure:
    """Point mass: an event is certain iff it contains the real history."""
    space = SampleSpace(labels)
    return Measure.from_atom_weights(
        space, {lab: Fraction(1 if lab == real_history else 0) for lab in labels}
    )


def three_slit() -> Measure:
    """Destructive interference with amplitudes (1, 1, -1).

    Each single slit has measure 1, slits {1,3} and {2,3} interfere to
    zero, and {1,2} adds constructively to 4 while the whole space has
    measure 1.  The null sets {1,3} and {2,3} cover the sample space,
    so no classical coevent is preclusive, yet {1,2}* is.
    """
    space = SampleSpace(("1", "2", "3"))
    amps = [
        GaussianRational.real(1),
        GaussianRational.real(1),
        GaussianRational.real(-1),
    ]
    return Measure.from_amplitudes(space, amps)


def two_coin() -> Measure:
    """Two independent fair coin throws (four histories)."""
    space = SampleSpace(("hh", "ht", "th", "tt"))
    return Measure.from_atom_weights(
        space, {lab: Fraction(1, 4) for lab in space.labels}
    )


def four_slit() -> Measure:
    """Amplitudes (1/2, 1/2, 1/2, -1/2): every pair with the last history
    is null, so the null sets again cover the sample space and the
    scheme is the anti-chain of the three doubletons avoiding it."""
    space = SampleSpace(("a", "b", "c", "d"))
    half = Fraction(1, 2)
    amps = [
        GaussianRational.real(half),
        GaussianRational.real(half),
        GaussianRational.real(half),
        GaussianRational.real(-half),
    ]
    return Measure.from_amplitudes(space, amps)


def complex_phases() -> Measure:
    """Amplitudes (1/2, i/2, 1/2, -i/2): genuinely complex interference
    with a single null doubleton and no null cover."""
    space = SampleSpace(("a", "b", "c", "d"))
    half = Fraction(1, 2)
    amps = [
        GaussianRational.real(half),
        GaussianRational(Fraction(0), half),
        GaussianRational.real(half),
        GaussianRational(Fraction(0), -half),
    ]
    return Measure.from_amplitudes(space, amps)


def corpus() -> dict[str, Measure]:
    """Every catalog theory keyed by name, in a fixed order."""
    return {
        "fair_coin": fair_coin(),
        "three_slit": three_slit(),
        "two_coin": two_coin(),
        "dirac_three": dirac(("1", "2", "3"), "2"),
        "uniform_one": uniform(("only",)),
        "four_slit": four_slit(),
        "complex_phases": complex_phases(),
    }
