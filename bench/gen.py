"""Seeded theory generation and the benchmark's own reference facts.

Everything here uses only the standard library and exact arithmetic
(``Fraction``); it never imports ``coevents``, so the facts it derives
are an independent check of the library's answers.  A complex number is
a pair ``(re, im)`` of Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

LABELS = "abcdefghijklmnop"


def labels(n: int) -> list[str]:
    return list(LABELS[:n])


def event_key(mask: int, n: int) -> str:
    return "{" + ",".join(LABELS[i] for i in range(n) if mask >> i & 1) + "}"


def rng_for(seed: int, *path) -> random.Random:
    """An independent generator for one input, keyed by the run seed."""
    return random.Random("/".join(str(p) for p in (seed,) + path))


def _rat(x: Fraction) -> str | int:
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cplx(z) -> dict | str | int:
    re, im = z
    return _rat(re) if im == 0 else {"re": _rat(re), "im": _rat(im)}


def _cmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _conj(z):
    return (z[0], -z[1])


def integer_amplitudes(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n small Gaussian integers, half of them complex, with a nonzero sum.

    Small draws make some subsets sum to zero, so the measures built from
    them have null sets.
    """
    while True:
        z = []
        for _ in range(n):
            re = rng.choice((-2, -1, 1, 1, 2, 3))
            im = rng.choice((-1, 1, 2)) if rng.random() < 0.5 else 0
            z.append((re, im))
        if any(sum(x[k] for x in z) for k in (0, 1)):
            return z


def normalise(z: list[tuple[int, int]]):
    """Divide by the sum, so that mu(full) = |sum|^2 = 1."""
    s = (Fraction(sum(x[0] for x in z)), Fraction(sum(x[1] for x in z)))
    norm = s[0] * s[0] + s[1] * s[1]
    return [_cmul(x, (s[0] / norm, -s[1] / norm)) for x in z]


def amplitudes(rng: random.Random, n: int):
    """n Gaussian-rational amplitudes whose sum is exactly 1, half complex."""
    return normalise(integer_amplitudes(rng, n))


def amplitude_values(amps) -> list:
    """mu(A) = |sum of the amplitudes in A|^2 for every mask A.

    Exact for Fractions; for integer amplitudes it is the unnormalised
    measure, which has the same null sets and is much cheaper.
    """
    n = len(amps)
    tot = [(0, 0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        a = amps[low.bit_length() - 1]
        r = tot[mask ^ low]
        tot[mask] = (r[0] + a[0], r[1] + a[1])
    return [re * re + im * im for re, im in tot]


def decoherence(rng: random.Random, n: int):
    """A rank-2 mixture p*a.a^H + (1-p)*b.b^H of two normalised amplitude vectors."""
    a, b = amplitudes(rng, n), amplitudes(rng, n)
    p = Fraction(rng.randint(1, 7), 8)
    q = 1 - p
    return [
        [
            tuple(
                p * x + q * y
                for x, y in zip(_cmul(a[i], _conj(a[j])), _cmul(b[i], _conj(b[j])))
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def decoherence_values(d) -> list[Fraction]:
    """mu(A) = sum of D[i][j] over i, j in A (the real part; D is Hermitian)."""
    n = len(d)
    mu = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        acc = mu[rest] + d[i][i][0]
        for j in range(n):
            if rest >> j & 1:
                acc += 2 * d[i][j][0]
        mu[mask] = acc
    return mu


def atom_weights(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def atom_values(w) -> list[Fraction]:
    n = len(w)
    mu = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        mu[mask] = mu[mask ^ low] + w[low.bit_length() - 1]
    return mu


# ---------------------------------------------------------------------------
# Theory files: (JSON-able dict, the measure's values by mask)


def theory(kind: str, rng: random.Random, n: int) -> tuple[dict, list[Fraction]]:
    """A quantum-valid theory with the given stanza kind and its values."""
    if kind == "amplitudes":
        amps = amplitudes(rng, n)
        body, mu = [_cplx(a) for a in amps], amplitude_values(amps)
    elif kind == "decoherence":
        d = decoherence(rng, n)
        body = [[_cplx(x) for x in row] for row in d]
        mu = decoherence_values(d)
    elif kind == "atom_weights":
        w = atom_weights(rng, n)
        body = {LABELS[i]: _rat(w[i]) for i in range(n)}
        mu = atom_values(w)
    elif kind == "event_table":
        mu = decoherence_values(decoherence(rng, n))
        body = {event_key(m, n): _rat(v) for m, v in enumerate(mu)}
    else:
        raise ValueError(f"unknown stanza kind {kind!r}")
    return {"sample_space": labels(n), "measure": {kind: body}}, mu


# ---------------------------------------------------------------------------
# Reference facts, each O(2^n * n) or a closed form


def is_additive(mu: list[Fraction]) -> bool:
    """mu(empty) = 0 and mu(A) = sum of mu({i}) over i in A, for every A."""
    if mu[0] != 0:
        return False
    for mask in range(1, len(mu)):
        low = mask & -mask
        if mask != low and mu[mask] != mu[mask ^ low] + mu[low]:
            return False
    return True


def null_masks(mu: list[Fraction]) -> list[int]:
    return [m for m, v in enumerate(mu) if v == 0]


def null_cover(mu: list[Fraction], n: int) -> bool:
    cover = 0
    for m in null_masks(mu):
        cover |= m
    return cover == (1 << n) - 1


def scheme_masks(mu: list[Fraction], n: int) -> list[int]:
    """Minimal nonempty masks that lie in no null set, ascending."""
    size = 1 << n
    inside = [False] * size  # inside[A]: A is a subset of some null event
    for m in range(size - 1, -1, -1):
        if mu[m] == 0:
            inside[m] = True
        else:
            for i in range(n):
                if not m >> i & 1 and inside[m | 1 << i]:
                    inside[m] = True
                    break
    return [
        m
        for m in range(1, size)
        if not inside[m]
        and all(inside[m ^ 1 << i] or m == 1 << i for i in range(n) if m >> i & 1)
    ]


def audit_pairs_checked(n: int) -> int:
    """Records of the all-pairs audit: every nonempty dual times every pair a <= b."""
    size = 1 << n
    return (size - 1) * size * (size + 1) // 2


def audit_or_discrepancies(n: int) -> int:
    """Pairs a <= b with A <= a|b, A not <= a and A not <= b, summed over duals A*.

    For |A| = k the ordered pairs number 4^(n-k) * (3^k - 2^(k+1) + 1);
    none has a = b, so the unordered count is half of that.
    """
    return sum(
        comb(n, k) * 4 ** (n - k) * (3**k - 2 ** (k + 1) + 1) // 2
        for k in range(1, n + 1)
    )
