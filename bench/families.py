"""Known-truth structure families generated for the benchmark.

* ``matrix_superalgebra(m, n)``: M(m|n), the (m+n)x(m+n) matrix units with
  ``e_ab * e_cd = delta_bc e_ad`` and parity ``|a| + |b|``.  Associative, so
  RIGHT_ALT passes, its plus algebra is Jordan and its derived Bol structure
  passes BOL.
* ``grassmann(n)``: the exterior algebra on n odd generators, dim ``2**n``.
  Associative and supercommutative.
* ``diagonal_automorphism(m, n, entries)``: conjugation by an even diagonal
  matrix, ``e_ab -> (d_a / d_b) e_ab``, an automorphism of M(m|n); the
  entries come from ``diagonal_entries`` and the run's seeded
  ``random.Random``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from superbol.core import Element, EvenMap, SuperSpace
from superbol.structures import BinaryStructure, HomSuperalgebra

# Magnitudes of the seeded diagonal entries.  The seed picks their order,
# their signs and whether all are inverted, so every seed gives non-unit
# rationals of the same size and hence the same arithmetic cost.
DIAGONAL_MAGNITUDES = (2, 3, 5, 7, 11, 13, 17)


def _matrix_space(m: int, n: int) -> SuperSpace:
    size = m + n
    return SuperSpace.build(
        (f"e{a + 1}{b + 1}", (int(a >= m) + int(b >= m)) % 2)
        for a, b in itertools.product(range(size), repeat=2)
    )


def matrix_superalgebra(m: int, n: int) -> HomSuperalgebra:
    """M(m|n): basis e_ab in row-major order, rows 1..m even, m+1..m+n odd."""
    size = m + n
    space = _matrix_space(m, n)
    constants = {}
    for a, b, d in itertools.product(range(size), repeat=3):
        # e_ab * e_bd = e_ad; every other product of matrix units vanishes.
        constants[(a * size + b, b * size + d)] = Element(space, {a * size + d: 1})
    return HomSuperalgebra.untwisted(BinaryStructure(space, constants))


def _grassmann_monomials(n: int) -> list[tuple[int, ...]]:
    return [
        subset
        for size in range(n + 1)
        for subset in itertools.combinations(range(1, n + 1), size)
    ]


def grassmann(n: int) -> HomSuperalgebra:
    """Lambda(n): monomials theta_S ordered by degree then lexicographically."""
    monomials = _grassmann_monomials(n)
    names = ["one" if not s else "t" + "".join(map(str, s)) for s in monomials]
    space = SuperSpace.build((name, len(s) % 2) for name, s in zip(names, monomials))
    position = {s: i for i, s in enumerate(monomials)}
    constants = {}
    for (i, s), (j, t) in itertools.product(enumerate(monomials), repeat=2):
        if set(s) & set(t):
            continue
        inversions = sum(1 for a in s for b in t if a > b)
        target = position[tuple(sorted(s + t))]
        constants[(i, j)] = Element(space, {target: -1 if inversions % 2 else 1})
    return HomSuperalgebra.untwisted(BinaryStructure(space, constants))


def diagonal_entries(m: int, n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """d_1 = 1 and distinct prime magnitudes for the rest, so no ratio is +-1."""
    count = m + n - 1
    if count > len(DIAGONAL_MAGNITUDES):
        raise ValueError(f"at most {len(DIAGONAL_MAGNITUDES) + 1} diagonal entries")
    magnitudes = rng.sample(DIAGONAL_MAGNITUDES[:count], count)
    invert = rng.random() < 0.5
    return (Fraction(1),) + tuple(
        rng.choice((1, -1)) * (Fraction(1, p) if invert else Fraction(p)) for p in magnitudes
    )


def diagonal_automorphism(m: int, n: int, entries) -> EvenMap:
    """Conjugation X -> D X D^-1 with D = diag(entries) on M(m|n)."""
    size = m + n
    space = _matrix_space(m, n)
    dim = size * size
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a, b in itertools.product(range(size), repeat=2):
        rows[a * size + b][a * size + b] = Fraction(entries[a]) / Fraction(entries[b])
    return EvenMap(space, tuple(tuple(row) for row in rows))
