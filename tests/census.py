"""Every 0/1 structure matrix of a shape, up to permuting rows and columns.

An m x n 0/1 matrix is held as the multiset of its n columns, each a
bitmask below 2^m whose bit r is row r.  Permuting the columns reorders the
multiset; permuting the rows sends every mask through one permutation of
its bits.  classes(m, n) keeps one multiset per class, the least (as a
sorted tuple) of its m! row images; burnside(m, n) counts the classes
another way, as the number of matrices fixed by a pair of row and column
permutations, averaged over all pairs.  Tests require the two to agree.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np


def _row_images(m: int) -> list:
    """For every permutation of the m rows, the image of each mask below 2^m."""
    return [[sum(1 << perm[r] for r in range(m) if mask >> r & 1) for mask in range(1 << m)]
            for perm in itertools.permutations(range(m))]


def classes(m: int, n: int) -> list:
    """One ascending tuple of n column masks per class of m x n 0/1 matrices."""
    images = _row_images(m)
    return [cols for cols in itertools.combinations_with_replacement(range(1 << m), n)
            if all(tuple(sorted(image[c] for c in cols)) >= cols for image in images)]


def _cycle_lengths(perm) -> list:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        while not seen[start]:
            seen[start] = True
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def burnside(m: int, n: int) -> int:
    """The number of classes by Burnside's lemma.

    A pair (σ, τ) of row and column permutations moves the cells in orbits,
    gcd(a, b) of them for each cycle of length a of σ and b of τ, and fixes
    exactly the matrices constant on every orbit.
    """
    rows = [_cycle_lengths(p) for p in itertools.permutations(range(m))]
    cols = [_cycle_lengths(p) for p in itertools.permutations(range(n))]
    fixed = sum(2 ** sum(math.gcd(a, b) for a in r for b in c) for r in rows for c in cols)
    count, rest = divmod(fixed, len(rows) * len(cols))
    if rest:
        raise RuntimeError("Burnside's average must be a whole number")
    return count


def regular_matrices(m: int, n: int) -> list:
    """Each class with no zero row or column, as an m x n bool array.

    Column c reads downwards as the binary numeral of mask c, high bit
    first.  The least images put the blocks of a block-diagonal class on
    the anti-diagonal, so numbering its blocks by least row or by least
    column gives different labels.
    """
    full = (1 << m) - 1
    return [np.array([[c >> (m - 1 - r) & 1 for c in cols] for r in range(m)], dtype=bool)
            for cols in classes(m, n)
            if 0 not in cols and functools.reduce(operator.or_, cols) == full]
