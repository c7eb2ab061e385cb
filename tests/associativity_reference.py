"""Reference versions of the associativity check's parts.

full_witness sweeps all n^3 triples for the first one that fails;
table._associativity_witness sweeps only the row/column quotient, and
every witness test compares the two.

table._generators closes the reached set with one queue of reached
elements and one cursor.  round_robin_generators visits the generators
in turn, each with its own cursor into the queue, until none of them has
a product left to read.  Both stop with the subsemigroup the generators
generate, so they pick the same next generator every time and return the
same array; tests check the library against this one.
"""

from __future__ import annotations

import numpy as np

from semigroup_match.table import _ideal_profile

# scratch cells per chunk of the sweep
_CHUNK_CELLS = 1 << 21


def full_witness(product: np.ndarray):
    """First triple (a, b, c) with (ab)c != a(bc) in lexicographic order, or None."""
    n = product.shape[0]
    chunk = max(1, _CHUNK_CELLS // (n * n))
    for start in range(0, n, chunk):
        rows = product[start:start + chunk]
        left = product[rows]          # left[a, b, c] = (a*b)*c
        right = rows[:, product]      # right[a, b, c] = a*(b*c)
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            return (start + int(bad[0]), int(bad[1]), int(bad[2]))
    return None


def round_robin_generators(product: np.ndarray) -> np.ndarray:
    """table._generators with a per-generator cursor into the queue of reached elements.

    The generator selection is the library's: every element outside S^2,
    then the first unreached candidate, by |aS| + |Sa| and then index,
    whose row and column minima no generator has yet, or failing that the
    first unreached candidate.
    """
    n = product.shape[0]
    size, row_min, col_min, in_square = _ideal_profile(product)
    candidates = np.argsort(-size, kind="stable").tolist()
    row_min, col_min = row_min.tolist(), col_min.tolist()
    reached = bytearray(n)
    queue = []                        # reached elements, in the order reached
    gens, columns, done = [], [], []  # done[k]: queue[:done[k]] times gens[k] is read
    rows_taken, cols_taken = bytearray(n), bytearray(n)
    new = np.flatnonzero(~in_square).tolist()
    tie = fallback = 0
    while True:
        for g in new:
            gens.append(g)
            columns.append(None)
            done.append(0)
            rows_taken[row_min[g]] = cols_taken[col_min[g]] = 1
            reached[g] = 1
            queue.append(g)
        # visit the generators in turn until none has an unread product
        k = idle = 0
        while len(queue) < n and idle < len(gens):
            i = done[k]
            if i == len(queue):
                idle += 1
            else:
                idle = 0
                if columns[k] is None:
                    columns[k] = product[:, gens[k]].tolist()
                column = columns[k]
                while i < len(queue):
                    y = column[queue[i]]
                    i += 1
                    if not reached[y]:
                        reached[y] = 1
                        queue.append(y)
                        if len(queue) == n:
                            break
                done[k] = i
            k = (k + 1) % len(gens)
        if len(queue) == n:
            return np.array(gens, dtype=np.intp)
        while tie < n:
            c = candidates[tie]
            if not (reached[c] or rows_taken[row_min[c]] or cols_taken[col_min[c]]):
                break
            tie += 1
        if tie < n:
            new = [candidates[tie]]
        else:
            while reached[candidates[fallback]]:
                fallback += 1
            new = [candidates[fallback]]
