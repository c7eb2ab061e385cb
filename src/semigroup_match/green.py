"""Green's relations, egg-box pictures, and omega powers.

Green's relations are read straight off the product table: the principal
right ideal aS^1 is row a of the table together with a, and the left ideal
S^1a is column a together with a.  D is the composite R o L.  All class ids
follow first-seen element order so output is deterministic.  omega_powers
gives the idempotent power a^omega and its predecessor a^(omega-1) of every
element at once, as vectors over the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import _ASSOC_CHUNK_CELLS, MulTable, _transposed, derived


@dataclass(frozen=True)
class EggBox:
    """Grid view of one D-class: rows are R-classes, columns L-classes.

    grid[r][l] is the tuple of elements in the H-class at that cell; every
    cell of a D-class is non-empty.
    """

    d_class: int
    r_ids: tuple
    l_ids: tuple
    grid: tuple


@dataclass(frozen=True)
class GreenStructure:
    n: int
    r_class: tuple
    l_class: tuple
    h_class: tuple
    d_class: tuple
    r_classes: tuple
    l_classes: tuple
    h_classes: tuple
    d_classes: tuple
    egg_boxes: tuple


def _ids(class_min: np.ndarray) -> tuple:
    """Class ids in first-seen element order, given each element's least class-mate.

    A class is first seen at its least element, so first-seen order is the
    order of the minima, which is their rank in np.unique.
    """
    return tuple(np.unique(class_min, return_inverse=True)[1].tolist())


def _members(labels) -> tuple:
    k = max(labels) + 1
    buckets = [[] for _ in range(k)]
    for x, c in enumerate(labels):
        buckets[c].append(x)
    return tuple(tuple(b) for b in buckets)


@derived("green")
def green_classes(table: MulTable) -> GreenStructure:
    """Compute all of Green's relations for the table (cached on the table).

    b lies in aS^1 exactly when b is a or an entry of row a of the table,
    and in S^1a exactly when b is a or an entry of column a.  So a R b iff
    each is in the other's row, a L b likewise with columns, and H = R meet
    L.  R and L commute, so D = R o L: the least element of a's D-class is
    the least L-class minimum over a's R-class.
    """
    n = table.n
    prod = table.product
    ar = np.arange(n)
    right = np.eye(n, dtype=bool)          # right[a, b]: b in aS^1
    left = np.eye(n, dtype=bool)           # left[b, a]: b in S^1a
    # flat-index scatters are faster than 2-D fancy indexing but build their
    # intp index, so they go a block of rows (about _ASSOC_CHUNK_CELLS bytes
    # of index) at a time; left is indexed [b, a] so that both scatters read
    # prod in memory order
    step = max(1, _ASSOC_CHUNK_CELLS // (8 * n))
    for start in range(0, n, step):
        rows = prod[start:start + step]
        right.ravel()[(ar[start:start + step] * n)[:, None] + rows] = True
        left.ravel()[rows * n + ar] = True
    r_rel = right & _transposed(right)
    l_rel = left & _transposed(left)
    # argmax finds the first True, so these are the least elements of the classes
    r_min = r_rel.argmax(axis=1)
    l_min = l_rel.argmax(axis=1)
    h_min = (r_rel & l_rel).argmax(axis=1)
    d_min = np.full(n, n, dtype=np.intp)
    np.minimum.at(d_min, r_min, l_min)
    r_class = _ids(r_min)
    l_class = _ids(l_min)
    h_class = _ids(h_min)
    d_class = _ids(d_min[r_min])

    d_members = _members(d_class)
    egg_boxes = []
    for d, members in enumerate(d_members):
        r_ids = tuple(dict.fromkeys(r_class[x] for x in members))
        l_ids = tuple(dict.fromkeys(l_class[x] for x in members))
        cells = {}
        for x in members:
            cells.setdefault((r_class[x], l_class[x]), []).append(x)
        grid = tuple(
            tuple(tuple(cells.get((r, l), ())) for l in l_ids) for r in r_ids
        )
        egg_boxes.append(EggBox(d, r_ids, l_ids, grid))

    return GreenStructure(
        n=n,
        r_class=r_class,
        l_class=l_class,
        h_class=h_class,
        d_class=d_class,
        r_classes=_members(r_class),
        l_classes=_members(l_class),
        h_classes=_members(h_class),
        d_classes=d_members,
        egg_boxes=tuple(egg_boxes),
    )


@derived("omega")
def omega_powers(table: MulTable):
    """a^omega and a^(omega-1) for every a, as two read-only intp vectors.

    a^omega is the first idempotent power a^m, and a^(omega-1) is a^(m-1),
    or a itself when m = 1: the least positive power whose product with a
    is a^omega.  One pass raises every element whose first idempotent power
    is not found yet by one more factor of a, at most n times.
    """
    prod = table.product
    todo = np.arange(table.n)             # elements whose a^m is not found yet
    omega = np.empty(table.n, dtype=np.intp)
    omega_minus_one = todo.copy()
    prev = cur = todo                     # a^(j-1) (a itself at j = 1) and a^j
    while todo.size:
        idem = prod[cur, cur] == cur
        omega[todo[idem]] = cur[idem]
        omega_minus_one[todo[idem]] = prev[idem]
        todo, prev = todo[~idem], cur[~idem]
        cur = prod[prev, todo]
    omega.setflags(write=False)
    omega_minus_one.setflags(write=False)
    return omega, omega_minus_one
