"""Green's relations, egg-box pictures, and omega powers.

Green's relations are read straight off the product table: the principal
right ideal aS^1 is row a of the table together with a, and the left ideal
S^1a is column a together with a.  A table whose associativity check found
it to be a Rees matrix semigroup over the trivial group, M0(I, Λ; P) or a
rectangular band, has them read off the grid and P of that certificate
instead, in O(n).  D is the composite R o L.  All class ids follow
first-seen element order so output is deterministic.
green_arrays holds the relations as arrays, which the command line reads;
green_classes is their tuple view for library callers.  omega_powers
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


@dataclass(frozen=True, eq=False)
class GreenArrays:
    """Green's relations of a table as read-only intp arrays.

    r_class, l_class, h_class and d_class give each element's class id, in
    first-seen element order as in GreenStructure; r_count ... d_count are
    the numbers of classes.  order lists the elements by D-class, then
    R-class, then L-class, then ascending, so D-class d is the run
    order[d_start[d]:d_start[d + 1]]: its egg box read row by row, rows[d]
    R-classes by cols[d] L-classes, every H-class of it of one size
    (Green's lemma) and ascending.
    """

    r_class: np.ndarray
    l_class: np.ndarray
    h_class: np.ndarray
    d_class: np.ndarray
    r_count: int
    l_count: int
    h_count: int
    d_count: int
    order: np.ndarray
    d_start: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def members(self, d: int) -> np.ndarray:
        """The elements of D-class d, ascending."""
        return np.sort(self.order[self.d_start[d]:self.d_start[d + 1]])

    def cells(self, d: int) -> np.ndarray:
        """D-class d's egg box as a read-only view of order, one H-class a row.

        Row i * cols[d] + lam lists H-class (i, lam) ascending, for the i-th
        R-class and lam-th L-class of the class in id order.
        """
        run = self.order[self.d_start[d]:self.d_start[d + 1]]
        return run.reshape(int(self.rows[d] * self.cols[d]), -1)


def _ids(class_min: np.ndarray) -> np.ndarray:
    """Class ids in first-seen element order, given each element's least class-mate.

    A class is first seen at its least element, so numbering the minima in
    element order, a cumsum over their marks, numbers the classes.
    """
    return (np.cumsum(class_min == np.arange(len(class_min))) - 1)[class_min]


def _members(labels: np.ndarray) -> tuple:
    """The members of each class, ascending, given class ids 0..k-1."""
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return tuple(tuple(order[start:end]) for start, end in zip([0] + ends, ends))


def _scatter_minima(table: MulTable):
    """The least element of every element's R-, L- and H-class, read off the ideals.

    b lies in aS^1 exactly when b is a or an entry of row a of the table,
    and in S^1a exactly when b is a or an entry of column a.  So a R b iff
    each is in the other's row, a L b likewise with columns, and H = R meet
    L.  Two n x n bool arrays hold the ideals.
    """
    n = table.n
    prod = table.product
    ar = np.arange(n)
    right = np.eye(n, dtype=bool)          # right[a, b]: b in aS^1
    left = np.eye(n, dtype=bool)           # left[b, a]: b in S^1a
    # flat-index scatters are faster than 2-D fancy indexing but build their
    # intp index, so they go a block of rows (about _ASSOC_CHUNK_CELLS bytes
    # of index) at a time; left is indexed [b, a] so that both scatters read
    # prod in memory order.  The index is worked out in intp, as prod's
    # narrow entries would wrap
    step = max(1, _ASSOC_CHUNK_CELLS // (8 * n))
    for start in range(0, n, step):
        block = slice(start, start + step)
        rows = prod[block]
        idx = np.add((ar[block] * n)[:, None], rows, dtype=np.intp)
        right.ravel()[idx] = True
        np.multiply(rows, n, out=idx, dtype=np.intp)
        idx += ar
        left.ravel()[idx] = True
    r_rel = right & _transposed(right)
    l_rel = left & _transposed(left)
    # argmax finds the first True, so these are the least elements of the classes
    return r_rel.argmax(axis=1), l_rel.argmax(axis=1), (r_rel & l_rel).argmax(axis=1)


def _rees_minima(table: MulTable):
    """_scatter_minima of a table with a ReesForm, read off its grid and P in O(n).

    For a = (i, λ) other than the zero z, aS^1 is {a, z}, together with
    {i} x Λ when row λ of P has a 1, since then a (j, μ) = (i, μ) for a j
    with P[λ, j] and every μ.  So a R b exactly when a = b, or when i(a) =
    i(b) and rows λ(a) and λ(b) of P both have a 1; L is the same with
    columns, z is alone in its classes and every H-class is one element.
    A rectangular band has no z and P all ones: R is "same row of the
    grid" and L "same column".
    """
    form = table.rees_form
    cell, z = form.cell, form.zero
    row = form.p.any(axis=1)[None, :]      # row[0, λ]: row λ of P has a 1
    col = form.p.any(axis=0)[:, None]      # col[i, 0]: column i of P has a 1
    # n is past every element, so a cell outside the class never is the minimum
    r_least = np.where(row, cell, table.n).min(axis=1, keepdims=True)
    l_least = np.where(col, cell, table.n).min(axis=0, keepdims=True)
    r_min = np.empty(table.n, dtype=np.intp)
    l_min = np.empty(table.n, dtype=np.intp)
    r_min[cell] = np.where(row, r_least, cell)
    l_min[cell] = np.where(col, l_least, cell)
    if z is not None:
        r_min[z] = l_min[z] = z
    return r_min, l_min, np.arange(table.n)


@derived("green_arrays")
def green_arrays(table: MulTable) -> GreenArrays:
    """Compute all of Green's relations for the table as arrays (cached on the table).

    The least elements of the R-, L- and H-classes come from _rees_minima
    when the table has a ReesForm and from _scatter_minima otherwise.  R and
    L commute, so D = R o L: the least element of a's D-class is the least
    L-class minimum over a's R-class.  Within a D-class the R- and L-ids
    rise in first-seen order, so one sort by (D, R, L) lays out every egg
    box; its rows and columns are counted on the least element of each R-
    and L-class.
    """
    n = table.n
    ar = np.arange(n)
    minima = _scatter_minima if table.rees_form is None else _rees_minima
    r_min, l_min, h_min = minima(table)
    d_min = np.full(n, n, dtype=np.intp)
    np.minimum.at(d_min, r_min, l_min)
    r_class = _ids(r_min)
    l_class = _ids(l_min)
    h_class = _ids(h_min)
    d_class = _ids(d_min[r_min])
    d_count = int(d_class.max()) + 1
    order = np.lexsort((l_class, r_class, d_class))
    d_start = np.zeros(d_count + 1, dtype=np.intp)
    np.cumsum(np.bincount(d_class), out=d_start[1:])
    rows = np.bincount(d_class[r_min == ar], minlength=d_count)
    cols = np.bincount(d_class[l_min == ar], minlength=d_count)
    for a in (r_class, l_class, h_class, d_class, order, d_start, rows, cols):
        a.setflags(write=False)
    return GreenArrays(
        r_class=r_class,
        l_class=l_class,
        h_class=h_class,
        d_class=d_class,
        r_count=int(r_class.max()) + 1,
        l_count=int(l_class.max()) + 1,
        h_count=int(h_class.max()) + 1,
        d_count=d_count,
        order=order,
        d_start=d_start,
        rows=rows,
        cols=cols,
    )


@derived("green")
def green_classes(table: MulTable) -> GreenStructure:
    """Green's relations as tuples: the view of green_arrays for library callers.

    Cached on the table.  Each egg box is D-class d's run of the sorted
    order, cut into H-classes and rows.
    """
    g = green_arrays(table)
    r_class = g.r_class.tolist()
    l_class = g.l_class.tolist()
    order = g.order.tolist()
    starts = g.d_start.tolist()
    egg_boxes = []
    for d, (m, k) in enumerate(zip(g.rows.tolist(), g.cols.tolist())):
        run = order[starts[d]:starts[d + 1]]
        h = len(run) // (m * k)
        cells = [tuple(run[c:c + h]) for c in range(0, len(run), h)]
        egg_boxes.append(EggBox(
            d_class=d,
            r_ids=tuple(r_class[x] for x in run[::k * h]),
            l_ids=tuple(l_class[x] for x in run[:k * h:h]),
            grid=tuple(tuple(cells[i:i + k]) for i in range(0, m * k, k)),
        ))
    return GreenStructure(
        n=table.n,
        r_class=tuple(r_class),
        l_class=tuple(l_class),
        h_class=tuple(g.h_class.tolist()),
        d_class=tuple(g.d_class.tolist()),
        r_classes=_members(g.r_class),
        l_classes=_members(g.l_class),
        h_classes=_members(g.h_class),
        d_classes=_members(g.d_class),
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
