"""Finite semigroups as multiplication tables, plus the standard constructions.

Elements are the integers 0..n-1; an optional name per element is kept for
display only.  Every constructor funnels through MulTable, which decides
associativity exactly, so no table in the rest of the package is ever
trusted blindly.  One sweep of (xg)y = x(gy), x over the least element of
each distinct row, y of each distinct column and g of each (row, column)
class, decides it and finds the first failing triple: n^2 cells for a
k x l rectangular band or a left-zero band, 1 for a null semigroup.

Three shortcuts come first.  A Rees matrix semigroup over the trivial
group is associative: in M0(I, Λ; P), with any 0/1 sandwich matrix P,
(ab)c and a(bc) are both cell(i(a), λ(c)) when P[λ(a), i(b)] and
P[λ(b), i(c)] hold, and both the zero otherwise; in the rectangular band
I x Λ, M(1; I, Λ), both are cell(i(a), λ(c)).  _rees_form labels the
elements by their least row and column entries and compares every product
once with that formula; when all match, nothing is swept, and the table
keeps the grid and P as its rees_form, off which Green's relations are
read.  Every principal factor of a combinatorial regular D-class has the
first form, and so does every combinatorial 0-simple Rees semigroup:
Brandt semigroups and rectangular bands with a zero among them; the
rectangular bands themselves have the second.  A table with neither a
two-sided zero nor an idempotent diagonal leaves after O(n) reads.  Any
other table goes on to Light's test, and one that fails the next two
shortcuts is then swept.  Where
every class costs more than 2 n^2 cells, Light's test checks g only over
a generating set: every element outside S^2, then greedily the unreached
element with the largest |aS| + |Sa| whose row and column minima (its R-
and L-class, when it is regular) no generator has yet, or failing that
the unreached one with the largest |aS| + |Sa|: 6 generators for T_5,
whose rank is 3.  And a generator g with a small ideal is checked
through Sg and gS, one at a time.  With Z the values xg, V the values gy
and rep(v) one y with gy = v, the condition holds for g exactly when (A)
every row z of Z is constant on each class {y : gy = v} and (B)
(xg) rep(v) = x v for every x and v: about |Z| |C| + |R| |V| cells
instead of |R| |C|.  g takes this route when (|gS| + |Sg|) max(|R|, |C|)
is at most a quarter of |R| |C|: in 0-simple Rees semigroups over a
nontrivial group, where Sg lies in L_g and 0 and gS in R_g and 0, never
in bands or null semigroups.

parse_table reads a table file in one byte pass per block of whole lines:
the digit runs of a block are found by array comparisons and combined into
the rows of the product in place.  Any text that pass might take differently
from str.splitlines, str.split and int() sends the whole file through the
per-row int() loop, which accepts the same tables and words every error.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    EntryRangeError,
    NotAssociativeError,
    NotRegularMatrixError,
    TableFormatError,
)

DEFAULT_SIZE_CAP = 5000

# scratch cells per chunk of the vectorized associativity checks
_ASSOC_CHUNK_CELLS = 1 << 21


def _storage_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 0..n-1: MulTable's product dtype.

    uint8 up to 256 elements, uint16 up to 65536.  Gathers through it move
    less memory than through intp; arithmetic on its entries must be done in
    intp, since uint8 and uint16 wrap without warning.
    """
    return np.min_scalar_type(n - 1)


def _narrow(product: np.ndarray, copy: bool = False) -> np.ndarray:
    """product in _storage_dtype, in C order: product itself when it already is, unless copy."""
    dtype = _storage_dtype(product.shape[0])
    if copy:
        return np.array(product, dtype=dtype, order="C")
    return np.asarray(product, dtype=dtype, order="C")


def _powers(product: np.ndarray, xs, k: int):
    """x^k for every x of xs (an element or an array of them), k >= 1.

    Square-and-multiply: about 2 log2(k) gathers, whatever k is.
    """
    result = None
    while True:
        if k & 1:
            result = xs if result is None else product[result, xs]
        k >>= 1
        if not k:
            return result
        xs = product[xs, xs]


def _entries_seen(lines: np.ndarray) -> np.ndarray:
    """seen[i, x] holds when x is an entry of lines[i]."""
    seen = np.zeros(lines.shape, dtype=bool)
    seen.ravel()[lines + np.arange(0, seen.size, seen.shape[1])[:, None]] = True
    return seen


def _ideal_profile(product: np.ndarray, transposed: np.ndarray | None = None):
    """|aS| + |Sa| and the least elements of aS and of Sa for each a, and S^2.

    The entries of a block of rows, and of the matching block of columns,
    are scattered into bool blocks and counted, so nothing is sorted and no
    n x n temporary is made.  The columns are read as rows of transposed,
    product.T in C order: the caller's copy, or _transposed(product) when
    none is passed.
    """
    n = product.shape[0]
    if transposed is None:
        transposed = _transposed(product)
    # the blocks' intp scatter index takes about _ASSOC_CHUNK_CELLS bytes
    step = max(1, _ASSOC_CHUNK_CELLS // (8 * n))
    size = np.empty(n, dtype=np.intp)
    row_min = np.empty(n, dtype=np.intp)
    col_min = np.empty(n, dtype=np.intp)
    in_square = np.zeros(n, dtype=bool)
    for start in range(0, n, step):
        block = slice(start, start + step)
        rows = _entries_seen(product[block])
        cols = _entries_seen(transposed[block])
        size[block] = np.count_nonzero(rows, axis=1) + np.count_nonzero(cols, axis=1)
        # argmax finds the first True, the least entry
        row_min[block] = rows.argmax(axis=1)
        col_min[block] = cols.argmax(axis=1)
        in_square |= rows.any(axis=0)
    return size, row_min, col_min, in_square


def _generators(product: np.ndarray, profile=None) -> np.ndarray:
    """Elements whose products, multiplied out from the left, reach every element.

    Every element outside S^2 is taken first.  Then, while some element is
    not yet reached, candidates are read in order of |aS| + |Sa|, larger
    principal ideals first and ties by index, and the next generator is the
    first unreached candidate whose row minimum and column minimum no
    generator has yet: R-related regular elements share their row minimum
    and L-related ones their column minimum, so this prefers a new R-class
    and a new L-class at once.  When no candidate has both, the first
    unreached candidate is taken.  Both scans only move forward.

    The reached set grows by right multiplication over Python lists of the
    generators' columns: queue[:i] has been multiplied by every column, so
    a new generator's column is applied to queue[:i] once, and each later
    element by every column when the cursor reaches it.  profile is
    _ideal_profile(product), computed here when not given.
    """
    n = product.shape[0]
    size, row_min, col_min, in_square = _ideal_profile(product) if profile is None else profile
    candidates = np.argsort(-size, kind="stable").tolist()
    row_min, col_min = row_min.tolist(), col_min.tolist()
    reached = bytearray(n)
    queue = []                        # reached elements, in the order reached
    gens, columns = [], []
    rows_taken, cols_taken = bytearray(n), bytearray(n)
    new = np.flatnonzero(~in_square).tolist()
    i = tie = fallback = 0
    while True:
        for g in new:
            column = product[:, g].tolist()
            gens.append(g)
            columns.append(column)
            rows_taken[row_min[g]] = cols_taken[col_min[g]] = 1
            # no product reaches an element outside S^2, and later picks are unreached
            reached[g] = 1
            queue.append(g)
            for x in queue[:i]:
                y = column[x]
                if not reached[y]:
                    reached[y] = 1
                    queue.append(y)
        while i < len(queue) < n:
            x = queue[i]
            i += 1
            for column in columns:
                y = column[x]
                if not reached[y]:
                    reached[y] = 1
                    queue.append(y)
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


def _first_equal(lines: np.ndarray) -> np.ndarray:
    """first[i]: the least j whose row of lines equals row i.

    Each row is one opaque item of a void view, so a stable argsort puts
    equal rows next to each other, the least index first, and one gather in
    that order finds the runs.  When every row differs (always in a monoid:
    the identity's column tells any two rows apart) first is arange and
    nothing more is built.  A view whose rows are not contiguous (a
    transpose, say) is copied to C order first; C-ordered input is not.
    """
    n = lines.shape[0]
    lines = np.ascontiguousarray(lines)
    keys = lines.view(np.dtype((np.void, lines.dtype.itemsize * lines.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = keys[1:] != keys[:-1]
    if new.all():
        return np.arange(n)
    first = np.empty(n, dtype=np.intp)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


def _transposed(product: np.ndarray) -> np.ndarray:
    """product.T in C order, copied a block of 256 rows at a time.

    A block's strided reads stay in cache; one strided copy of the whole
    transpose is several times slower.
    """
    out = np.empty(product.shape[::-1], dtype=product.dtype)
    for start in range(0, product.shape[0], 256):
        out[:, start:start + 256] = product[start:start + 256].T
    return out


def _light_sets(product: np.ndarray):
    """xs, gens, ys, bound, classes: product is associative exactly when (xg)y = x(gy) on them.

    xs is the least element of each distinct row and ys the least of each
    distinct column: when x and x' share their row, xg = x'g and
    x(gy) = x'(gy), so (x, g, y) and (x', g, y) are the same condition, and
    equal columns work the same way for y.  For the same reason g needs one
    element per (row, column) class; classes is the least of each, sorted.
    gens is classes, and bound None, when that costs at most 2 n^2 cells,
    as many as _ideal_profile scatters; otherwise gens is _generators, the
    first of each class in its order, and bound[k] is |gS| + |Sg| of gens[k].
    The columns are read as the rows of one _transposed copy, which both
    _first_equal and _ideal_profile take them from.
    """
    n = product.shape[0]
    ident = np.arange(n)
    row_first = _first_equal(product)
    xs = np.flatnonzero(row_first == ident)
    transposed = _transposed(product)
    col_first = _first_equal(transposed)
    ys = np.flatnonzero(col_first == ident)
    if len(xs) == n or len(ys) == n:
        # every element is alone in its (row, column) class
        pair, classes = None, ident
    else:
        pair = row_first * n + col_first
        classes = np.sort(np.unique(pair, return_index=True)[1])
    if len(xs) * len(classes) * len(ys) <= 2 * n * n:
        return xs, classes, ys, None, classes
    profile = _ideal_profile(product, transposed)
    del transposed
    gens = _generators(product, profile)
    if pair is not None:
        _, keep = np.unique(pair[gens], return_index=True)
        gens = gens[np.sort(keep)]
    return xs, gens, ys, profile[0][gens], classes


def _blocks(outer: int, inner: int, width: int):
    """(outer, inner) slice pairs covering outer x inner items of width cells each.

    Each pair covers about _ASSOC_CHUNK_CELLS cells, and every inner item
    of an outer one when they fit; the pairs come in outer-major order.
    """
    o_step = max(1, _ASSOC_CHUNK_CELLS // (inner * width))
    i_step = max(1, _ASSOC_CHUNK_CELLS // (o_step * width))
    for o in range(0, outer, o_step):
        for i in range(0, inner, i_step):
            yield slice(o, o + o_step), slice(i, i + i_step)


def _factored_check(x_rows, y_cols, gens) -> bool:
    """Whether (xg)y = x(gy) for every x of xs, y of ys and g of gens.

    x_rows and y_cols are _light_witness's.  Fix g, let Z be the
    values xg, V the values gy and rep(v) one y with gy = v.  The condition
    holds exactly when
    (A) every row z of Z is constant on each class {y : gy = v}, and
    (B) (xg) rep(v) = x v for every x and every v of V,
    for then (xg)y = (xg) rep(gy) = x(gy).  Z lies in Sg and V in gS, so
    this reads about |Z| |C| + |R| |V| cells instead of |R| |C|.  One
    generator is checked at a time, and one array slot of n entries finds
    rep(v), then the place of each v in V, then that of each z in Z.
    """
    slot = np.empty(x_rows.shape[1], dtype=np.intp)
    for g in gens.tolist():
        xg, gy = x_rows[:, g], y_cols[g]
        z = np.flatnonzero(np.bincount(xg))
        v = np.flatnonzero(np.bincount(gy))
        slot[gy] = np.arange(len(gy))         # slot[v]: the place in ys of one y with gy = v
        zy = y_cols[z]                        # zy[s, j] = z_s y_j
        m = np.take(zy, slot[v], axis=1)      # m[s, u] = z_s rep(v_u)
        slot[v] = np.arange(len(v))
        # (A): z_s y_j = z_s rep(g y_j)
        if not np.array_equal(zy, np.take(m, slot[gy], axis=1)):
            return False
        slot[z] = np.arange(len(z))
        # (B): x_i v_u = (x_i g) rep(v_u)
        if not np.array_equal(np.take(x_rows, v, axis=1), np.take(m, slot[xg], axis=0)):
            return False
    return True


# A generator goes to _factored_check when its |gS| + |Sg| bounds the cells
# read there by a quarter of its direct |xs| |ys|
_FACTORED_RATIO = 4


def _first_failure(x_rows, y_cols, xs, gs, ys):
    """First (x, g, y) of xs x gs x ys, x-major, with (xg)y != x(gy), or None.

    x_rows and y_cols are _light_witness's.  A block holds several x
    only when it holds every g, so the first failing block holds the first.
    """
    if not len(gs):
        return None
    xg = x_rows[:, gs]                # xg[i, k] = xs[i]*g_k
    gy = y_cols[gs]                   # gy[k, j] = g_k*ys[j]
    # np.take lays x(gy) out in C order like (xg)y; fancy indexing would
    # not, and comparing mismatched layouts is several times slower
    for xb, gb in _blocks(len(xs), len(gs), len(ys)):
        left = y_cols[xg[xb, gb]]                     # (xg)y
        right = np.take(x_rows[xb], gy[gb], axis=1)   # x(gy)
        if not np.array_equal(left, right):
            i, k, j = np.argwhere(left != right)[0]
            return int(xs[xb.start + i]), int(gs[gb.start + k]), int(ys[j])
    return None


@dataclass(frozen=True, eq=False)
class ReesForm:
    """A proof that a table is a Rees matrix semigroup over the trivial group.

    cell[i, λ] is the one element in row i and column λ of the I x Λ grid
    (an intp array) and p[λ, i] the 0/1 sandwich matrix P (a bool array).
    When zero is the two-sided zero, the table is M0(I, Λ; P):
    ab = cell(i(a), λ(b)) when p[λ(a), i(b)] holds, and zero otherwise.
    When zero is None, p is all ones and the table is the rectangular band
    I x Λ, M(1; I, Λ): ab = cell(i(a), λ(b)) always.  Both arrays are
    read-only.
    """

    cell: np.ndarray
    p: np.ndarray
    zero: int | None


def _two_sided_zero(compact: np.ndarray, ident: np.ndarray):
    """compact's two-sided zero, in compact's dtype, or None; O(n) reads.

    A zero z has 0z = z = z0, and it is the product of any elements that
    include it, in any bracketing: the product of the elements c with
    0c = c = c0 is the only candidate, and its row and column are read.
    """
    v = np.flatnonzero((compact[0] == ident) & (compact[:, 0] == ident))
    while len(v) > 1:
        v = np.concatenate([compact[v[:-1:2], v[1::2]], v[len(v) & ~1:]])
    if not len(v):
        return None
    z = compact.dtype.type(v[0])
    if (compact[z] != z).any() or (compact[:, z] != z).any():
        return None
    return z


def _rees_form(compact: np.ndarray) -> ReesForm | None:
    """compact's ReesForm, or None: a form found proves the table associative.

    The table must have a two-sided zero z (_two_sided_zero), or have
    none and an idempotent diagonal; both are read in O(n), so T_n, a band
    times a group and a group leave at once.  Each element a other than z
    gets i(a), the least entry of its row, and λ(a), that of its column;
    with a zero both are read in the cyclic order that starts after z
    (entries are read as x - z - 1 modulo the dtype's range, so z sorts
    last and needs no sentinel).  These labels must put exactly one element
    in each cell of an I x Λ grid.  With a zero P[λ, i] is read off one
    product per pair; without one it is all ones.  z's row and column were
    read whole, and the row of every other element a is compared with
    ab = cell(i(a), λ(b)) when P[λ(a), i(b)] and z otherwise, for a block
    of the grid's elements at a time, in compact's dtype.  When all match,
    the table is M0(I, Λ; P), where (ab)c and a(bc) both equal
    cell(i(a), λ(c)) exactly when P[λ(a), i(b)] and P[λ(b), i(c)] hold and
    both are z otherwise, or without a zero the rectangular band I x Λ,
    M(1; I, Λ), where both are cell(i(a), λ(c)).  The labels are only a
    guess: the grid and the formula prove the form, and the grid, P and z
    are returned as its certificate.
    """
    n = compact.shape[0]
    if n < 2:
        return None
    ident = np.arange(n)
    z = _two_sided_zero(compact, ident)
    if z is not None:
        others = np.flatnonzero(ident != z)
        flip = np.invert(z)             # x + flip = x - z - 1, wrapping
    elif (np.diagonal(compact) == ident).all():
        others = ident
        flip = compact.dtype.type(0)
    else:
        return None
    # rows per block as in _ideal_profile: no temporary takes more than
    # _ASSOC_CHUNK_CELLS bytes
    step = max(1, _ASSOC_CHUNK_CELLS // (8 * n))
    row_min = np.empty(n, dtype=compact.dtype)
    col_min = np.full(n, np.iinfo(compact.dtype).max, dtype=compact.dtype)
    for start in range(0, n, step):
        keys = compact[start:start + step] + flip
        row_min[start:start + step] = keys.min(axis=1)
        np.minimum(col_min, keys.min(axis=0), out=col_min)
    row_labels, i = np.unique(row_min[others], return_inverse=True)
    col_labels, lam = np.unique(col_min[others], return_inverse=True)
    m, k = len(row_labels), len(col_labels)
    if m * k != len(others):
        return None
    cell = np.full((m, k), -1, dtype=np.intp)
    cell[i, lam] = others
    if (cell < 0).any():                # a cell left empty, so another holds two
        return None
    # col_lam[b] = λ(b); z's is 0, which P hides
    col_lam = np.zeros(n, dtype=np.intp)
    col_lam[others] = lam
    if z is None:
        p = np.ones((k, m), dtype=bool)
    else:
        p = compact[cell[:1].T, cell[:, :1].T] != z    # p[λ, i] = cell(0, λ) cell(i, 0) != z
        # nonzero[λ, b] = P[λ, i(b)], 0 in z's column, in compact's dtype
        # so that the products below need no cast
        nonzero = np.zeros((k, n), dtype=compact.dtype)
        nonzero[:, others] = p[:, i]
    # the rows of a block of the grid's elements, about step of them (8 n
    # bytes each), against value[i, b] = cell(i, λ(b)), or with a zero
    # against (value - z) P[λ, i(b)] + z, which wraps back to value or
    # gives z
    grid = cell.astype(compact.dtype)
    for ib, lb in _blocks(m, k, 8 * n):
        value = grid[ib][:, None, col_lam]
        if z is not None:
            value = (value - z) * nonzero[lb]
            value += z
        if not (compact[cell[ib, lb]] == value).all():
            return None
    cell.setflags(write=False)
    p.setflags(write=False)
    return ReesForm(cell=cell, p=p, zero=None if z is None else int(z))


def _associativity_witness(product: np.ndarray):
    """First triple (a, b, c) with (ab)c != a(bc) in lexicographic order, or None."""
    return _associativity_check(_narrow(product))[0]


def _associativity_check(compact: np.ndarray):
    """_associativity_witness on compact, a _narrow table, and its ReesForm or None.

    A table that _rees_form certifies has no failing triple; any other goes
    through Light's test in _light_witness.
    """
    form = _rees_form(compact)
    return (None if form is not None else _light_witness(compact)), form


def _light_witness(compact: np.ndarray):
    """_associativity_witness on compact, a _narrow table, by Light's test.

    (ab)c = a(bc) reads a only through its row, c only through its column
    and b through both, so that triple has a in xs, b in classes and c in
    ys (see _light_sets), where _first_failure finds it.  Two shortcuts
    come first: Light's test checks only gens, a generating set, and
    _factored_check takes the generators with small ideals.
    """
    n = compact.shape[0]
    xs, gens, ys, bound, classes = _light_sets(compact)
    # a table with no repeated row (or column) is read in place
    x_rows = compact if len(xs) == n else compact[xs]        # x_rows[i, b] = xs[i]*b
    y_cols = compact if len(ys) == n else compact[:, ys]     # y_cols[a, j] = a*ys[j]
    direct = len(xs) * len(ys)
    if bound is not None:
        # |Sg| |ys| + |xs| |gS| <= bound * max(|xs|, |ys|)
        factored = _FACTORED_RATIO * bound * max(len(xs), len(ys)) <= direct
        if (_factored_check(x_rows, y_cols, gens[factored])
                and _first_failure(x_rows, y_cols, xs, gens[~factored], ys) is None):
            return None
    return _first_failure(x_rows, y_cols, xs, classes, ys)


class MulTable:
    """A finite semigroup on elements 0..n-1 given by its product table.

    The input must be a square array of integer dtype (anything else raises
    TableFormatError), entries are range-checked and associativity is
    verified at construction: by the Rees formula check when the table is
    a Rees matrix semigroup over the trivial group, M0(I, Λ; P) or a
    rectangular band, by Light's test otherwise; a non-associative table
    raises NotAssociativeError with its lexicographically first bad
    triple.  rees_form keeps the ReesForm that check proved, or None when
    the table is of neither form, and Green's relations are read off it.
    The product is stored as a read-only C-ordered array of
    _storage_dtype(n), uint8 up to 256 elements and uint16 up to 65536,
    whatever the input's dtype and layout:
    a copy, unless the input already is such an array and owns its data,
    and instances are immutable afterwards.  Structure derived from the table
    (Green classes, inverse sets) is cached on the instance through
    `derived`.
    """

    __slots__ = ("n", "product", "names", "rees_form", "_cache")

    def __init__(self, product, names=None):
        try:
            arr = np.asarray(product)
        except ValueError as exc:
            raise TableFormatError(f"product table is not a rectangular array: {exc}") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise TableFormatError(f"product table must be square, got shape {arr.shape}")
        if arr.dtype.kind not in "iu":
            raise TableFormatError(f"product table entries must be integers, got dtype {arr.dtype}")
        n = int(arr.shape[0])
        if n == 0:
            raise TableFormatError("a semigroup needs at least one element")
        if int(arr.min()) < 0 or int(arr.max()) >= n:
            a, b = (int(x) for x in np.argwhere((arr < 0) | (arr >= n))[0])
            raise EntryRangeError(f"entry product[{a}][{b}] = {int(arr[a, b])} outside [0, {n})")
        # a read-only array that owns its data, as parse_table and the
        # builders make, is kept when it is in the storage dtype; anything
        # else is copied, so no caller's array is frozen
        arr = _narrow(arr, copy=arr.flags.writeable or not arr.flags.owndata)
        witness, rees_form = _associativity_check(arr)
        if witness is not None:
            raise NotAssociativeError(witness)
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise TableFormatError(f"expected {n} names, got {len(names)}")
            if len(set(names)) != n:
                raise TableFormatError("element names must be distinct")
            # split drops an empty name and cuts one with whitespace
            if " ".join(names).split() != list(names):
                raise TableFormatError("element names must be non-empty and whitespace-free")
        arr.setflags(write=False)
        self.n = n
        self.product = arr
        self.names = names
        self.rees_form = rees_form
        self._cache = {}

    def mul(self, a: int, b: int) -> int:
        return int(self.product[a, b])

    def power(self, a: int, k: int) -> int:
        """a^k for k >= 1."""
        if k < 1:
            raise ValueError("power needs k >= 1")
        return int(_powers(self.product, a, k))

    def element_name(self, a: int) -> str:
        return self.names[a] if self.names is not None else str(a)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other):
        return (
            isinstance(other, MulTable)
            and self.n == other.n
            and self.names == other.names
            and np.array_equal(self.product, other.product)
        )

    __hash__ = None

    def __repr__(self):
        return f"MulTable(n={self.n})"


def derived(key: str):
    """Decorator caching fn(table) in the table's cache under key.

    Everything derived from a table is a function of its immutable product,
    so fn runs once per table; a None result is cached like any other.  An
    exception is not cached.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def cached(table: MulTable):
            cache = table._cache
            if key not in cache:
                cache[key] = fn(table)
            return cache[key]
        return cached
    return decorate


def _rows_by_loop(body: list, n: int) -> list:
    """Each row split on whitespace and read with int(); words every row error.

    Once every row is read, the first entry outside [0, n) in row-major
    order raises MulTable's EntryRangeError, also for a value no integer
    dtype holds.
    """
    rows = []
    for i, line in enumerate(body):
        toks = line.split()
        if len(toks) != n:
            raise TableFormatError(f"row {i}: expected {n} entries, got {len(toks)}")
        try:
            rows.append([int(t) for t in toks])
        except ValueError:
            raise TableFormatError(f"row {i}: non-integer entry") from None
    for a, row in enumerate(rows):
        if min(row) < 0 or max(row) >= n:
            b, value = next((b, v) for b, v in enumerate(row) if not 0 <= v < n)
            raise EntryRangeError(f"entry product[{a}][{b}] = {value} outside [0, {n})")
    return rows


def _data_lines(lines, names):
    """The stripped lines that are neither blank nor comments, and names after the comments.

    A '# names: x y z' comment replaces names.
    """
    data = []
    for raw in lines:
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("names:"):
                names = body[len("names:"):].split()
        elif line:
            data.append(line)
    return data, names


def _element_count(line, max_size: int) -> int:
    """n from the stripped first data line; line is None when the file has none."""
    if line is None:
        raise TableFormatError("no data lines found")
    head = line.split()
    if len(head) != 1:
        raise TableFormatError(f"first data line must be the element count, got {line!r}")
    try:
        n = int(head[0])
    except ValueError:
        raise TableFormatError(f"element count is not an integer: {head[0]!r}") from None
    if n <= 0:
        raise TableFormatError("element count must be positive")
    if n > max_size:
        raise CapExceededError(f"table has {n} elements, cap is {max_size}")
    return n


def parse_table(text: str, max_size: int = DEFAULT_SIZE_CAP) -> MulTable:
    """Parse the table file format.

    Lines starting with '#' are comments; a '# names: x y z' comment supplies
    display names, the last such line winning.  The first data line is the
    element count n, followed by n lines of n whitespace-separated entries
    in [0, n).  A count above max_size raises CapExceededError before any
    row is read.

    The rows are read by a byte pass over blocks of whole lines, which takes
    ASCII digits, spaces, tabs, blank lines, comment lines and \n or \r\n
    line ends.  Any other text (a sign, a non-ASCII character, another line
    break, a row without n entries, a value outside [0, n)) sends the whole
    table through the per-row int() loop, so the accepted tables and every
    error message are those of the loop.
    """
    # the text's lines and blocks are freed before MulTable verifies the rows
    names, product = _read_table(text, max_size)
    return MulTable(product, names)


def _read_table(text: str, max_size: int):
    """The display names, or None, and the rows of a table file; see parse_table."""
    read = _read_by_bytes(text, max_size)
    return _read_by_lines(text, max_size) if read is None else read


def _read_by_lines(text: str, max_size: int):
    """_read_table through str.splitlines and the per-row int() loop."""
    data, names = _data_lines(text.splitlines(), None)
    n = _element_count(data[0] if data else None, max_size)
    if len(data) - 1 != n:
        raise TableFormatError(f"expected {n} table rows, got {len(data) - 1}")
    product = np.array(_rows_by_loop(data[1:], n), dtype=_storage_dtype(n))
    product.setflags(write=False)
    return names, product


def _lines(text: str):
    """The lines of text, each with its \n, the last one with or without it."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _read_prelude(lines, max_size: int):
    """names, n and the characters read, from a table file's lines up to the element count.

    lines yields the file's lines with their line ends.  Comments and
    '# names:' lines are read as parse_table reads them, and the first data
    line is the count, which _element_count reads and checks against
    max_size.  None when a line holds a break that str.splitlines splits at
    before its end: then only _read_by_lines reads the file as parse_table
    does.
    """
    names = None
    read = 0
    for raw in lines:
        if len(raw.splitlines()) > 1:
            return None
        read += len(raw)
        data, names = _data_lines([raw], names)
        if data:
            return names, _element_count(data[0], max_size), read
    return _element_count(None, max_size)       # raises: there is no data line


# characters per block of the byte pass, rounded to whole lines, for each
# 1024 elements of n
_BLOCK_BYTES = 1 << 14
# the longest digit run the byte pass reads, so that uint16 holds it; longer
# runs, and so every table of more than 10^4 elements, go to the loop
_MAX_RUN = 4


def _read_by_bytes(text: str, max_size: int):
    """_read_table's result, or None when _read_by_lines must read the text.

    The prelude up to the element count is _read_prelude's, and a None
    from it returns None.
    The body is then read in blocks of whole lines of about _BLOCK_BYTES
    characters per 1024 elements.  A block with a '#' has its comment lines
    taken out first.  Every byte left must be an ASCII digit, space, tab or
    \n, or a \r before a \n, and every line must hold no entry or n of
    them.  The digit runs end where a digit meets a non-digit; shifted
    Horner passes, each reaching one digit further back, spell each run's
    number at its end, and those numbers are written straight into the
    rows of the product.  A run of more than _MAX_RUN digits, a value of n
    or more, or a row count other than n returns None.
    """
    prelude = _read_prelude(_lines(text), max_size)
    if prelude is None:
        return None
    names, n, pos = prelude
    product = np.empty((n, n), dtype=_storage_dtype(n))
    flat = product.reshape(-1)
    row = 0
    # a row near the cap is longer than _BLOCK_BYTES alone, so the budget
    # grows with n and each block's fixed cost is spread over a few rows
    budget = _BLOCK_BYTES * max(1, n >> 10)
    while pos < len(text):
        end = text.rfind("\n", pos, pos + budget) + 1
        if end <= pos:
            # a line longer than the budget is a block of its own
            end = text.find("\n", pos + budget) + 1 or len(text)
        block = text[pos:end]
        pos = end
        if "#" in block:
            kept, names = _data_lines(block.splitlines(), names)
            block = "\n".join(kept)
        if not block.isascii():
            return None
        # a line end before the first line and after the last
        v = np.frombuffer(f"\n{block}\n".encode("ascii"), dtype=np.uint8)
        d = v - np.uint8(48)
        digit = d < np.uint8(10)
        line_ends = (v == np.uint8(10)).nonzero()[0]
        if (np.count_nonzero(digit) + np.count_nonzero(v == np.uint8(32))
                + np.count_nonzero(v == np.uint8(9)) + len(line_ends)
                + np.count_nonzero(v[line_ends[1:] - 1] == np.uint8(13))) != len(v):
            return None
        ends = (digit[:-1] > digit[1:]).nonzero()[0]
        before = np.searchsorted(ends, line_ends)    # entries before each line end
        rows = np.count_nonzero(before[1:] - before[:-1] == n)
        if rows * n != len(ends) or row + rows > n:
            return None
        # h[i]: the number the digits of i's run spell up to i, or its last
        # k + 1 digits after k passes
        digits = d.astype(np.uint16)
        digits *= digit
        ten = digit * np.uint8(10)
        h = digits
        run = digit
        for k in range(1, _MAX_RUN + 1):
            run = run[1:] & digit[:-k]       # run[i]: a run of k + 1 digits ends at i + k
            if not run.any():
                break
            if k == _MAX_RUN:
                return None
            shifted = np.empty_like(digits)
            shifted[0] = 0
            np.multiply(h[:-1], ten[1:], out=shifted[1:])
            shifted += digits
            h = shifted
        values = h[ends]
        if rows and values.max() >= n:
            return None
        flat[row * n:(row + rows) * n] = values
        row += rows
    if row != n:
        return None
    # MulTable keeps a read-only array in its storage dtype instead of copying it
    product.setflags(write=False)
    return names, product


def render_table(table: MulTable) -> str:
    """Serialize in the format accepted by parse_table (round-trips exactly)."""
    lines = []
    if table.names is not None:
        lines.append("# names: " + " ".join(table.names))
    lines.append(str(table.n))
    tokens = np.array([str(i) for i in range(table.n)], dtype=object)   # each entry's text, once
    lines.extend(" ".join(tokens[row].tolist()) for row in table.product)
    return "\n".join(lines) + "\n"


class BoolStructureMatrix:
    """Boolean sandwich matrix for the combinatorial Rees construction.

    Rows are indexed by L-class labels, columns by R-class labels.  The
    matrix must be regular: every row and every column contains a True.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        mat = tuple(tuple(bool(x) for x in row) for row in entries)
        if not mat or not mat[0]:
            raise TableFormatError("structure matrix must be non-empty")
        if any(len(r) != len(mat[0]) for r in mat):
            raise TableFormatError("structure matrix rows must have equal length")
        self.entries = mat
        self.rows = len(mat)
        self.cols = len(mat[0])
        for lam, row in enumerate(mat):
            if not any(row):
                raise NotRegularMatrixError(f"row {lam} of the structure matrix is all false")
        for i in range(self.cols):
            if not any(row[i] for row in mat):
                raise NotRegularMatrixError(f"column {i} of the structure matrix is all false")

    def __eq__(self, other):
        return isinstance(other, BoolStructureMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"BoolStructureMatrix({self.rows}x{self.cols})"


def rees_matrix(p: BoolStructureMatrix) -> MulTable:
    """Combinatorial semigroup with zero built over a structure matrix.

    Nonzero elements are pairs (i, lam) with i a column label and lam a row
    label of p; the product is (i, lam)(k, mu) = (i, mu) when p[lam][k]
    holds and 0 otherwise.  Pairs are indexed lexicographically and the zero
    sits last.  Display names are 1-based, "(1,2)" style.
    """
    rows, cols = p.rows, p.cols
    zero = cols * rows
    dtype = _storage_dtype(zero + 1)
    i, lam = np.divmod(np.arange(zero), rows)    # element i*rows + lam is (i, lam)
    prod = np.full((zero + 1, zero + 1), zero, dtype=dtype)
    # (i, lam)(k, mu) = i*rows + mu where p[lam][k] holds, written in place
    np.add((i * rows).astype(dtype)[:, None], lam.astype(dtype), out=prod[:zero, :zero],
           where=np.array(p.entries, dtype=bool)[lam[:, None], i])
    prod.setflags(write=False)
    names = [f"({i + 1},{lam + 1})" for i in range(cols) for lam in range(rows)]
    names.append("0")
    return MulTable(prod, names)


def rectangular_band(m: int, n: int) -> MulTable:
    """The m x n rectangular band: (i, j)(k, l) = (i, l)."""
    if m < 1 or n < 1:
        raise TableFormatError("rectangular band needs m >= 1 and n >= 1")
    size = m * n
    dtype = _storage_dtype(size)
    a = np.arange(size)
    # (i, j)(k, l) = i*n + l: each row's start plus each column's l
    prod = np.add(((a // n) * n).astype(dtype)[:, None], (a % n).astype(dtype))
    prod.setflags(write=False)
    names = [f"({i + 1},{j + 1})" for i in range(m) for j in range(n)]
    return MulTable(prod, names)


def full_transformation(n: int, max_size: int = DEFAULT_SIZE_CAP) -> MulTable:
    """All n^n self-maps of {0..n-1} under left-to-right composition.

    The product fg applies f first: x(fg) = (xf)g.  Maps are ordered
    lexicographically by their value tuples and named by the digit string of
    their values, so the identity of T_3 is "012".
    """
    if n < 1:
        raise TableFormatError("n must be positive")
    # n^n is multiplied up only until it passes the cap, so a huge n fails at once
    size = 1
    for _ in range(n):
        size *= n
        if size > max_size:
            # past n = 15, n^n has 20 digits or more, and past about 1900 str() refuses it
            count = n ** n if n <= 15 else f"{n}^{n}"
            raise CapExceededError(
                f"full transformation semigroup has {count} elements, cap is {max_size}")
    # maps in lexicographic order are the base-n numerals 0..size-1, in the
    # storage dtype
    dtype = _storage_dtype(size)
    maps = np.array(list(itertools.product(range(n), repeat=n)), dtype=dtype)
    # [i, j] is the base-n numeral of the values x f_i g_j, one digit x at a
    # time: cols[v, j] = v g_j, so cols[maps[rows, x]] is digit x of those
    # rows' products; a block of rows at a time keeps the only temporary
    # small beside the product
    cols = np.ascontiguousarray(maps.T)
    prod = np.zeros((size, size), dtype=dtype)
    step = max(1, _ASSOC_CHUNK_CELLS // size)
    for start in range(0, size, step):
        block = prod[start:start + step]
        for x in range(n):
            block *= n
            block += cols[maps[start:start + step, x]]
    prod.setflags(write=False)
    names = ["".join(str(v) for v in f) for f in maps.tolist()]
    return MulTable(prod, names)


def direct_product(s: MulTable, t: MulTable, max_size: int = DEFAULT_SIZE_CAP) -> MulTable:
    """Componentwise product on pairs; (a, b) gets index a * |T| + b."""
    size = s.n * t.n
    if size > max_size:
        raise CapExceededError(f"direct product has {size} elements, cap is {max_size}")
    a = np.arange(s.n).repeat(t.n)
    b = np.tile(np.arange(t.n), s.n)
    prod = np.empty((size, size), dtype=_storage_dtype(size))
    # (xx') |T| + yy' is worked out in intp, where the factors' narrow
    # entries cannot wrap, a block of rows (about _ASSOC_CHUNK_CELLS bytes)
    # at a time
    step = max(1, _ASSOC_CHUNK_CELLS // (8 * size))
    for start in range(0, size, step):
        block = slice(start, start + step)
        pair = s.product[a[block, None], a].astype(np.intp)
        pair *= t.n
        pair += t.product[b[block, None], b]
        prod[block] = pair
    prod.setflags(write=False)
    names = None
    if s.names is not None and t.names is not None:
        names = [f"({s.names[x]},{t.names[y]})" for x in range(s.n) for y in range(t.n)]
    return MulTable(prod, names)
