"""Idempotents, inverse sets, classification flags, and the V-class partition.

The inverse set V(a) = {b : aba = a and bab = b} drives everything in the
matching modules.  inverse_matrix holds the whole relation as one cached
boolean array, which every consumer reads; inverse_sets is a set-valued
view of it.  For orthodox semigroups the relation "same inverse set"
partitions S; gamma_structure computes that partition together with the
induced involution on classes when it exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError
from .green import _ids, _members, green_arrays
from .table import _ASSOC_CHUNK_CELLS, MulTable, _first_equal, _powers, _transposed, derived


@derived("idempotents")
def idempotents(table: MulTable) -> tuple:
    diag = table.product[np.arange(table.n), np.arange(table.n)]
    return tuple(np.flatnonzero(diag == np.arange(table.n)).tolist())


@derived("inverse_matrix")
def inverse_matrix(table: MulTable) -> np.ndarray:
    """V as a read-only n x n bool array: V[a, b] holds when aba = a and bab = b.

    The relation is symmetric; np.flatnonzero(V[a]) is V(a) in ascending order.
    With X[a, b] = [(ab)a = a], V is X and its transpose: bab = b is X[b, a].
    (ab)a is entry (ab)*n + a of the flattened product, read with one np.take
    per block of rows, whose intp index (about _ASSOC_CHUNK_CELLS bytes) is
    worked out in intp, as the narrow entries would wrap.  The blocked copy
    of the transpose is about as fast as the gather; a strided read of X.T
    or of product.T is several times slower.
    """
    n = table.n
    p = table.product
    flat = p.ravel()
    ar = np.arange(n)[:, None]
    x = np.empty((n, n), dtype=bool)
    step = max(1, _ASSOC_CHUNK_CELLS // (8 * n))
    for start in range(0, n, step):
        block = slice(start, start + step)
        idx = np.multiply(p[block], n, dtype=np.intp)
        idx += ar[block]
        np.equal(flat.take(idx), ar[block], out=x[block])
    result = x & _transposed(x)
    result.setflags(write=False)
    return result


@derived("inverse_sets")
def inverse_sets(table: MulTable) -> tuple:
    """V(a) for every a, as a tuple of frozensets: a view of inverse_matrix."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in inverse_matrix(table))


@dataclass(frozen=True)
class InverseSets:
    """The V-class partition of a regular semigroup.

    gamma_class[a] is the id of a's class under "V(a) = V(b)"; class_list
    holds the members of each class in element order.  v_involution maps
    class i to the common class of all inverses of class-i elements, and is
    only set when that map is well defined (always, for orthodox input).
    """

    gamma_class: tuple
    class_list: tuple
    v_involution: tuple | None

    def gamma_classes(self) -> int:
        return len(self.class_list)

    def fixed_classes(self) -> tuple:
        if self.v_involution is None:
            return ()
        return tuple(i for i, j in enumerate(self.v_involution) if i == j)


@derived("gamma")
def gamma_structure(table: MulTable) -> InverseSets:
    """Group elements by their inverse sets; derive the class involution.

    Raises NotRegularError when some element has no inverse.  The involution
    is only filled in for orthodox input, where the inverse sets themselves
    partition S: every V(a) is exactly one class, and sending a class to the
    class of its inverses is an involution whose fixed classes consist of
    elements with a = a^3.  These facts are re-verified, not assumed.
    """
    v = inverse_matrix(table)
    regular = v.any(axis=1)
    if not regular.all():
        raise NotRegularError(int(regular.argmin()))
    # equal rows are one class; each element's least class-mate fixes the ids
    ids = _ids(_first_equal(v))
    gamma_class = tuple(ids.tolist())
    class_list = _members(ids)
    k = len(class_list)

    v_involution = None
    if is_orthodox(table):
        involution = []
        for c in range(k):
            inverses = np.flatnonzero(v[class_list[c][0]])
            targets = np.unique(ids[inverses])
            if len(targets) != 1:
                raise RuntimeError("inverses of an orthodox element must fill one class")
            d = int(targets[0])
            if not np.array_equal(inverses, class_list[d]):
                raise RuntimeError("inverse sets of an orthodox semigroup must partition it")
            involution.append(d)
        inv = np.array(involution)
        if not np.array_equal(inv[inv], np.arange(k)):
            raise RuntimeError("V-class map is not an involution")
        fixed = np.flatnonzero(inv[ids] == ids)      # the elements of fixed classes
        if not np.array_equal(_powers(table.product, fixed, 3), fixed):
            raise RuntimeError("fixed V-class contains a != a^3")
        v_involution = tuple(involution)
    return InverseSets(gamma_class=gamma_class, class_list=class_list,
                       v_involution=v_involution)


@derived("orthodoxy_witness")
def orthodoxy_witness(table: MulTable):
    """First idempotent pair (e, f) with ef not idempotent, or None if orthodox.

    Pairs are scanned in row-major order over the idempotents ascending.
    A band is orthodox, so when every element is idempotent nothing is read.
    """
    idems = np.array(idempotents(table), dtype=np.intp)
    if len(idems) == table.n:
        return None
    is_idem = np.zeros(table.n, dtype=bool)
    is_idem[idems] = True
    bad = ~is_idem[table.product[np.ix_(idems, idems)]]
    first = int(bad.argmax())
    if not bad.flat[first]:
        return None
    e, f = divmod(first, len(idems))
    return (int(idems[e]), int(idems[f]))


@derived("orthodox")
def is_orthodox(table: MulTable) -> bool:
    """S is regular (every V(a) is non-empty) and E(S) is a subsemigroup.

    Reads only inverse_matrix, idempotents and orthodoxy_witness, never
    Green's relations, so picking a matching route costs no classification.
    """
    return bool(inverse_matrix(table).any(axis=1).all()) and orthodoxy_witness(table) is None


@dataclass(frozen=True)
class ClassificationFlags:
    regular: bool
    orthodox: bool
    inverse: bool
    band: bool
    rectangular_band: bool
    completely_regular: bool
    completely_simple: bool
    combinatorial: bool
    group: bool
    self_inverse: bool
    has_zero: bool


@derived("classify")
def classify(table: MulTable) -> ClassificationFlags:
    """All standard structural flags, computed independently of each other."""
    n = table.n
    prod = table.product
    ar = np.arange(n)
    g = green_arrays(table)
    inverse_counts = inverse_matrix(table).sum(axis=1)

    regular = bool(inverse_counts.all())
    inverse = regular and bool((inverse_counts == 1).all())
    sq = prod[ar, ar]
    band = bool(np.array_equal(sq, ar))
    # aba = a for all a, b: every b is an inverse of every a
    rect_band = band and bool((inverse_counts == n).all())
    # completely regular: a lies in a subgroup, i.e. a H a^2
    completely_regular = bool(np.array_equal(g.h_class[sq], g.h_class))
    completely_simple = completely_regular and g.d_count == 1
    combinatorial = g.h_count == n
    group = g.h_count == 1
    self_inverse = bool(np.array_equal(prod[sq, ar], ar))
    # a zero is a left zero (row z all z) whose column is all z too
    left_zeros = np.flatnonzero((prod == ar[:, None]).all(axis=1))
    has_zero = bool((prod[:, left_zeros] == left_zeros).all(axis=0).any())
    return ClassificationFlags(
        regular=regular,
        orthodox=is_orthodox(table),
        inverse=inverse,
        band=band,
        rectangular_band=rect_band,
        completely_regular=completely_regular,
        completely_simple=completely_simple,
        combinatorial=combinatorial,
        group=group,
        self_inverse=self_inverse,
        has_zero=has_zero,
    )


@dataclass(frozen=True)
class InverseSquare:
    """A 2x2 egg-box square witnessing non-inverse behaviour.

    e is idempotent, a is a non-idempotent inverse of e, and f = ea, g = ae
    are idempotents completing the square: a R g, g L e, e R f, f L a,
    with gf = a.
    """

    e: int
    a: int
    f: int
    g: int


def find_inverse_square(table: MulTable):
    """Locate the square configuration in a regular, non-inverse semigroup.

    Scans idempotents in element order and their inverse sets likewise, so
    the result is deterministic.  Returns None when the semigroup is inverse
    or not regular (the configuration requires an idempotent with a second,
    non-idempotent inverse).
    """
    v = inverse_matrix(table)
    if not v.any(axis=1).all():
        return None
    idem_set = set(idempotents(table))
    g_rel = green_arrays(table)
    prod = table.product
    for e in sorted(idem_set):
        for a in np.flatnonzero(v[e]).tolist():
            if a in idem_set:
                continue
            f = int(prod[e, a])
            g = int(prod[a, e])
            if f not in idem_set or g not in idem_set:
                raise RuntimeError("ea and ae must be idempotent for a in V(e)")
            if int(prod[g, f]) != a:
                raise RuntimeError("gf must recover a")
            chain_ok = (
                g_rel.r_class[a] == g_rel.r_class[g]
                and g_rel.l_class[g] == g_rel.l_class[e]
                and g_rel.r_class[e] == g_rel.r_class[f]
                and g_rel.l_class[f] == g_rel.l_class[a]
            )
            if not chain_ok:
                raise RuntimeError("square does not close in the egg box")
            return InverseSquare(e=e, a=a, f=f, g=g)
    return None
