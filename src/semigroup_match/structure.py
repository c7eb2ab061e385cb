"""Idempotents, inverse sets, classification flags, and the V-class partition.

The inverse set V(a) = {b : aba = a and bab = b} drives everything in the
matching modules.  For orthodox semigroups the relation "same inverse set"
partitions S; gamma_structure computes that partition together with the
induced involution on classes when it exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError
from .green import green_classes
from .table import MulTable


def idempotents(table: MulTable) -> tuple:
    cached = table._cache.get("idempotents")
    if cached is not None:
        return cached
    diag = table.product[np.arange(table.n), np.arange(table.n)]
    result = tuple(int(x) for x in np.flatnonzero(diag == np.arange(table.n)))
    table._cache["idempotents"] = result
    return result


def inverse_sets(table: MulTable) -> tuple:
    """V(a) for every a, as a tuple of frozensets indexed by element."""
    cached = table._cache.get("inverse_sets")
    if cached is not None:
        return cached
    n = table.n
    prod = table.product
    ar = np.arange(n)
    out = []
    for a in range(n):
        aba = prod[prod[a], a]          # aba[b] = (ab)a
        bab = prod[prod[:, a], ar]      # bab[b] = (ba)b
        mask = (aba == a) & (bab == ar)
        out.append(frozenset(int(b) for b in np.flatnonzero(mask)))
    result = tuple(out)
    table._cache["inverse_sets"] = result
    return result


def inverses_of_set(table: MulTable, elements) -> set:
    """V(A) = union of V(a) over a in A."""
    v = inverse_sets(table)
    out = set()
    for a in elements:
        out |= v[a]
    return out


@dataclass(frozen=True)
class InverseSets:
    """The V-class partition of a regular semigroup.

    gamma_class[a] is the id of a's class under "V(a) = V(b)"; class_list
    holds the members of each class in element order.  v_involution maps
    class i to the common class of all inverses of class-i elements, and is
    only set when that map is well defined (always, for orthodox input).
    """

    v: tuple
    gamma_class: tuple
    class_list: tuple
    v_involution: tuple | None

    def gamma_classes(self) -> int:
        return len(self.class_list)

    def fixed_classes(self) -> tuple:
        if self.v_involution is None:
            return ()
        return tuple(i for i, j in enumerate(self.v_involution) if i == j)


def gamma_structure(table: MulTable) -> InverseSets:
    """Group elements by their inverse sets; derive the class involution.

    Raises NotRegularError when some element has no inverse.  The involution
    is only filled in for orthodox input, where the inverse sets themselves
    partition S: every V(a) is exactly one class, and sending a class to the
    class of its inverses is an involution whose fixed classes consist of
    elements with a = a^3.  These facts are re-verified, not assumed.
    """
    cached = table._cache.get("gamma")
    if cached is not None:
        return cached
    v = inverse_sets(table)
    for a in range(table.n):
        if not v[a]:
            raise NotRegularError(a)
    key_to_id = {}
    gamma_class = []
    for a in range(table.n):
        key = v[a]
        if key not in key_to_id:
            key_to_id[key] = len(key_to_id)
        gamma_class.append(key_to_id[key])
    gamma_class = tuple(gamma_class)
    k = len(key_to_id)
    members = [[] for _ in range(k)]
    for a, c in enumerate(gamma_class):
        members[c].append(a)
    class_list = tuple(tuple(m) for m in members)

    v_involution = None
    if orthodoxy_witness(table) is None:
        involution = []
        for c in range(k):
            rep = class_list[c][0]
            targets = {gamma_class[b] for b in v[rep]}
            if len(targets) != 1:
                raise RuntimeError("inverses of an orthodox element must fill one class")
            d = targets.pop()
            if v[rep] != frozenset(class_list[d]):
                raise RuntimeError("inverse sets of an orthodox semigroup must partition it")
            involution.append(d)
        v_involution = tuple(involution)
        for c in range(k):
            if v_involution[v_involution[c]] != c:
                raise RuntimeError("V-class map is not an involution")
            if v_involution[c] == c:
                for a in class_list[c]:
                    if table.power(a, 3) != a:
                        raise RuntimeError("fixed V-class contains a != a^3")
    result = InverseSets(v=v, gamma_class=gamma_class, class_list=class_list,
                         v_involution=v_involution)
    table._cache["gamma"] = result
    return result


def orthodoxy_witness(table: MulTable):
    """First idempotent pair (e, f) with ef not idempotent, or None if orthodox.

    Pairs are scanned in row-major order over the idempotents ascending.
    """
    if "orthodoxy_witness" in table._cache:   # None, the orthodox result, is cached too
        return table._cache["orthodoxy_witness"]
    idems = np.array(idempotents(table), dtype=np.intp)
    is_idem = np.zeros(table.n, dtype=bool)
    is_idem[idems] = True
    bad = ~is_idem[table.product[np.ix_(idems, idems)]]
    first = int(bad.argmax())
    result = None
    if bad.flat[first]:
        e, f = divmod(first, len(idems))
        result = (int(idems[e]), int(idems[f]))
    table._cache["orthodoxy_witness"] = result
    return result


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


def classify(table: MulTable) -> ClassificationFlags:
    """All standard structural flags, computed independently of each other."""
    cached = table._cache.get("classify")
    if cached is not None:
        return cached
    n = table.n
    prod = table.product
    ar = np.arange(n)
    g = green_classes(table)
    v = inverse_sets(table)

    regular = all(v[a] for a in range(n))
    ortho = regular and orthodoxy_witness(table) is None
    inverse = regular and all(len(v[a]) == 1 for a in range(n))
    band = bool(np.array_equal(prod[ar, ar], ar))
    rect_band = band and all(bool(np.all(prod[prod[a], a] == a)) for a in range(n))
    # completely regular: a lies in a subgroup, i.e. a H a^2
    sq = prod[ar, ar]
    completely_regular = all(
        g.h_class[a] == g.h_class[int(sq[a])] for a in range(n)
    )
    completely_simple = completely_regular and len(g.d_classes) == 1
    combinatorial = len(g.h_classes) == n
    group = len(g.h_classes) == 1
    cube = prod[prod[ar, ar], ar]
    self_inverse = bool(np.array_equal(cube, ar))
    has_zero = any(
        bool(np.all(prod[z] == z)) and bool(np.all(prod[:, z] == z)) for z in range(n)
    )
    result = ClassificationFlags(
        regular=regular,
        orthodox=ortho,
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
    table._cache["classify"] = result
    return result


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
    v = inverse_sets(table)
    if not all(v[a] for a in range(table.n)):
        return None
    idem_set = set(idempotents(table))
    g_rel = green_classes(table)
    prod = table.product
    for e in sorted(idem_set):
        for a in sorted(v[e]):
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
