"""Permutation and involution matchings of a semigroup onto its inverses.

A permutation matching is a bijection f of S with f(a) always an inverse of
a; an involution matching additionally satisfies f(f(a)) = a.  Existence of
a permutation matching is exactly Hall's condition for the sets V(a), which
this module decides two independent ways: Hopcroft-Karp maximum bipartite
matching, and (for orthodox input) a structural test on the maximal
rectangular blocks of each D-class of S's own egg box, whose "yes" is an
involution matching.  Both return a verified Matching or a HallCertificate,
whose violating set A with |V(A)| < |A| holds the elements that
Hopcroft-Karp's last layering reaches from the unmatched ones, which the
structural route reads off its blocks, with V(A) read off the inverse
matrix.  Involution matchings of any semigroup are decided in polynomial
time by Edmonds' blossom algorithm, which on failure returns a Tutte
barrier.  decide() is the one entry point that picks a route and returns a
verified Matching, a HallCertificate or a verified TutteBarrier.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, LiftFailureError, NotOrthodoxError
from .factors import (
    PrincipalFactor,
    ZeroRectBand,
    _partner_cells,
    d_class_band,
    maximal_rect_subbands,
)
from .green import green_arrays, omega_powers
from .structure import (
    classify,
    gamma_structure,
    inverse_matrix,
    is_orthodox,
    orthodoxy_witness,
)
from .table import (_ASSOC_CHUNK_CELLS, BoolStructureMatrix, MulTable, _powers,
                    _transposed, rees_matrix)

DEFAULT_BRUTE_CAP = 20


@dataclass(frozen=True)
class Matching:
    """A matching f of the semigroup onto inverses, as a tuple f[a] in V(a)."""

    f: tuple
    kind: str
    provenance: str

    def is_involution_map(self) -> bool:
        return all(self.f[b] == a for a, b in enumerate(self.f))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None
    element: int | None


def verify_matching(table: MulTable, f, require_involution: bool = False) -> VerifyResult:
    """Check that f is a permutation of S with f(a) in V(a) for every a.

    Images must be integers (anything operator.index accepts).  With
    require_involution also demand f(f(a)) = a.  Conditions are checked in
    that order, each over elements ascending, and the first violation is
    reported.
    """
    n = table.n
    f = list(f)
    if len(f) != n:
        return VerifyResult(False, "wrong length", None)
    for a in range(n):
        try:
            f[a] = operator.index(f[a])
        except TypeError:
            return VerifyResult(False, "image not an integer", a)
    for a in range(n):
        if not 0 <= f[a] < n:
            return VerifyResult(False, "image out of range", a)
    seen = [False] * n
    for a in range(n):
        if seen[f[a]]:
            return VerifyResult(False, "not injective", a)
        seen[f[a]] = True
    hits = inverse_matrix(table)[np.arange(n), f]
    if not hits.all():
        return VerifyResult(False, "image not an inverse", int(hits.argmin()))
    if require_involution:
        for a in range(n):
            if f[f[a]] != a:
                return VerifyResult(False, "not an involution", a)
    return VerifyResult(True, None, None)


def _verified(table: MulTable, m: Matching) -> Matching:
    """m itself once verify_matching accepts it for its kind; RuntimeError otherwise."""
    check = verify_matching(table, m.f, require_involution=m.kind == "involution")
    if not check.ok:
        raise RuntimeError(f"{m.provenance} produced no {m.kind} matching: {check.reason}")
    return m


@dataclass(frozen=True)
class HallCertificate:
    """A set A with |V(A)| < |A|, witnessing that no permutation matching exists."""

    violating_set: tuple
    image: tuple


def _row_masks(v) -> list:
    """Row a of the bool matrix v as an int whose bit b is v[a, b].

    One np.packbits packs every row, least significant bit first; each row's
    bytes become one int.
    """
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(v, axis=1, bitorder="little")]


def _hall_certificate(table: MulTable, violating) -> HallCertificate:
    """The HallCertificate of the set A of elements, V(A) read off inverse_matrix.

    Raises RuntimeError unless |A| > |V(A)|.
    """
    violating = tuple(violating)
    image = tuple(np.flatnonzero(inverse_matrix(table)[list(violating)].any(axis=0)).tolist())
    if len(violating) <= len(image):
        raise RuntimeError("certificate set does not violate Hall's condition")
    return HallCertificate(violating_set=violating, image=image)


def find_permutation_matching(table: MulTable):
    """Maximum bipartite matching between elements and their inverse sets.

    Returns a Matching when Hall's condition holds, otherwise a
    HallCertificate exhibiting a set with too few inverses.  An element with
    no inverse at all short-circuits to a singleton certificate.  Otherwise
    the last Hopcroft-Karp layering, which finds no free right, has reached
    exactly the lefts that an alternating path from a free left reaches:
    their inverses are all matched to lefts of that set, so it has more
    members than inverses by the number of free lefts.

    Rows, free rights and layers are int bitmasks (_row_masks): layer[d]
    holds the matched rights whose mate the layering put at depth d, and a
    phase's layering stops at the first depth whose lefts reach a free
    right.  A depth-first step from the left at depth k - 1 takes the least
    right of its row in layer[k], or among the free rights at the last
    depth, so every step picks the least eligible inverse.  A left whose
    row offers none is dead for the rest of the phase, and the right it
    entered by leaves its layer; an augmentation moves each right on the
    path down one layer, the free one included.  Exact layers make every
    step the step of the same search over ascending edge lists; stale ones
    would change only which dead ends are searched, as no shortest path of
    a phase meets a path augmented earlier in it (Hopcroft and Karp).
    """
    n = table.n
    masks = _row_masks(inverse_matrix(table))
    if 0 in masks:
        return _hall_certificate(table, (masks.index(0),))
    match_l = [-1] * n
    match_r = [-1] * n
    free = (1 << n) - 1
    # the first layering: every left is free and every row meets a free right
    roots = list(range(n))
    layer = [0]
    while True:
        last = len(layer)
        for a0 in roots:
            lefts = [a0]
            path = []           # the rights joining lefts, each as its bit
            while lefts:
                k = len(lefts)
                cand = masks[lefts[-1]] & (free if k == last else layer[k])
                if not cand:
                    lefts.pop()
                    if path:
                        layer[k - 1] ^= path.pop()
                    continue
                bit = cand & -cand
                path.append(bit)
                if k < last:
                    lefts.append(match_r[bit.bit_length() - 1])
                    continue
                free ^= bit
                prev = 0
                for i, (x, bit) in enumerate(zip(lefts, path)):
                    y = bit.bit_length() - 1
                    match_l[x] = y
                    match_r[y] = x
                    layer[i] ^= prev | bit
                    prev = bit
                break
        roots = [a for a in range(n) if match_l[a] == -1]
        frontier = roots
        reached = list(roots)
        layer = [0]
        seen = 0
        while True:
            reach = 0
            for a in frontier:
                reach |= masks[a]
            new = reach & ~seen
            if reach & free or not new:
                break
            seen |= new
            layer.append(new)
            frontier = []
            while new:
                bit = new & -new
                frontier.append(match_r[bit.bit_length() - 1])
                new ^= bit
            reached += frontier
        if not reach & free:
            break
    if -1 not in match_l:
        return _verified(table, Matching(f=tuple(match_l), kind="permutation",
                                         provenance="hall_bipartite"))
    return _hall_certificate(table, sorted(reached))


def hall_brute_force(table: MulTable, max_size: int = DEFAULT_BRUTE_CAP) -> HallCertificate | None:
    """Check |V(A)| >= |A| over every subset A directly.

    Subsets are enumerated by size and then lexicographically, so a failure
    returns the HallCertificate of the earliest violating set of minimum
    size; None means Hall's condition holds.  Exponential; refuses tables
    above max_size.
    """
    n = table.n
    if n > max_size:
        raise CapExceededError(f"subset enumeration over {n} elements exceeds the cap of {max_size}")
    masks = _row_masks(inverse_matrix(table))
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            union = 0
            for a in combo:
                union |= masks[a]
            if union.bit_count() < k:
                return _hall_certificate(table, combo)
    return None


def _require_orthodox(table: MulTable):
    if is_orthodox(table):
        return
    regular = inverse_matrix(table).any(axis=1)
    if not regular.all():
        a = int(regular.argmin())
        raise NotOrthodoxError(a, f"not orthodox: element {a} has no inverse")
    e, f = pair = orthodoxy_witness(table)
    raise NotOrthodoxError(
        pair, f"not orthodox: product of idempotents {e} and {f} is not idempotent"
    )


def orthodox_involution(table: MulTable):
    """Involution matching of an orthodox semigroup from its V-class pairing.

    In an orthodox semigroup the inverse sets partition S, and taking
    inverses induces an involution on the classes.  A matching exists
    exactly when each class has the size of its partner; the construction
    fixes the self-paired classes pointwise and pairs the others off in
    element order.

    Otherwise the inverse graph, a disjoint union of complete bipartite
    graphs K(class, partner), leaves unmatched in some maximum matching
    exactly the elements of every class larger than its partner: that set,
    ascending, is the HallCertificate returned, the one
    find_permutation_matching reports.
    """
    _require_orthodox(table)
    gs = gamma_structure(table)
    if gs.v_involution is None:
        raise RuntimeError("orthodox inverse sets must induce a class involution")
    k = gs.gamma_classes()
    larger = [a for c, members in enumerate(gs.class_list)
              if len(members) > len(gs.class_list[gs.v_involution[c]]) for a in members]
    if larger:
        return _hall_certificate(table, sorted(larger))
    f = [-1] * table.n
    for c in range(k):
        d = gs.v_involution[c]
        if c == d:
            for a in gs.class_list[c]:
                f[a] = a
        elif c < d:
            for a, b in zip(gs.class_list[c], gs.class_list[d]):
                f[a] = b
                f[b] = a
    return _verified(table, Matching(f=tuple(f), kind="involution",
                                     provenance="gamma_class_pairing"))


def lift_band_matching(factor: PrincipalFactor, band: ZeroRectBand, band_matching: Matching) -> Matching:
    """Pull a matching of the H-quotient band back up to the principal factor.

    Each element has exactly one inverse inside any compatible H-cell, so a
    cell-level matching lifts by sending every element to its unique inverse
    in the image cell.  band_matching is a matching of the band's table,
    rees_matrix over its structure matrix, whose element i*n + lam is cell
    (i, lam).  The zero stays fixed.
    """
    check = verify_matching(rees_matrix(BoolStructureMatrix(band.p)), band_matching.f)
    if not check.ok:
        raise LiftFailureError(f"band matching invalid: {check.reason}")
    if band_matching.f[band.zero] != band.zero:
        raise LiftFailureError("band matching must fix the zero")
    index = {a: x for x, a in enumerate(factor.element_map)}
    members = [[index[a] for a in row] for row in band.cells.tolist()]   # factor elements per cell
    cell_of = {x: c for c, xs in enumerate(members) for x in xs}
    v = inverse_matrix(factor.table)
    f = [-1] * (factor.zero + 1)
    f[factor.zero] = factor.zero
    for x in range(factor.zero):
        dst = np.array(members[band_matching.f[cell_of[x]]])
        candidates = dst[v[x, dst]]
        if len(candidates) != 1:
            raise LiftFailureError(
                f"element {x} has {len(candidates)} inverses in the image cell, need exactly 1"
            )
        f[x] = int(candidates[0])
    lifted = Matching(
        f=tuple(f),
        kind=band_matching.kind,
        provenance="band_lift",
    )
    check = verify_matching(factor.table, lifted.f)
    if not check.ok:
        raise LiftFailureError(f"lifted map is not a matching: {check.reason}")
    return lifted


def decide_orthodox_matching(table: MulTable) -> Matching | HallCertificate:
    """Structural decision of matchings of an orthodox semigroup.

    Works one D-class at a time on S's own egg box, building no derived
    table: its H-classes form a rectangular band with zero whose idempotent
    cells split into maximal rectangular blocks.  A permutation matching of
    S exists exactly when the block shapes of every D-class are pairwise
    proportional, that is, when no cell has surplus
    (BandDecomposition.surplus).  Then each band cell pairs with its
    swapped-block partner, every element goes to its unique inverse in the
    partner H-class, and the assembled involution matching is verified on S
    and returned.

    Otherwise the HallCertificate's set A holds, ascending, the elements of
    every surplus cell: exactly the elements that some maximum matching
    leaves unmatched, the set find_permutation_matching reports (README).
    """
    _require_orthodox(table)
    classes = []
    for d in range(green_arrays(table).d_count):
        band = d_class_band(table, d)
        dec = maximal_rect_subbands(band)
        classes.append((band, dec, dec.surplus()))    # surplus[i, lam], cell i*n + lam
    if any(surplus.any() for _, _, surplus in classes):
        violating = np.concatenate([band.cells[surplus.ravel()].ravel()
                                    for band, _, surplus in classes])
        return _hall_certificate(table, np.sort(violating).tolist())
    v = inverse_matrix(table)
    f = np.full(table.n, -1)
    for band, dec, _ in classes:
        rows, cols = _partner_cells(dec)
        cells = band.cells
        image = cells[(rows * band.n + cols).ravel()]
        hits = v[cells[:, :, None], image[:, None, :]]   # hits[c, x, y]: image[c, y] in V(cells[c, x])
        counts = hits.sum(axis=2)
        if (counts != 1).any():
            c, x = divmod(int((counts != 1).argmax()), cells.shape[1])
            raise LiftFailureError(
                f"element {cells[c, x]} has {counts[c, x]} inverses in the image cell, "
                "need exactly 1"
            )
        f[cells] = np.take_along_axis(image, hits.argmax(axis=2), axis=1)
    return _verified(table, Matching(f=tuple(f.tolist()), kind="involution",
                                     provenance="band_lift"))


@dataclass(frozen=True)
class TutteBarrier:
    """A set X of elements witnessing that no involution matching exists.

    Removing X from the graph of mutually inverse elements leaves more than
    |X| odd components with no element a in V(a); odd_components lists them.
    Each must send an element into X, and X can take at most |X| of them.
    nodes counts the vertices scanned by the Edmonds searches.
    """

    elements: tuple
    odd_components: tuple
    nodes: int


def verify_barrier(table: MulTable, barrier: TutteBarrier) -> VerifyResult:
    """Check that barrier proves the absence of an involution matching.

    Elements must be integers (anything operator.index accepts).  The listed
    components must be pairwise disjoint and disjoint from X, of odd size,
    free of elements a in V(a), closed under taking inverses except into X,
    and more numerous than X.  The first violation is reported; within a
    component, elements ascending, a in V(a) before an inverse outside.
    """
    n = table.n
    v = inverse_matrix(table)
    try:
        elements = [operator.index(x) for x in barrier.elements]
    except TypeError:
        return VerifyResult(False, "barrier element not an integer", None)
    xs = set(elements)
    if len(xs) != len(elements) or any(not 0 <= x < n for x in xs):
        return VerifyResult(False, "barrier is not a set of elements", None)
    if _barrier_holds(v, elements, barrier.odd_components):
        return VerifyResult(True, None, None)
    # find the first violation, component by component
    seen = set(xs)
    for comp in barrier.odd_components:
        try:
            comp = [operator.index(a) for a in comp]
        except TypeError:
            return VerifyResult(False, "component element not an integer", None)
        members = set(comp)
        if any(not 0 <= a < n for a in members):
            return VerifyResult(False, "component element out of range", None)
        if len(members) != len(comp) or not seen.isdisjoint(members):
            return VerifyResult(False, "components overlap", min(members & seen, default=None))
        seen |= members
        if len(members) % 2 == 0:
            return VerifyResult(False, "component of even size", min(members, default=None))
        ms = np.array(sorted(members), dtype=np.intp)
        outside = np.ones(n, dtype=bool)
        outside[ms] = False
        outside[elements] = False
        loop = v[ms, ms]
        bad = loop | (v[ms] & outside).any(axis=1)
        if bad.any():
            first = int(bad.argmax())
            reason = ("component element is its own inverse" if loop[first]
                      else "component has an inverse outside the barrier")
            return VerifyResult(False, reason, int(ms[first]))
    if len(barrier.odd_components) <= len(xs):
        return VerifyResult(False, "no more odd components than barrier elements", None)
    return VerifyResult(True, None, None)


def _barrier_holds(v, elements, odd_components) -> bool:
    """Whether the components pass every check of verify_barrier against the
    set of elements X, in one labelled pass over V.

    Each component member is labelled with its component's number and X
    with -2; a member fails on a loop or on an inverse labelled neither.
    False says only that some check fails, not which.
    """
    n = len(v)
    if len(odd_components) <= len(elements):
        return False
    members = []
    sizes = []
    for comp in odd_components:
        try:
            comp = list(map(operator.index, comp))
        except TypeError:
            return False
        if len(comp) % 2 == 0:
            return False
        members += comp
        sizes.append(len(comp))
    try:
        ms = np.array(members, dtype=np.intp)
    except OverflowError:
        return False
    if ms.min() < 0 or ms.max() >= n:
        return False
    ids = np.repeat(np.arange(len(sizes)), sizes)
    label = np.full(n, -1, dtype=np.intp)
    label[elements] = -2
    if (label[ms] != -1).any():
        return False
    label[ms] = ids
    # a member listed twice leaves fewer labelled elements than members
    if np.count_nonzero(label >= 0) != len(ms) or v[ms, ms].any():
        return False
    rows = v[ms]
    rows[:, elements] = False
    rows &= label != ids[:, None]
    return not rows.any()


class _Blossom:
    """Edmonds' cardinality matching on adjacency lists.

    Each search grows an alternating forest breadth-first and contracts an
    odd cycle (blossom) into its base by relabelling base[] over the merged
    blossoms' members; parent[] keeps the even-length route back to a root
    through every contracted blossom.  nodes counts the vertices taken off
    the search queues.
    """

    def __init__(self, adj):
        self.adj = adj
        self.match = [-1] * len(adj)
        self.nodes = 0
        # each search's base[] starts as a copy of this
        self.identity = list(range(len(adj)))

    def grow(self, roots):
        """Alternating forest from roots, stopping at an exposed non-root.

        Returns (end, parent, outer): end is that exposed vertex, from
        which augment() flips the path back to its root, or -1 once the
        forest is complete.  An edge joining two trees is an augmenting
        path too; callers grow several trees only over a maximum matching,
        where such an edge is impossible.

        pos[z] is z's place in the order vertices joined the forest, and
        members[b] lists the vertices whose base is b once b has taken in a
        blossom (until then b is its own only member).  A contraction
        relabels the merged blossoms' members and queues the newly outer
        ones in forest order, as a scan of the whole forest would.
        """
        adj, match = self.adj, self.match
        size = len(adj)
        base = self.identity.copy()
        parent = [-1] * size
        outer = [False] * size
        pos = [0] * size
        for k, r in enumerate(roots):
            outer[r] = True
            pos[r] = k
        joined = len(roots)
        members = {}
        queue = deque(roots)
        popleft, push = queue.popleft, queue.append
        pops = 0
        while queue:
            x = popleft()
            pops += 1
            bx = base[x]
            # x's mate needs no test: it is inner, its parent set, or in x's blossom
            for y in adj[x]:
                if outer[y]:
                    if base[y] == bx:
                        continue
                    # b: the nearest common base on the routes of x and y to their roots
                    a = bx
                    path = [a]
                    while match[a] != -1:
                        a = base[parent[match[a]]]
                        path.append(a)
                    b = base[y]
                    while b not in path:
                        if match[b] == -1:
                            raise RuntimeError(
                                "augmenting path between two trees of a maximum matching")
                        b = base[parent[match[b]]]
                    # route both sides to b through the cycle, collecting its
                    # blossoms once each: z is outer, so match[z] shares z's
                    # blossom unless z is its base, and is then an inner vertex,
                    # its own base
                    bases = []
                    for z, child in ((x, y), (y, x)):
                        while (bz := base[z]) != b:
                            bases.append(bz)
                            if bz == z:
                                bases.append(match[z])
                            parent[z] = child
                            child = match[z]
                            z = parent[child]
                    moved = []
                    for c in bases:
                        moved += members.pop(c, (c,))
                    moved.sort(key=pos.__getitem__)
                    for z in moved:
                        base[z] = b
                        if not outer[z]:
                            outer[z] = True
                            push(z)
                    members.setdefault(b, [b]).extend(moved)
                    bx = b  # x lies on the cycle or already in b
                elif parent[y] == -1:
                    parent[y] = x
                    m = match[y]
                    if m == -1:
                        self.nodes += pops
                        return y, parent, outer
                    outer[m] = True
                    push(m)
                    pos[y] = joined
                    pos[m] = joined + 1
                    joined += 2
        self.nodes += pops
        return -1, parent, outer

    def augment(self, end, parent):
        match = self.match
        while end != -1:
            x = parent[end]
            nxt = match[x]
            match[end] = x
            match[x] = end
            end = nxt

    def maximize(self, doubled=False):
        """Greedy start, then one search per exposed vertex with a neighbour.

        A vertex with no augmenting path now has none after later
        augmentations either, so each vertex is searched from once.

        doubled says adj is a doubled graph of _doubled_adjacency, n vertices
        a copy; the greedy start then runs over copy 0 and is mirrored onto
        copy 1, which is what it would do over all 2n vertices.  After copy
        0, every a in V(a) is matched, so copy 1 takes no cross edge; and a
        takes a + n only when no earlier vertex of copy 0 took a, so no
        earlier vertex of copy 1 would take a + n.
        """
        adj, match = self.adj, self.match
        n = len(adj) // 2 if doubled else len(adj)
        for x in range(n):
            if match[x] == -1:
                for y in adj[x]:
                    if match[y] == -1:
                        match[x] = y
                        match[y] = x
                        break
        if doubled:
            for a in range(n):
                m = match[a]
                if 0 <= m < n:
                    match[a + n] = m + n
        for r, nbrs in enumerate(adj):
            if match[r] == -1 and nbrs:
                end, parent, _ = self.grow([r])
                if end != -1:
                    self.augment(end, parent)

    def inner_vertices(self):
        """Gallai-Edmonds A-set of a maximum matching: the odd vertices of
        the complete forest grown from every exposed vertex."""
        exposed = [x for x, m in enumerate(self.match) if m == -1]
        end, parent, outer = self.grow(exposed)
        if end != -1:
            raise RuntimeError("augmenting path left after maximum matching")
        return [x for x in range(len(parent)) if parent[x] != -1 and not outer[x]]


def _doubled_adjacency(v) -> list:
    """Two copies of the mutual-inverse graph with adjacency matrix v, vertex
    a + c*n in copy c, each a in V(a) joined to its other copy instead of
    itself, that edge listed first; other neighbours ascending.

    The edges are one np.flatnonzero of V, row by row.  Each a in V(a)
    drops its own entry and puts a + n first in its row, the other entries
    keeping their order, before the rows are sliced.  Each copy's columns
    are gathered from one pool of the vertex ints into one list, which the
    rows slice, so every edge into a vertex holds the same int object.
    """
    n = len(v)
    flat = np.flatnonzero(v)
    ends = np.searchsorted(flat, np.arange(n, n * n + 1, n)).tolist()
    loops = np.flatnonzero(v.diagonal())
    first = np.searchsorted(flat, loops * n)
    own = np.searchsorted(flat, loops * (n + 1))
    kept = np.ones(len(flat), dtype=bool)
    kept[own] = False
    rest = np.ones(len(flat), dtype=bool)
    rest[first] = False
    cols = np.empty_like(flat)
    cols[rest] = flat[kept] % n
    cols[first] = loops + n
    pool = np.arange(2 * n).astype(object)
    starts = [0] + ends[:-1]
    adj = []
    for c in (0, 1):
        # in copy 1 a cross edge's a + 2n wraps round to a
        flat_c = pool.take(cols + c * n, mode="wrap").tolist()
        adj += [flat_c[s:e] for s, e in zip(starts, ends)]
    return adj


def _odd_loop_free_components(adj, removed) -> tuple:
    """Odd components of the mutual-inverse graph minus removed that hold no
    element a in V(a), each sorted, in order of least element.

    adj is the doubled graph of _doubled_adjacency: copy 0 lists the
    inverses of each a below n, and a + n exactly when a is in V(a).
    """
    n = len(adj) // 2
    seen = bytearray(n)
    for x in removed:
        seen[x] = 1
    comps = []
    for a in range(n):
        if seen[a]:
            continue
        seen[a] = 1
        comp = [a]
        loop = False
        for x in comp:
            for y in adj[x]:
                if y >= n:
                    loop = True
                elif not seen[y]:
                    seen[y] = 1
                    comp.append(y)
        if len(comp) % 2 == 1 and not loop:
            comps.append(tuple(sorted(comp)))
    return tuple(comps)


def find_involution_matching(table: MulTable):
    """Involution matching of any semigroup, by Edmonds' blossom algorithm.

    An involution matching is a perfect matching of the graph joining
    mutually inverse elements, with fixed points allowed at a = a^3 (that
    is, a in V(a)).  The doubled graph has two copies of that graph, vertex
    a + c*n in copy c, with each a in V(a) also joined to its own copy (that
    edge listed first, so the greedy start fixes such elements).  It has a
    perfect matching exactly when S has an involution matching, read off
    copy 0, a cross edge meaning f(a) = a.  Otherwise the Gallai-Edmonds
    A-set of the doubled graph is X x {0, 1}, by the symmetry that swaps the
    copies, and X is returned as a verified TutteBarrier.
    """
    n = table.n
    adj = _doubled_adjacency(inverse_matrix(table))
    solver = _Blossom(adj)
    solver.maximize(doubled=True)
    if -1 not in solver.match:
        f = tuple(m if m < n else a for a, m in enumerate(solver.match[:n]))
        return _verified(table, Matching(f=f, kind="involution", provenance="blossom"))
    xs = tuple(x for x in solver.inner_vertices() if x < n)
    barrier = TutteBarrier(elements=xs, odd_components=_odd_loop_free_components(adj, xs),
                           nodes=solver.nodes)
    check = verify_barrier(table, barrier)
    if not check.ok:
        raise RuntimeError(f"blossom produced no Tutte barrier: {check.reason}")
    return barrier


METHODS = ("auto", "hall", "orthodox", "brute")


def decide(table: MulTable, method: str = "auto", involution: bool = False, cap=None):
    """Decide whether S has a permutation (or involution) matching onto inverses.

    method picks the structural ("orthodox"), bipartite ("hall") or subset
    ("brute") route; "auto" is structural on orthodox input and bipartite
    otherwise, and an involution on non-orthodox input is decided by
    Edmonds' blossom algorithm.  "auto" tells the two apart with
    is_orthodox, which reads the inverse relation and the orthodoxy witness
    alone, so a non-orthodox table never builds Green's relations here.
    The structural route answers both ways alone, its "no" with the
    certificate Hopcroft-Karp would give.  cap bounds "brute", which must
    agree with Hopcroft-Karp.  Returns a verified Matching, a
    HallCertificate, or a verified TutteBarrier from the blossom route.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if involution and method in ("hall", "brute"):
        raise ValueError(f"involution matchings cannot use method {method}")
    if method == "auto":
        method = "orthodox" if is_orthodox(table) else "hall"
    if method == "orthodox":
        return decide_orthodox_matching(table)
    if involution:
        return find_involution_matching(table)
    if method == "hall":
        return find_permutation_matching(table)
    cert = hall_brute_force(table, max_size=DEFAULT_BRUTE_CAP if cap is None else cap)
    if cert is not None:
        return cert
    m = find_permutation_matching(table)
    if not isinstance(m, Matching):
        raise RuntimeError("subset enumeration and bipartite matching verdicts disagree")
    return m


@dataclass(frozen=True)
class MatchingCount:
    count: int
    exact: bool


def count_permutation_matchings(table: MulTable, limit=None,
                                max_size: int = DEFAULT_BRUTE_CAP) -> MatchingCount:
    """Count permutation matchings by exhaustive assignment.

    Always branches on an element with fewest remaining images, depth first
    on an explicit stack of partial assignments (used images, elements still
    to place).  With a limit (at least 1) the count stops there, exact False.
    """
    if limit is not None and limit < 1:
        raise ValueError("matching count needs a limit >= 1")
    n = table.n
    if n > max_size:
        raise CapExceededError(f"matching count over {n} elements exceeds the cap of {max_size}")
    masks = _row_masks(inverse_matrix(table))
    if any(m == 0 for m in masks):
        return MatchingCount(count=0, exact=True)
    count = 0
    stack = [(0, list(range(n)))]
    while stack:
        used, remaining = stack.pop()
        if not remaining:
            count += 1
            if limit is not None and count >= limit:
                return MatchingCount(count=count, exact=False)
            continue
        best = min(remaining, key=lambda a: (masks[a] & ~used).bit_count())
        cand = masks[best] & ~used
        rest = [a for a in remaining if a != best]
        while cand:
            bit = cand & -cand
            stack.append((used | bit, rest))
            cand ^= bit
    return MatchingCount(count=count, exact=True)


@dataclass(frozen=True)
class ClauseResult:
    """One two-sided test: a formula-defined map against a structural flag."""

    name: str
    left: bool
    right: bool
    witness: tuple | None

    @property
    def agree(self) -> bool:
        return self.left == self.right


@dataclass(frozen=True)
class CharacterizationReport:
    clauses: tuple

    def all_agree(self) -> bool:
        return all(c.agree for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def _map_matches(table: MulTable, f):
    check = verify_matching(table, f)
    if check.ok:
        return True, None
    return False, (check.element,) if check.element is not None else None


def _two_variable_check(table: MulTable, formula):
    """Evaluate f_y(x) = formula(x, y); demand y-independence plus a matching.

    formula takes a column of y values and returns the block of values
    indexed [y, x].  Returns (ok, witness) where a y-dependence witness is
    the first pair (x, y), in y-major order, whose value differs from the
    y = 0 map.
    """
    n = table.n
    base = formula(np.zeros((1, 1), dtype=np.intp))[0]
    step = max(1, _ASSOC_CHUNK_CELLS // n)
    for start in range(1, n, step):
        bad = formula(np.arange(start, min(start + step, n))[:, None]) != base
        if bad.any():
            y, x = np.argwhere(bad)[0]
            return False, (int(x), start + int(y))
    return _map_matches(table, base.tolist())


def formula_characterizations(table: MulTable, k=None) -> CharacterizationReport:
    """Test the classical formula-defined matchings against structural flags.

    Each clause pairs a candidate map built from omega powers (left side)
    with an independently computed property of the semigroup (right side);
    the two sides are provably equivalent, so agree should always hold.
    Pass k to include the clause for the identity x = x^(k+2).  Every map
    is evaluated on whole arrays of x and blocks of y.
    """
    if k is not None and k < 1:
        raise ValueError("power identity needs k >= 1")
    prod = table.product
    cols = _transposed(prod)          # cols[y, x] = xy: a block of y reads whole rows
    ar = np.arange(table.n)
    flags = classify(table)
    omega, om1 = omega_powers(table)
    v = inverse_matrix(table)
    clauses = []

    left, witness = _map_matches(table, om1.tolist())
    clauses.append(ClauseResult("completely_regular", left, flags.completely_regular, witness))

    left, witness = _two_variable_check(
        table, lambda y: prod[om1, omega[prod[cols[y, ar], ar]]])
    clauses.append(ClauseResult("completely_simple", left, flags.completely_simple, witness))

    left, witness = _two_variable_check(
        table, lambda y: prod[prod[omega[y], om1], omega[y]])
    clauses.append(ClauseResult("group", left, flags.group, witness))

    if k is not None:
        left, witness = _map_matches(table, _powers(prod, ar, k).tolist())
        right = bool((_powers(prod, ar, k + 2) == ar).all())
        clauses.append(ClauseResult(f"power_identity_k{k}", left, right, witness))

    for name, holds in (("rectangular_band", v.all(axis=1)), ("self_inverse", v.diagonal())):
        left = bool(holds.all())
        witness = None if left else (int(holds.argmin()),)
        clauses.append(ClauseResult(name, left, getattr(flags, name), witness))

    return CharacterizationReport(clauses=tuple(clauses))
