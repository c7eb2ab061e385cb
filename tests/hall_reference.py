"""Reference bipartite route for find_permutation_matching.

matching.find_permutation_matching holds each row of V, the free rights
and each layer as one int bitmask, and searches depth first on two stacks,
the lefts on the path and the rights joining them, each as its bit, taking
the least eligible right at every step.  It reads its Hall certificate off
the last Hopcroft-Karp layering.  The version here augments on [left,
next edge] frames over edge lists and finds the certificate with a second
alternating breadth-first search from the free lefts, cross-checking it as
it goes.  Both run the same phases over the same edge order, so tests
demand equal matchings and certificates.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from semigroup_match import HallCertificate, Matching, inverse_matrix

_INF = float("inf")


def _hk_bfs(n, adj, match_l, match_r, dist):
    """Layer the lefts by alternating distance; return the free-right layer depth."""
    q = deque()
    for a in range(n):
        if match_l[a] == -1:
            dist[a] = 0
            q.append(a)
        else:
            dist[a] = _INF
    free_dist = _INF
    while q:
        a = q.popleft()
        if dist[a] + 1 >= free_dist:
            continue
        for b in adj[a]:
            c = match_r[b]
            if c == -1:
                if free_dist == _INF:
                    free_dist = dist[a] + 1
            elif dist[c] == _INF:
                dist[c] = dist[a] + 1
                q.append(c)
    return free_dist


def _hk_augment(a0, adj, dist, match_l, match_r, free_dist):
    """Augment along one shortest alternating path from the free left a0.

    Explicit-stack depth-first search; each frame holds a left vertex and
    the index of the next edge to try.
    """
    stack = [[a0, 0]]
    while stack:
        a, i = stack[-1]
        if i < len(adj[a]):
            stack[-1][1] += 1
            b = adj[a][i]
            c = match_r[b]
            if c == -1:
                if dist[a] + 1 != free_dist:
                    continue
                match_l[a] = b
                match_r[b] = a
                stack.pop()
                while stack:
                    pa, pi = stack.pop()
                    pb = adj[pa][pi - 1]
                    match_l[pa] = pb
                    match_r[pb] = pa
                return True
            if dist[c] == dist[a] + 1:
                stack.append([c, 0])
        else:
            dist[a] = _INF
            stack.pop()
    return False


def _hall_certificate(n, adj, match_l, match_r) -> HallCertificate:
    """Read the violating set off a maximum matching that is not perfect.

    Alternating reachability from the free lefts: every edge out of a
    reached left leads to a reached right, so the reached lefts A satisfy
    V(A) = reached rights and |A| exceeds |V(A)| by the number of free
    lefts.
    """
    reached_l = [False] * n
    reached_r = [False] * n
    q = deque()
    for a in range(n):
        if match_l[a] == -1:
            reached_l[a] = True
            q.append(a)
    while q:
        a = q.popleft()
        for b in adj[a]:
            if b == match_l[a] or reached_r[b]:
                continue
            reached_r[b] = True
            c = match_r[b]
            if c == -1:
                raise RuntimeError("free right reachable from a free left after maximum matching")
            if not reached_l[c]:
                reached_l[c] = True
                q.append(c)
    violating = tuple(a for a in range(n) if reached_l[a])
    image = tuple(b for b in range(n) if reached_r[b])
    if len(violating) <= len(image):
        raise RuntimeError("certificate set does not violate Hall's condition")
    if set(image) != {b for a in violating for b in adj[a]}:
        raise RuntimeError("certificate image differs from the inverse union")
    return HallCertificate(violating_set=violating, image=image)


def reference_permutation_matching(table):
    """find_permutation_matching with frame-stack augmentation and a second search."""
    n = table.n
    adj = [np.flatnonzero(row).tolist() for row in inverse_matrix(table)]
    for a in range(n):
        if not adj[a]:
            return HallCertificate(violating_set=(a,), image=())
    match_l = [-1] * n
    match_r = [-1] * n
    dist = [_INF] * n
    while True:
        free_dist = _hk_bfs(n, adj, match_l, match_r, dist)
        if free_dist == _INF:
            break
        for a in range(n):
            if match_l[a] == -1:
                _hk_augment(a, adj, dist, match_l, match_r, free_dist)
    if all(b != -1 for b in match_l):
        return Matching(f=tuple(match_l), kind="permutation", provenance="hall_bipartite")
    return _hall_certificate(n, adj, match_l, match_r)
