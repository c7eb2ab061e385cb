"""Independent checks of the program's outputs.

Nothing here imports the package: inverse sets are recomputed from the table
with numpy, permutation verdicts are cross-checked with scipy's bipartite
matching, and involution verdicts with networkx's general matching on the
doubled element-inverse graph.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


def parse_table_file(text: str) -> np.ndarray:
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(rows[0][0])
    return np.array(rows[1:n + 1], dtype=np.int64).reshape(n, n)


class Truth:
    """Reference facts about one table, computed once."""

    def __init__(self, table: np.ndarray):
        self.n = n = table.shape[0]
        ar = np.arange(n)
        aba = table[table, ar[:, None]]            # aba[a, b] = (ab)a
        # inv[a, b]: b is an inverse of a (aba = a and bab = b)
        self.inv = (aba == ar[:, None]) & (aba.T == ar[None, :])
        match = maximum_bipartite_matching(csr_matrix(self.inv), perm_type="column")
        self.permutation_exists = bool((match >= 0).all())
        self._involution_exists = None

    @property
    def involution_exists(self) -> bool:
        """An involution matching is a perfect matching, with loops allowed at
        a = a^3, of the mutual-inverse graph; it exists exactly when two copies
        of that graph, with each loop vertex joined to its copy, have a
        perfect matching."""
        if self._involution_exists is None:
            if not self.permutation_exists:
                self._involution_exists = False
            else:
                n = self.n
                g = nx.Graph()
                g.add_nodes_from(range(2 * n))
                for a, b in zip(*np.nonzero(np.triu(self.inv, 1))):
                    g.add_edge(int(a), int(b))
                    g.add_edge(int(a) + n, int(b) + n)
                for a in np.flatnonzero(np.diag(self.inv)):
                    g.add_edge(int(a), int(a) + n)
                size = len(nx.max_weight_matching(g, maxcardinality=True))
                self._involution_exists = size == n
        return self._involution_exists


def matching_error(truth: Truth, f, involution: bool):
    """Reason the map f is not a matching onto inverses, or None."""
    n = truth.n
    f = np.asarray(f, dtype=np.int64)
    if f.shape != (n,) or f.min() < 0 or f.max() >= n:
        return "map is not a function on the elements"
    if len(np.unique(f)) != n:
        return "map is not a bijection"
    bad = np.flatnonzero(~truth.inv[np.arange(n), f])
    if len(bad):
        return f"f({int(bad[0])}) is not an inverse of {int(bad[0])}"
    if involution and not np.array_equal(f[f], np.arange(n)):
        return "map is not an involution"
    return None


def certificate_error(truth: Truth, violating, image):
    """Reason (A, V(A)) is not a Hall certificate, or None."""
    a = sorted(int(x) for x in violating)
    if not a or len(set(a)) != len(a) or a[0] < 0 or a[-1] >= truth.n:
        return "violating set is not a set of elements"
    expected = np.flatnonzero(truth.inv[a].any(axis=0)).tolist()
    if sorted(int(x) for x in image) != expected:
        return "image is not the union of the inverse sets"
    if len(expected) >= len(a):
        return "image is not smaller than the violating set"
    return None


def check_output(truth: Truth, argv, code, stdout: str):
    """Classify one request as 'ok', 'inconclusive' or an error message."""
    if code not in (0, 1, 3):
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    command = argv[0]
    if report.get("command") != command or report.get("input") != argv[1]:
        return "report names the wrong command or input"
    if command == "factors":
        return "ok" if code == 0 and report.get("elements") == truth.n else "bad factors report"
    if command == "analyze":
        if code != 0 or report.get("elements") != truth.n:
            return "bad analyze report"
        verdict = report["matching_verdict"]
        exists, m, cert = verdict["exists"], verdict["matching"], verdict["certificate"]
    else:
        if code == 3:
            search = report.get("search") or {}
            ok = "--involution" in argv and search.get("complete") is False
            return "inconclusive" if ok else "exit 3 without an unfinished search"
        exists, m, cert = code == 0, report.get("matching"), report.get("certificate")
    involution = "--involution" in argv
    if exists:
        if m is None:
            return "verdict 'exists' without a matching"
        err = matching_error(truth, m["map"], involution or m["kind"] == "involution")
        if err:
            return err
        want = truth.involution_exists if involution else truth.permutation_exists
        return "ok" if want else "matching reported where none exists"
    if cert is not None:
        err = certificate_error(truth, cert["violating_set"], cert["image"])
        if err:
            return err
    elif not (involution and (report.get("search") or {}).get("complete")):
        return "verdict 'none' without a certificate"
    want = truth.involution_exists if involution else truth.permutation_exists
    return "matching exists but none was reported" if want else "ok"
