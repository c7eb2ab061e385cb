"""Seeded input catalogues for the three benchmark workloads.

Tables are built here with plain numpy and written in the package's table
file format, so the program under test receives only files.  Each workload
is a list of strata (one semigroup family at one size).  A stratum has a few
variants, all drawn from the workload's fixed catalogue seed; the run seed
picks one variant per stratum and the request order of every pass, so every
run sends the same mix of families and sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORK_DIR = Path(".perfbench_work")

# Involution searches give up after this many milliseconds (exit 3).
INVOLUTION_BUDGET_MS = 1000

ORTHODOX_COMMANDS = (("analyze", "--json"), ("matching", "--json"), ("factors", "--json"))
HALL_COMMANDS = (("analyze", "--json"), ("matching", "--method", "hall", "--json"))
INVOLUTION_COMMANDS = (
    ("matching", "--involution", "--budget", str(INVOLUTION_BUDGET_MS), "--json"),
)


# --- semigroup families -----------------------------------------------------

def rect_band(k: int, l: int) -> np.ndarray:
    """k x l rectangular band on (i, j) -> i*l + j: (i, j)(k, m) = (i, m)."""
    a = np.arange(k * l)
    return (a[:, None] // l) * l + a[None, :] % l


def rees_zero(p: np.ndarray) -> np.ndarray:
    """Combinatorial Rees semigroup with zero over a 0/1 matrix p (rows x cols).

    Nonzero elements are pairs (i, lam), i < cols, lam < rows, at index
    i*rows + lam; (i, lam)(k, mu) = (i, mu) when p[lam, k] is set and the
    zero (last index) otherwise.
    """
    p = np.asarray(p, dtype=bool)
    rows, cols = p.shape
    nz = rows * cols
    i = np.arange(nz) // rows
    lam = np.arange(nz) % rows
    out = np.full((nz + 1, nz + 1), nz, dtype=np.int64)
    out[:nz, :nz] = np.where(p[lam[:, None], i[None, :]], i[:, None] * rows + lam[None, :], nz)
    return out


def block_diagonal(shapes) -> np.ndarray:
    """0/1 matrix with all-ones blocks of the given (rows, cols) on the diagonal."""
    p = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)), dtype=bool)
    r0 = c0 = 0
    for r, c in shapes:
        p[r0:r0 + r, c0:c0 + c] = True
        r0 += r
        c0 += c
    return p


def cyclic_group(k: int) -> np.ndarray:
    a = np.arange(k)
    return (a[:, None] + a[None, :]) % k


def direct_product(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    m = t.shape[0]
    a = np.arange(s.shape[0]).repeat(m)
    b = np.tile(np.arange(m), s.shape[0])
    return s[np.ix_(a, a)] * m + t[np.ix_(b, b)]


def full_transformation(n: int) -> np.ndarray:
    """T_n: all self-maps of {0..n-1}, composed left to right."""
    maps = np.array(list(itertools.product(range(n), repeat=n)))
    weights = n ** np.arange(n - 1, -1, -1)
    size = len(maps)
    # (fg)(x) = g(f(x)) for every pair (f, g)
    composed = maps[np.arange(size)[None, :, None], maps[:, None, :]]
    return composed @ weights


def null_semigroup(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.int64)


def is_block_complete(p: np.ndarray) -> bool:
    """True when every connected block of p is all ones (the orthodox case)."""
    q = p.astype(np.int64)
    return bool(np.array_equal((q @ q.T @ q) > 0, p))


def random_regular_matrix(rng, rows: int, cols: int, density: float) -> np.ndarray:
    """0/1 matrix with a one in every row and column that is not block-complete."""
    while True:
        p = rng.random((rows, cols)) < density
        if p.any(axis=0).all() and p.any(axis=1).all() and not is_block_complete(p):
            return p


def relabel(table: np.ndarray, rng) -> np.ndarray:
    """Isomorphic copy with elements renamed by a random permutation."""
    perm = rng.permutation(table.shape[0])
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


# --- catalogues -------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    name: str
    build: object  # rng -> table
    variants: int


VARIANTS = 4


def _fixed(make):
    return lambda name: Stratum(name, lambda rng: relabel(make(), rng), VARIANTS)


def _random_rees(rows, cols, density):
    return lambda name: Stratum(
        name, lambda rng: relabel(rees_zero(random_regular_matrix(rng, rows, cols, density)), rng),
        VARIANTS)


def _orthodox_strata():
    fams = {
        "band-8x8": _fixed(lambda: rect_band(8, 8)),
        "band-6x12": _fixed(lambda: rect_band(6, 12)),
        "band-10x10": _fixed(lambda: rect_band(10, 10)),
        "band-12x12": _fixed(lambda: rect_band(12, 12)),
        "band-16x16": _fixed(lambda: rect_band(16, 16)),
        "leftzero-64x1": _fixed(lambda: rect_band(64, 1)),
        "leftzero-144x1": _fixed(lambda: rect_band(144, 1)),
        "brandt-8": _fixed(lambda: rees_zero(np.eye(8, dtype=bool))),
        "brandt-12": _fixed(lambda: rees_zero(np.eye(12, dtype=bool))),
        "brandt-16": _fixed(lambda: rees_zero(np.eye(16, dtype=bool))),
        # proportional blocks: a matching exists
        "blocks-1x2-2x4-3x6": _fixed(lambda: rees_zero(block_diagonal([(1, 2), (2, 4), (3, 6)]))),
        "blocks-2x2-3x3-5x5": _fixed(lambda: rees_zero(block_diagonal([(2, 2), (3, 3), (5, 5)]))),
        "blocks-2x3-4x6-6x9": _fixed(lambda: rees_zero(block_diagonal([(2, 3), (4, 6), (6, 9)]))),
        # non-proportional blocks: no matching, Hall certificate
        "blocks-2x4-3x3-4x2": _fixed(lambda: rees_zero(block_diagonal([(2, 4), (3, 3), (4, 2)]))),
        "blocks-2x3-3x2-5x5": _fixed(lambda: rees_zero(block_diagonal([(2, 3), (3, 2), (5, 5)]))),
        "blocks-3x5-5x3-4x4": _fixed(lambda: rees_zero(block_diagonal([(3, 5), (5, 3), (4, 4)]))),
        # non-trivial H-classes
        "band-4x4-C4": _fixed(lambda: direct_product(rect_band(4, 4), cyclic_group(4))),
        "band-6x5-C3": _fixed(lambda: direct_product(rect_band(6, 5), cyclic_group(3))),
        "band-5x5-C5": _fixed(lambda: direct_product(rect_band(5, 5), cyclic_group(5))),
        "band-7x6-C4": _fixed(lambda: direct_product(rect_band(7, 6), cyclic_group(4))),
    }
    return [make(name) for name, make in fams.items()]


def _hall_strata():
    fams = {
        "T3": _fixed(lambda: full_transformation(3)),
        "T4": _fixed(lambda: full_transformation(4)),
        "T3-C3": _fixed(lambda: direct_product(full_transformation(3), cyclic_group(3))),
        "rees-8x8-d30": _random_rees(8, 8, 0.30),
        "rees-9x11-d40": _random_rees(9, 11, 0.40),
        "rees-10x10-d45": _random_rees(10, 10, 0.45),
        "rees-11x10-d30": _random_rees(11, 10, 0.30),
        "rees-10x12-d20": _random_rees(10, 12, 0.20),
        "rees-12x12-d35": _random_rees(12, 12, 0.35),
        "rees-13x13-d25": _random_rees(13, 13, 0.25),
        "rees-14x12-d40": _random_rees(14, 12, 0.40),
        "rees-12x16-d25": _random_rees(12, 16, 0.25),
        "rees-16x16-d45": _random_rees(16, 16, 0.45),
        "null-64": _fixed(lambda: null_semigroup(64)),
        "null-96": _fixed(lambda: null_semigroup(96)),
        "null-128": _fixed(lambda: null_semigroup(128)),
        "null-160": _fixed(lambda: null_semigroup(160)),
        "null-200": _fixed(lambda: null_semigroup(200)),
    }
    return [make(name) for name, make in fams.items()]


INVOLUTION_INSTANCES = 60


def _involution_strata():
    # One variant each: every run searches the same 60 instances, because
    # which instances time out is a property of the instance, and drawing
    # them per run would turn the inconclusive count into a lottery.
    def build(rng):
        rows, cols = (int(x) for x in rng.integers(9, 13, size=2))
        return rees_zero(random_regular_matrix(rng, rows, cols, float(rng.uniform(0.20, 0.45))))
    return [Stratum(f"rees-{k:02d}", build, 1) for k in range(INVOLUTION_INSTANCES)]


@dataclass(frozen=True)
class Workload:
    name: str
    catalogue_seed: int
    strata: tuple
    commands: tuple
    # stdout must equal the recorded digest; False where a later algorithm
    # may legitimately return a different (still checked) answer
    frozen_stdout: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("orthodox-structural", 101, tuple(_orthodox_strata()), ORTHODOX_COMMANDS, True),
        Workload("general-hall", 202, tuple(_hall_strata()), HALL_COMMANDS, True),
        Workload("involution-search", 303, tuple(_involution_strata()), INVOLUTION_COMMANDS, False),
    )
}


# --- files and requests -----------------------------------------------------

def render(table: np.ndarray) -> str:
    lines = [str(table.shape[0])]
    lines.extend(" ".join(map(str, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def variant_table(workload: Workload, index: int, variant: int) -> np.ndarray:
    stratum = workload.strata[index]
    rng = np.random.default_rng([workload.catalogue_seed, index, variant])
    return stratum.build(rng)


def input_path(workload: Workload, index: int, variant: int, root: Path = WORK_DIR) -> Path:
    return root / workload.name / f"{workload.strata[index].name}-v{variant}.tbl"


def chosen_variants(workload: Workload, seed: int) -> list:
    rng = random.Random(f"{workload.name}:{seed}")
    return [rng.randrange(s.variants) for s in workload.strata]


def write_inputs(workload: Workload, seed: int, root: Path = WORK_DIR) -> list:
    """Write the run's input files and return its requests as argv lists."""
    requests = []
    for index, variant in enumerate(chosen_variants(workload, seed)):
        path = input_path(workload, index, variant, root)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(variant_table(workload, index, variant)), encoding="utf-8")
        for cmd in workload.commands:
            requests.append([cmd[0], path.as_posix(), *cmd[1:]])
    return requests


def pass_order(seed: int, pass_no: int, count: int) -> list:
    """Request order of one pass: a seeded shuffle of every request."""
    order = list(range(count))
    random.Random(f"{seed}:{pass_no}").shuffle(order)
    return order
