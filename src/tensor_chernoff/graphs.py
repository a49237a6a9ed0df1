"""Regular undirected graphs, spectral expansion, and stationary walks.

Graphs are stored as dense symmetric nonnegative integer adjacency matrices
with constant row sum ``d``; multi-edges and self-loops are allowed and count
with multiplicity (a self-loop of multiplicity m contributes m to its row
sum).  The spectral expansion is the largest ABSOLUTE nontrivial eigenvalue
of ``A / d``: the quoted "second largest eigenvalue" phrasing is weaker than
the contraction property ``||A x|| <= lambda ||x||`` on the complement of the
all-ones vector that the tail bounds actually consume, so the absolute-value
definition is implemented (bipartite graphs report lambda = 1, i.e.
non-expanding).

Every generator and the edge-list loader bound the size before they
allocate: ``2 <= n <= 2^13`` (the ``n x n`` int64 adjacency stays within 512
MiB), ``d >= 1`` and ``n * d <= 2^26`` (so does the ``(n, d)`` slot table).

Edge-list text format: a header line ``n d``, then one ``u v m`` line per
undirected edge with multiplicity ``m``, vertices 0-indexed, each unordered
pair listed once (self-loops as ``u u m``).  The loader validates symmetry
and d-regularity, and bounds each number before it sizes an array: ``2 <= n
<=`` twice the edge-line count, ``1 <= d < 2^32``, the size caps above and
``0 <= m <= d``.

Walk sampling is deterministic in the seed: walk ``i`` of a batch reads the
Philox4x64-10 words at counters ``(i, b, 0, 0)`` under key ``(seed,
DOMAIN_WALK)`` (see :mod:`.rng`), so estimates do not depend on chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, NumericalError
from .io import read_text
from .rng import DOMAIN_GRAPH, DOMAIN_WALK, counter_words, multiply_high, stream

MAX_VERTICES = 1 << 13  # largest n of any graph
EDGE_SLOT_CAP = 1 << 26  # largest n * d of any graph


def _require_size(n: int, d: int) -> None:
    """Reject ``n`` vertices of degree ``d`` outside the size bounds, before anything of that size exists."""
    if not 2 <= n <= MAX_VERTICES:
        raise ArgumentError(f"graph n = {n} must be in [2, 2^13]")
    if d < 1:
        raise ArgumentError(f"graph degree {d} must be >= 1")
    if n * d > EDGE_SLOT_CAP:
        raise ArgumentError(f"graph n x d = {n} x {d} exceeds the cap of 2^26 edge slots")


@dataclass(frozen=True)
class RegularGraph:
    """d-regular undirected multigraph on vertices ``0 .. n-1``.

    The graph keeps a read-only int64 adjacency.  It adopts an array that is already one (a read-only,
    C-contiguous int64 array that owns its data, as the generators and the loader hand over) and copies
    anything else, so a caller's array is never frozen and the build never holds two adjacencies.
    """

    n: int
    degree: int
    adjacency: np.ndarray

    def __init__(self, adjacency: np.ndarray):
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ArgumentError(f"adjacency must be square, got {adj.shape}")
        if not np.issubdtype(adj.dtype, np.integer) and not np.all(adj == np.round(adj)):
            raise ArgumentError("adjacency entries must be integers")
        flags = adj.flags
        if adj.dtype != np.int64 or flags.writeable or not (flags.c_contiguous and flags.owndata):
            adj = np.array(adj, dtype=np.int64, order="C")
            adj.setflags(write=False)
        n = adj.shape[0]
        if n < 2:
            raise ArgumentError(f"graph needs at least 2 vertices, got {n}")
        if np.any(adj < 0):
            raise ArgumentError("adjacency entries must be nonnegative")
        if not np.array_equal(adj, adj.T):
            raise ArgumentError("adjacency must be symmetric")
        sums = adj.sum(axis=1)
        if not np.all(sums == sums[0]):
            raise ArgumentError(f"rows must share one sum, got {sums}")
        d = int(sums[0])
        if d < 1:
            raise ArgumentError("degree must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "adjacency", adj)
        cells = np.flatnonzero(adj)  # row-major u * n + v, the order of every slot row and edge-list line
        counts = adj.ravel()[cells]
        slots = np.repeat(np.remainder(cells, n, out=cells), counts).reshape(n, d)  # in place: K_n has ~n^2 cells
        slots.setflags(write=False)
        object.__setattr__(self, "_slots", slots)

    def edge_slots(self) -> np.ndarray:
        """Read-only (n, d) table: row u lists the neighbors of u in order, each repeated by multiplicity."""
        return self._slots


def normalized_adjacency(g: RegularGraph) -> np.ndarray:
    """``A / d``: symmetric, doubly stochastic, top eigenvalue 1 at the all-ones vector."""
    return g.adjacency.astype(np.float64) / g.degree


def spectral_expansion(g: RegularGraph) -> float:
    """Largest absolute nontrivial eigenvalue of ``A / d``."""
    try:
        vals = np.linalg.eigvalsh(normalized_adjacency(g))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failed on adjacency: {exc}") from exc
    return float(np.max(np.abs(vals[:-1])))  # ascending: drop one copy of the trivial eigenvalue 1


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _handed_over(adj: np.ndarray) -> RegularGraph:
    """The graph of an int64 adjacency that nothing else holds: frozen, so the graph adopts it uncopied."""
    adj.setflags(write=False)
    return RegularGraph(adj)


def _symmetric_adjacency(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Adjacency counting each edge ``(us[i], vs[i])`` once per direction, repeats included."""
    adj = np.zeros((n, n), dtype=np.int64)
    np.add.at(adj, (us, vs), 1)
    np.add.at(adj, (vs, us), 1)
    return adj


def gen_complete(n: int) -> RegularGraph:
    _require_size(n, n - 1)
    adj = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(adj, 0)
    return _handed_over(adj)


def gen_cycle(n: int) -> RegularGraph:
    _require_size(n, 2)
    u = np.arange(n)
    return _handed_over(_symmetric_adjacency(n, u, (u + 1) % n))  # n = 2: a double edge


def gen_hypercube(dim: int) -> RegularGraph:
    if dim < 1:
        raise ArgumentError(f"hypercube needs dim >= 1, got {dim}")
    _require_size(1 << min(dim, 64), dim)  # every dim from 14 on is past the cap
    n = 1 << dim
    u = np.repeat(np.arange(n), dim)
    adj = np.zeros((n, n), dtype=np.int64)
    np.add.at(adj, (u, u ^ np.tile(1 << np.arange(dim), n)), 1)
    return _handed_over(adj)


def gen_random_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Permutation-model d-regular multigraph, deterministic in ``seed``.

    Sums floor(d/2) random permutations with their inverses; an odd degree
    adds a random perfect matching (requiring even n, hence the n*d parity
    condition).  Fixed points and 2-cycles of the permutations produce
    self-loops and multi-edges, which are allowed.
    """
    _require_size(n, d)
    if (n * d) % 2 != 0:
        raise ArgumentError(f"n * d must be even, got n={n}, d={d}")
    rng = stream(seed, DOMAIN_GRAPH)
    us = [np.arange(n)] * (d // 2)
    vs = [rng.permutation(n) for _ in range(d // 2)]
    if d % 2 == 1:
        pairing = rng.permutation(n).reshape(-1, 2)
        us.append(pairing[:, 0])
        vs.append(pairing[:, 1])
    return _handed_over(_symmetric_adjacency(n, np.concatenate(us), np.concatenate(vs)))


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------

def sample_walks_array(
    g: RegularGraph, length: int, num_walks: int, seed: int, start_index: int = 0
) -> np.ndarray:
    """Vertex matrix (num_walks, length) for walks ``start_index .. +num_walks``.

    Row i is walk ``start_index + i``.  Its word 0 picks the start in ``[0,
    n)`` and word j the j-th step among the current vertex's ``d`` edge slots,
    each by multiply-high, so a batch can be recomputed in any chunking.  A step
    reads slot ``v * d + step`` of the flat slot table.  The result is the
    transpose of a writable ``(length, num_walks)`` buffer filled one step row
    at a time, so each column ``[:, j]`` is contiguous.  Words are drawn one
    Philox block (four steps) at a time, and each word column is converted as
    its step row is filled.
    """
    if length < 1:
        raise ArgumentError(f"walk length must be >= 1, got {length}")
    flat, d = g.edge_slots().ravel(), g.degree
    out = np.empty((length, num_walks), dtype=np.int64)
    words = counter_words(seed, DOMAIN_WALK, start_index, num_walks, 0)
    out[0] = multiply_high(words[:, 0], g.n)
    for j in range(1, length):
        if j % 4 == 0:
            words = counter_words(seed, DOMAIN_WALK, start_index, num_walks, j // 4)
        slot = multiply_high(words[:, j % 4], d)
        slot += np.multiply(out[j - 1], d, out=out[j])  # row j holds v * d until the take overwrites it
        np.take(flat, slot, out=out[j], mode="clip")  # slots are in range; "raise" would copy out first
    return out.T


# ---------------------------------------------------------------------------
# Edge-list serialization
# ---------------------------------------------------------------------------

def save_edge_list(g: RegularGraph, path: str | Path) -> None:
    cells = np.flatnonzero(g.adjacency)
    cells = cells[cells // g.n <= cells % g.n]  # each unordered pair once: u <= v
    lines = [f"{g.n} {g.degree}"]
    lines += [f"{u} {v} {m}" for u, v, m in zip(*np.divmod(cells, g.n), g.adjacency.ravel()[cells])]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_ints(parts: list[str], line: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ArgumentError(f"edge-list entries must be integers, got {line!r}") from None


def load_edge_list(path: str | Path) -> RegularGraph:
    text = read_text(path, "edge list").strip().splitlines()
    if not text:
        raise ArgumentError("empty edge-list file")
    header = text[0].split()
    if len(header) != 2:
        raise ArgumentError(f"header must be 'n d', got {text[0]!r}")
    n, d = _parse_ints(header, text[0])
    # every vertex needs an edge line and a line covers two: n is bounded before n x n is allocated
    if not 2 <= n <= 2 * (len(text) - 1):
        raise ArgumentError(f"header n = {n} must be in [2, 2 x {len(text) - 1} edge lines]")
    if not 1 <= d < 1 << 32:  # a walk step draws among d slots by multiply_high
        raise ArgumentError(f"header degree {d} must be in [1, 2^32)")
    _require_size(n, d)
    adj = np.zeros((n, n), dtype=np.int64)
    for line in text[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ArgumentError(f"edge lines must be 'u v m', got {line!r}")
        u, v, m = _parse_ints(parts, line)
        if not (0 <= u < n and 0 <= v < n):
            raise ArgumentError(f"vertex out of range in {line!r}")
        if not 0 <= m <= d:
            raise ArgumentError(f"multiplicity must be in [0, {d}] in {line!r}")
        adj[u, v] += m
        if u != v:
            adj[v, u] += m
    g = _handed_over(adj)
    if g.degree != d:
        raise ArgumentError(f"header degree {d} does not match adjacency degree {g.degree}")
    return g
