"""Regular undirected graphs, spectral expansion, and stationary walks.

A graph is stored only as its read-only ``(n, d)`` slot table: row ``u``
lists the neighbors of ``u`` in ascending order, each repeated by
multiplicity (multi-edges and self-loops are allowed).  The one constructor
takes edge arrays, so symmetry holds by construction.  ``arcs()`` reads the
table as its distinct arc keys ``u * n + v`` and their multiplicities; the
int64 adjacency ``A`` is scattered from them on each read and not kept, for the
expander suite's dense spectrum.  Walks, the transfer operator, the certificate
and the spectral expansion read only the table.

The spectral expansion is the largest ABSOLUTE nontrivial eigenvalue of
``A / d``: the quoted "second largest eigenvalue" phrasing is weaker than the
contraction property ``||A x|| <= lambda ||x||`` on the complement of the
all-ones vector that the tail bounds actually consume, so the absolute-value
definition is implemented (bipartite graphs report lambda = 1, i.e.
non-expanding).  It is the top ``|Ritz value|`` of a Lanczos run on ``P' (A /
d) P'`` (``P'`` the projection off the all-ones vector) through the slot
mean, from a fixed start (:mod:`.rng`), that stops at the first of its
geometrically spaced checks (:func:`.norms.lanczos_top`) whose Ritz residual
(an eigenvalue lies that close) is at most ``EXPANSION_TOL``, on an exhausted
Krylov space, or after ``n - 1`` steps.
A Ritz value lies within the spectrum, so lambda is a lower estimate of the
true one, which may exceed it by at most the residual when the top
eigenvalue is the one it approximates.

Every generator and the edge-list loader bound the size before they
allocate: ``2 <= n <= 2^13``, ``d >= 1`` and ``n * d <= 2^26`` (the ``(n, d)``
slot table stays within 512 MiB).  ``n`` stays capped for the ``n x n``
derived adjacency of the expander suite's dense spectrum; no graph holds one.

Edge-list text format: a header line ``n d``, then one ``u v m`` line per
undirected edge with multiplicity ``m``, vertices 0-indexed, each unordered
pair listed once (self-loops as ``u u m``).  The loader bounds each number
before it sizes an array (``n <=`` twice the edge-line count, ``d < 2^32``,
``0 <= m <= d``).

Walk sampling is deterministic in the seed: walk ``i`` of a batch reads the
Philox4x64-10 words at counters ``(i, b, 0, 0)`` under key ``(seed,
DOMAIN_WALK)`` (see :mod:`.rng`), so estimates do not depend on chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError
from .io import read_text
from .norms import lanczos_top
from .rng import DOMAIN_EXPANSION, DOMAIN_GRAPH, DOMAIN_WALK, counter_words, multiply_high, stream

MAX_VERTICES = 1 << 13  # largest n of any graph
EDGE_SLOT_CAP = 1 << 26  # largest n * d of any graph
EXPANSION = "slot-lanczos/1"  # how spectral_expansion computes lambda; stamped in reports
EXPANSION_TOL = 1e-10  # Ritz residual that ends the run: a tenth of the certificate's 1e-9 slack


def _require_size(n: int, d: int) -> None:
    """Reject ``n`` vertices of degree ``d`` outside the size bounds, before anything of that size exists."""
    if not 2 <= n <= MAX_VERTICES:
        raise ArgumentError(f"graph n = {n} must be in [2, 2^13]")
    if d < 1:
        raise ArgumentError(f"graph degree {d} must be >= 1")
    if n * d > EDGE_SLOT_CAP:
        raise ArgumentError(f"graph n x d = {n} x {d} exceeds the cap of 2^26 edge slots")


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """d-regular undirected multigraph on vertices ``0 .. n-1``, held as its read-only ``(n, d)`` slot table.

    Edge ``i`` joins ``us[i]`` and ``vs[i]`` ``counts[i]`` times (default once); each copy fills a slot at both
    ends, a loop ``(u, u)`` one slot, as an edge-list line ``u u m`` fills ``m``.  Degrees are checked first.
    """

    n: int
    degree: int

    def __init__(self, n: int, us, vs, counts=None):
        _require_size(n, 1)  # before anything of size n exists
        edges = [np.asarray(x) for x in (us, vs) + (() if counts is None else (counts,))]
        if any(x.ndim != 1 or x.shape != edges[0].shape or not np.issubdtype(x.dtype, np.integer) for x in edges):
            raise ArgumentError("edges must be 1-D integer arrays of one length")
        us, vs, *reps = (x.astype(np.int64, copy=False) for x in edges)
        if us.size and not (0 <= min(us.min(), vs.min()) and max(us.max(), vs.max()) < n):
            raise ArgumentError(f"edge ends must be vertices in [0, {n})")
        if reps and np.any(reps[0] < 0):
            raise ArgumentError("edge multiplicities must be nonnegative")
        pair = us != vs  # a loop fills one slot, any other edge one at each end
        tails, heads = np.concatenate((us, vs[pair])), np.concatenate((vs, us[pair]))
        reps = np.concatenate((reps[0], reps[0][pair])) if reps else None
        degrees = np.bincount(tails, reps, minlength=n)
        d = int(degrees[0])
        if np.any(degrees != d):
            raise ArgumentError(f"vertex degrees must be equal, got {degrees.min():g} to {degrees.max():g}")
        _require_size(n, d)
        keys = np.add(np.multiply(tails, n, out=tails), heads, out=tails)  # arc keys u * n + v, in place
        keys = keys if reps is None else np.repeat(keys, reps)
        keys.sort()  # row-major: rows in order, each row's neighbors ascending
        slots = np.remainder(keys, n, out=keys).reshape(n, d)
        slots.setflags(write=False)
        vars(self).update(n=n, degree=d, _slots=slots)  # frozen: set once, past __setattr__

    def edge_slots(self) -> np.ndarray:
        """Read-only (n, d) table: row u lists the neighbors of u in order, each repeated by multiplicity."""
        return self._slots

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending distinct arc keys ``u * n + v`` and their multiplicities: the runs of the row-major table."""
        keys = np.repeat(np.arange(self.n) * self.n, self.degree) + self._slots.ravel()
        firsts = np.flatnonzero(np.diff(keys, prepend=-1))
        return keys[firsts], np.diff(firsts, append=keys.size)

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only ``n x n`` int64 adjacency, scattered from the arcs on each read; the graph keeps none."""
        keys, mult = self.arcs()
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        adj.flat[keys] = mult
        adj.setflags(write=False)
        return adj


_GATHER_BYTES = 1 << 16  # largest one-gather _slot_mean with its index copy: under glibc's 128 KiB mmap threshold


def _slot_mean(slots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(A / degree kron I) x`` at the vertices of ``slots``' rows: the mean of ``x[v]`` over each row's slots
    ``v``, added slot by slot in slot order.

    When the whole ``(degree, rows, ...)`` gather fits in ``_GATHER_BYTES`` with its index copy, one ``take`` of
    ``x`` through the transposed slots gives it and one reduction over the slot axis from -0.0 adds it (a
    reduction to a single entry would add pairwise, so that case does not take it).  Otherwise one ``take`` per
    slot column adds the columns in turn.
    """
    (rows, d), width = slots.shape, math.prod(x.shape[1:])
    # methods and positional arguments skip np.take's wrapper and keyword parsing; an explicit copy is faster
    # than take's own conversion of a strided index
    if d * rows * (width * x.itemsize + slots.itemsize) <= _GATHER_BYTES and rows * width > 1:
        acc = np.add.reduce(x.take(slots.T.copy(), 0), 0, None, None, False, -0.0)
    else:
        acc = x.take(slots[:, 0].copy(), 0)
        for s in range(1, d):
            acc += x.take(slots[:, s].copy(), 0)
    acc /= d
    return acc


def spectral_expansion(g: RegularGraph) -> tuple[float, float, int]:
    """Largest absolute nontrivial eigenvalue of ``A / d``, its Ritz residual and the Lanczos steps taken."""
    slots, start = g.edge_slots(), stream(0, DOMAIN_EXPANSION).standard_normal(g.n)
    start -= start.mean()

    def apply(x):  # P' (A / d) on P''s range; the sum over the vertices divided by n is numpy's mean
        y = _slot_mean(slots, x)
        y -= np.add.reduce(y, 0) / g.n
        return y

    return lanczos_top(apply, start, g.n - 1, tol=EXPANSION_TOL)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_complete(n: int) -> RegularGraph:
    _require_size(n, n - 1)
    return RegularGraph(n, *np.triu_indices(n, 1))


def gen_cycle(n: int) -> RegularGraph:
    _require_size(n, 2)
    u = np.arange(n)
    return RegularGraph(n, u, (u + 1) % n)  # n = 2: a double edge


def gen_hypercube(dim: int) -> RegularGraph:
    if dim < 1:
        raise ArgumentError(f"hypercube needs dim >= 1, got {dim}")
    _require_size(1 << min(dim, 64), dim)  # every dim from 14 on is past the cap
    n = 1 << dim
    u = np.repeat(np.arange(n), dim)
    v = u ^ np.tile(1 << np.arange(dim), n)
    return RegularGraph(n, u[u < v], v[u < v])


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
    us, vs = np.concatenate(us), np.concatenate(vs)
    return RegularGraph(n, us, vs, 1 + (us == vs))  # a fixed point's arc and its inverse are both the loop


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
    keys, mult = g.arcs()
    lines = [f"{g.n} {g.degree}"]  # the header, then each unordered pair once, from its lower end
    lines += [f"{u} {v} {m}" for u, v, m in zip(*np.divmod(keys, g.n), mult) if u <= v]
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
    # every vertex needs an edge line and a line covers two: n is bounded before anything of size n exists
    if not 2 <= n <= 2 * (len(text) - 1):
        raise ArgumentError(f"header n = {n} must be in [2, 2 x {len(text) - 1} edge lines]")
    if not 1 <= d < 1 << 32:  # a walk step draws among d slots by multiply_high
        raise ArgumentError(f"header degree {d} must be in [1, 2^32)")
    _require_size(n, d)
    edges = np.empty((len(text) - 1, 3), dtype=np.int64)
    for i, line in enumerate(text[1:]):
        parts = line.split()
        if len(parts) != 3:
            raise ArgumentError(f"edge lines must be 'u v m', got {line!r}")
        u, v, m = _parse_ints(parts, line)
        if not (0 <= u < n and 0 <= v < n):
            raise ArgumentError(f"vertex out of range in {line!r}")
        if not 0 <= m <= d:
            raise ArgumentError(f"multiplicity must be in [0, {d}] in {line!r}")
        edges[i] = u, v, m
    g = RegularGraph(n, *edges.T)
    if g.degree != d:
        raise ArgumentError(f"header degree {d} does not match the edges' degree {g.degree}")
    return g
