"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's unfolding representation: products are
nested-loop contractions over tensor entries, eigenvalue facts are checked by
subset enumeration, majorization by partial-sum loops (``majorizes_oracle``,
``log_majorizes_oracle``), and integrals by closed-form antiderivatives.  Keep
them slow and obvious.  The compound power and the dense transfer operator build
on library tensors but take no shortcut the code under test takes.  The
per-probe certificate loop is the library's former one-at-a-time path, and
the per-vertex assignment loop rescales each vertex of the same single draw
on its own; both are references for batched paths, and so are the
``trial_*`` verifiers, the library's former one-trial-at-a-time bodies
(``trial_discrete_average_majorization`` decides its premise with the loops
above, not with the library's ``first_failures``).  The
log-exp convexity probe and ``reconstruct`` are diagnostics only the tests use.
``scalar_theorem_bound`` is the library's former one-threshold minimizer, and
``premise_trial_draws`` the runner's former one-trial draw of a constructed premise.
The tail sweep's former paths are references too: ``masked_sorted_ky_fan``
(the Ky Fan norm as a masked sum of the sorted row, for every ``k``),
``complex_walk_sums`` (one complex ``(count, d, d)`` gather per walk step),
``assembled_walk_sums`` and ``complex_stack_eigvalsh`` (the summed lower-triangle
reals written into a complex stack, and that stack's spectrum), ``row_major_walks``
(the walk sampler filling one strided column per step), ``block_column_walks``
(the sampler converting every word of a chunk at once) and ``wide_counter_words``
(all of a chunk's Philox blocks in one ``(count, 4 * blocks)`` array).
``direct_tail_p_hat`` counts tail hits with none of the sweep's machinery.
``column_slot_mean`` is the slot mean's former one-column-at-a-time loop, and
``dense_two_step_ratio`` the expander suite's former two-step check over all ``n x n`` cells.
The ``kronecker_*`` functions are the former complex transfer layer, the reference for the
real Hermitian coordinates, which ``hermitian_coordinates`` and ``hermitian_stack`` spell out
entry by entry.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tensor_chernoff.errors import ArgumentError
from tensor_chernoff.graphs import sample_walks_array
from tensor_chernoff.inequalities import LOG_MODES, TRIAL_FUNCTIONS, commuting_spectra
from tensor_chernoff.norms import gauge_rho, ky_fan_norm, singular_values
from tensor_chernoff.rng import DOMAIN_GRAPH, DOMAIN_TENSORS, DOMAIN_WALK, multiply_high, stream
from tensor_chernoff.sampling import ginibre
from tensor_chernoff.tensors import HermitianTensor, Tensor, TensorShape


def naive_einstein(entries_x: np.ndarray, entries_y: np.ndarray, n_contracted: int) -> np.ndarray:
    """Einstein product by explicit loops over every free and contracted index."""
    x_free = entries_x.shape[: entries_x.ndim - n_contracted]
    contracted = entries_x.shape[entries_x.ndim - n_contracted:]
    y_free = entries_y.shape[n_contracted:]
    assert entries_y.shape[:n_contracted] == contracted
    out = np.zeros(x_free + y_free, dtype=np.complex128)
    for i in itertools.product(*map(range, x_free)):
        for k in itertools.product(*map(range, y_free)):
            acc = 0.0 + 0.0j
            for j in itertools.product(*map(range, contracted)):
                acc += entries_x[i + j] * entries_y[j + k]
            out[i + k] = acc
    return out


def einsum_einstein(entries_x: np.ndarray, entries_y: np.ndarray, n_contracted: int) -> np.ndarray:
    """Einstein product via an axis-level einsum, independent of any unfolding."""
    m = entries_x.ndim - n_contracted
    l = entries_y.ndim - n_contracted
    x_axes = list(range(m)) + list(range(m, m + n_contracted))
    y_axes = list(range(m, m + n_contracted)) + list(range(m + n_contracted, m + n_contracted + l))
    out_axes = list(range(m)) + list(range(m + n_contracted, m + n_contracted + l))
    return np.einsum(entries_x, x_axes, entries_y, y_axes, out_axes)


def subset_products(values, k: int) -> list[float]:
    """All products of ``k``-subsets of ``values`` (k-trace / compound oracle)."""
    return [math.prod(c) for c in itertools.combinations(values, k)]


def elementary_symmetric(values, k: int) -> float:
    return sum(subset_products(values, k))


def partial_sums(v) -> list[float]:
    out, acc = [], 0.0
    for x in v:
        acc += x
        out.append(acc)
    return out


def majorizes_oracle(y, x, tol: float, total: bool = False) -> tuple[bool, int | None]:
    """Partial-sum enumeration: x weakly majorized by y, and with ``total`` also equal full sums
    (a failure at the last prefix); the first failing prefix length, or None."""
    sx, sy = partial_sums(x), partial_sums(y)
    for k, (a, b) in enumerate(zip(sx, sy), start=1):
        if a > b + tol:
            return False, k
    if total and abs(sx[-1] - sy[-1]) > tol:
        return False, len(sx)
    return True, None


def log_majorizes_oracle(y, x, total: bool = False) -> tuple[bool, int | None]:
    """``majorizes_oracle`` on the logs of positive vectors (partial products as sums of logs), at the
    tolerance ``1e-9 (1 + max|log x| + max|log y|)``."""
    lx, ly = [math.log(v) for v in x], [math.log(v) for v in y]
    return majorizes_oracle(ly, lx, 1e-9 * (1.0 + max(map(abs, lx)) + max(map(abs, ly))), total)


def beta0_antiderivative(t: float) -> float:
    """Closed-form antiderivative of the walk density: tanh(pi t / 2) / 2."""
    return 0.5 * math.tanh(math.pi * t / 2.0)


def warn_if_not_log_exp_convex(f: Callable, lo: float, hi: float, samples: int = 65) -> bool:
    """Sample x -> log f(e^x) on a grid and warn when midpoint convexity fails.

    Returns True when the sampled points look convex.  Convexity of arbitrary
    callables is undecidable, so this is a diagnostic, never an error.
    """
    xs = np.linspace(math.log(lo), math.log(hi), samples)
    with np.errstate(all="ignore"):
        phi = np.asarray([float(np.log(f(math.exp(x)))) for x in xs])
    finite = np.isfinite(phi)
    if not np.all(finite):
        warnings.warn("log f(e^x) not finite on the sampled grid", stacklevel=2)
        return False
    second = phi[:-2] - 2.0 * phi[1:-1] + phi[2:]
    ok = bool(np.all(second >= -1e-8 * (1.0 + np.abs(phi[1:-1]))))
    if not ok:
        warnings.warn("sampled x -> log f(e^x) looks non-convex", stacklevel=2)
    return ok


def multivariate_rhs_oracle(f, cs, k: int, truncation: float, node_count: int) -> dict:
    """Both quadrature forms of the multivariate norm inequality, one node at a time.

    At every node ``t`` each ``C_i^(1+it)`` is formed from an ``eigh`` of
    ``C_i``, the product is multiplied out and its singular values come from
    ``np.linalg.svd``; the integrand is the sum of the top ``k`` values of
    ``|f|`` on them.  The rules are Gauss-Legendre with ``node_count`` and
    ``max(16, node_count // 2)`` nodes on ``[-T, T]`` against
    ``pi / (2 (cosh(pi t) + 1))``.  The range of ``|f|`` is read at the two
    ends of the spectral interval, which is exact when ``|f|`` is monotone
    there (and its maximum is exact when ``|f|`` is convex).

    Returns ``{"log": {...}, "linear": {...}}``, each with ``value``,
    ``quadrature_error``, ``truncation_bound`` and ``error_bound``.
    """
    eigs = [np.linalg.eigh(np.asarray(c.matrix)) for c in cs]
    dim = eigs[0][0].size

    def integrand(t: float) -> float:
        prod = np.eye(dim, dtype=np.complex128)
        for lam, u in eigs:
            prod = prod @ (u * np.exp((1.0 + 1j * t) * np.log(lam))) @ u.conj().T
        sv = np.linalg.svd(prod, compute_uv=False)
        return float(np.sum(np.sort(np.abs(f(sv)))[::-1][:k]))

    def rule(n: int) -> dict:
        x, w = np.polynomial.legendre.leggauss(n)
        ts, ws = truncation * x, truncation * w
        norms = np.array([integrand(t) for t in ts])
        dens = math.pi / (2.0 * (np.cosh(math.pi * ts) + 1.0))
        return {"log": float(np.sum(np.log(norms) * dens * ws)), "linear": float(np.sum(norms * dens * ws))}

    full, half = rule(node_count), rule(max(16, node_count // 2))
    err = {form: abs(full[form] - half[form]) + 1e-12 * (1.0 + abs(full[form])) for form in full}
    tail = 1.0 - math.tanh(math.pi * truncation / 2.0)
    ends = [abs(float(f(float(np.prod([lam[i] for lam, _ in eigs]))))) for i in (0, -1)]
    f_lo, f_hi = min(ends), max(ends)

    value = math.exp(full["log"])
    trunc_log = max(abs(math.log(k * f_lo)), abs(math.log(k * f_hi))) * tail if f_lo > 0 else math.inf
    trunc_lin = k * f_hi * tail
    return {
        "log": {
            "value": value,
            "quadrature_error": err["log"],
            "truncation_bound": value * math.expm1(trunc_log),
            "error_bound": value * math.expm1(trunc_log + err["log"]),
        },
        "linear": {
            "value": full["linear"],
            "quadrature_error": err["linear"],
            "truncation_bound": trunc_lin,
            "error_bound": trunc_lin + err["linear"],
        },
    }


def dense_spectral_expansion(g) -> float:
    """Largest absolute nontrivial eigenvalue of ``A / d`` from a dense ``eigvalsh`` of the adjacency."""
    vals = np.linalg.eigvalsh(g.adjacency / g.degree)
    return float(np.max(np.abs(vals[:-1])))  # ascending: drop one copy of the trivial eigenvalue 1


def column_slot_mean(slots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The mean of ``x[v]`` over each row's slots ``v``, added one slot column at a time: the library's former
    ``graphs._slot_mean``, the reference for its one-gather path and its column loop."""
    acc = np.take(x, slots[:, 0], axis=0)
    for s in range(1, slots.shape[1]):
        acc += np.take(x, slots[:, s], axis=0)
    acc /= slots.shape[1]
    return acc


def dense_two_step_ratio(g, walks: np.ndarray) -> float:
    """Largest Bernstein ratio of the walks' (first, second) vertex cells over all ``n x n`` cells: counts by
    ``np.add.at``, ``p = A / d / n``, one union over the cells of ``p > 0``, and inf for a count at ``p = 0``."""
    n_walks = walks.shape[0]
    counts = np.zeros((g.n, g.n))
    np.add.at(counts, (walks[:, 0], walks[:, 1]), 1.0)
    p = g.adjacency / g.degree / g.n
    log_term = math.log(2.0 * np.count_nonzero(p) / 1e-6)
    allowed = log_term / 3.0 + np.sqrt(log_term**2 / 9.0 + 2.0 * log_term * n_walks * p * (1.0 - p))
    ratio = np.where(p == 0.0, np.where(counts > 0.0, math.inf, 0.0), np.abs(counts - n_walks * p) / allowed)
    return float(np.max(ratio))


def cycle_expansion(n: int) -> float:
    """Largest nontrivial |eigenvalue| of the normalized cycle adjacency."""
    return max(abs(math.cos(2.0 * math.pi * j / n)) for j in range(1, n))


def reconstruct(spec) -> HermitianTensor:
    """The Hermitian tensor ``U diag(eigenvalues) U^H`` of a ``Spectrum``."""
    return HermitianTensor(spec.shape, (spec.basis * spec.eigenvalues) @ spec.basis.conj().T)


def entry_conj_transpose(entries: np.ndarray, n_row_modes: int) -> np.ndarray:
    """Adjoint at the entry level: swap index groups and conjugate."""
    m = entries.ndim
    axes = list(range(n_row_modes, m)) + list(range(n_row_modes))
    return np.conjugate(np.transpose(entries, axes))


def entry_trace(entries: np.ndarray, n_row_modes: int) -> complex:
    """Trace by explicit summation over repeated multi-indices."""
    dims = entries.shape[:n_row_modes]
    acc = 0.0 + 0.0j
    for idx in itertools.product(*map(range, dims)):
        acc += entries[idx + idx]
    return acc


def entry_inner_product(x: np.ndarray, y: np.ndarray) -> complex:
    """Entrywise sesquilinear inner product."""
    return complex(np.sum(np.conjugate(x) * y))


def reference_walk(g, length: int, seed: int, walk_index: int) -> tuple[int, ...]:
    """Walk ``walk_index`` one step at a time, one Philox block at a time.

    Each block ``b`` comes from a fresh ``np.random.Philox`` set at counter
    ``(walk_index, b, 0, 0)`` and stepped back one block, because numpy
    increments the counter before it generates.  Word 0 is the start and word
    j the j-th step; each maps to ``[0, m)`` as the Python integer
    ``(w * m) >> 64``, and a step picks among the current vertex's edges,
    each repeated by its multiplicity.
    """
    words = []
    for b in range(-(-length // 4)):
        gen = np.random.Philox(key=np.array([seed, DOMAIN_WALK], dtype=np.uint64),
                               counter=np.array([walk_index, b, 0, 0], dtype=np.uint64))
        gen.advance(2**256 - 1)
        words.extend(int(w) for w in gen.random_raw(4))
    v = (words[0] * g.n) >> 64
    verts = [v]
    for w in words[1:length]:
        v = int(np.repeat(np.arange(g.n), g.adjacency[v])[(w * g.degree) >> 64])
        verts.append(v)
    return tuple(verts)


def wide_counter_words(master_seed: int, domain: int, start: int, count: int, blocks: int) -> np.ndarray:
    """The former ``(count, 4 * blocks)`` word layout: row ``r``, columns ``4b .. 4b + 3`` are the
    block at counter ``(start + r, b, 0, 0)``, each block column one ``random_raw`` call."""
    key = np.array([master_seed, domain], dtype=np.uint64)
    out = np.empty((count, 4 * blocks), dtype=np.uint64)
    for b in range(blocks):
        gen = np.random.Philox(key=key, counter=((b << 64) + start - 1) % (1 << 256))
        out[:, 4 * b:4 * b + 4] = gen.random_raw(4 * count).reshape(count, 4)
    return out


def row_major_walks(g, length: int, num_walks: int, seed: int, start_index: int = 0) -> np.ndarray:
    """``(num_walks, length)`` walks filled one column at a time, each step a take at ``v * d + step``."""
    words = wide_counter_words(seed, DOMAIN_WALK, start_index, num_walks, -(-length // 4))
    flat, d = g.edge_slots().ravel(), g.degree
    steps = multiply_high(words[:, 1:length], d)
    out = np.empty((num_walks, length), dtype=np.int64)
    out[:, 0] = multiply_high(words[:, 0], g.n)
    for j in range(1, length):
        out[:, j] = np.take(flat, out[:, j - 1] * d + steps[:, j - 1])
    return out


def block_column_walks(g, length: int, num_walks: int, seed: int, start_index: int = 0) -> np.ndarray:
    """The former sampler: every word of the chunk in one ``wide_counter_words`` array, all steps converted
    at once through its transpose, then one take per row of a step-major buffer, returned transposed."""
    words = wide_counter_words(seed, DOMAIN_WALK, start_index, num_walks, -(-length // 4))
    flat, d = g.edge_slots().ravel(), g.degree
    steps = multiply_high(words[:, 1:length].T, d)
    out = np.empty((length, num_walks), dtype=np.int64)
    out[0] = multiply_high(words[:, 0], g.n)
    for j in range(1, length):
        np.take(flat, out[j - 1] * d + steps[j - 1], out=out[j])
    return out.T


def complex_walk_sums(stack: np.ndarray, walks: np.ndarray) -> np.ndarray:
    """``(count, d, d)`` walk sums, one complex gather of whole vertex matrices per walk step, in step order."""
    total = np.take(stack, walks[:, 0], axis=0)
    for j in range(1, walks.shape[1]):
        total += np.take(stack, walks[:, j], axis=0)
    return total


def assembled_walk_sums(table: np.ndarray, walks: np.ndarray) -> np.ndarray:
    """The former ``(count, d, d)`` walk sums of a lower-triangle reals table: the summed reals written
    into a complex stack through its float64 view, by four multi-axis fancy assignments."""
    d = math.isqrt(table.shape[1])
    total = np.take(table, walks[:, 0], axis=0)
    for j in range(1, walks.shape[1]):
        total += np.take(table, walks[:, j], axis=0)
    diag, (i, j), q = np.arange(d), np.tril_indices(d, -1), d * (d - 1) // 2
    h = np.zeros((len(total), d, d), dtype=np.complex128)
    parts = h.view(np.float64).reshape(len(total), d, d, 2)
    parts[:, diag, diag, 0] = total[:, :d]
    parts[:, i, j, 0] = parts[:, j, i, 0] = total[:, d:d + q]
    parts[:, i, j, 1] = total[:, d + q:]
    parts[:, j, i, 1] = -total[:, d + q:]
    return h


def complex_stack_eigvalsh(h: np.ndarray) -> np.ndarray:
    """The former walk-sum spectrum of a ``(count, d, d)`` complex stack: the 2x2 closed form
    ``mid -/+ hypot((a - c) / 2, |b|)`` with ``b`` its lower entry, LAPACK's ``eigvalsh`` for any other d."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    a, c = h[..., 0, 0].real, h[..., 1, 1].real
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), np.abs(h[..., 1, 0]))
    return np.stack([mid - rad, mid + rad], axis=-1)


def masked_sorted_ky_fan(values: np.ndarray, k) -> np.ndarray:
    """Sum of the ``k`` largest ``|v|`` along the last axis: a masked sum over the whole sorted row."""
    k = np.asarray(k)
    top = np.sort(np.abs(values), axis=-1)[..., ::-1]
    return np.sum(np.where(np.arange(values.shape[-1]) < k[..., None], top, 0.0), axis=-1)


def direct_tail_p_hat(assignment, poly, k: int, thetas, num_walks: int, kappa: int, seed: int) -> list[float]:
    """Share of ``num_walks`` kappa-step walks with ``|| f(sum_j g(v_j)) ||_(k) >= theta``, per threshold.

    The walk sums are one fancy-index gather of the whole stack, their spectra LAPACK's ``eigvalsh``,
    and each norm the plain sum of the first ``k`` of the descending ``|f(mu)|``.
    """
    walks = sample_walks_array(assignment.graph, kappa, num_walks, seed)
    mu = np.linalg.eigvalsh(assignment.stack()[walks].sum(axis=1))
    norms = -np.sort(-np.abs(poly(mu)), axis=1)[:, :k].sum(axis=1)
    return [np.count_nonzero(norms >= theta) / num_walks for theta in thetas]


def scalar_theorem_bound(params, theta: float, poly, fit) -> tuple[float, float]:
    """``(value, t_opt)`` of the theorem bound at ``theta`` alone: the displayed objective on
    a 200-point log grid up to four times the largest positive vertex, then a scalar golden-section
    loop, one evaluation per step, down to a bracket of 1e-8 relative width.  Each evaluation is
    numpy on a 0-d array, as the library's was."""
    s, kb = poly.power, params.lam_bar
    pref = fit.c * (params.k + math.sqrt((params.dim - params.k) / params.k))
    coeff = (poly.degree + 1) ** (s - 1.0)
    terms = [l for l in range(1, poly.degree + 1) if poly.coefficients[l] != 0.0]
    a_l = {l: 2.0 * (params.kappa + 8.0 * kb) * l * s * params.radius for l in terms}
    b_l = {l: 2.0 * (fit.sigma * (params.kappa + 8.0 * kb) * l * s * params.radius) ** 2 for l in terms}

    def objective(t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            total = np.zeros_like(t)
            for l in terms:
                total = total + poly.coefficients[l] * np.exp(8.0 * params.kappa * kb + (a_l[l] - theta) * t
                                                              + b_l[l] * t**2)
            vals = coeff * (poly.coefficients[0] * params.k * np.exp(-theta * t) + pref * total)
        return vals if vals.ndim else float(vals)

    hi = max([1.0] + [4.0 * v for v in ((theta - a_l[l]) / (2.0 * b_l[l]) for l in terms) if v > 0])
    grid = np.geomspace(1e-8, hi, 200)
    i = int(np.argmin(objective(grid)))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > 1e-8 * max(a, 1e-12):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    t_opt = (a + b) / 2.0
    return float(objective(t_opt)), float(t_opt)


def loop_edge_slots(adj: np.ndarray) -> np.ndarray:
    """Slot table built row by row: row u lists u's neighbors in order, each repeated by multiplicity."""
    return np.stack([np.repeat(np.arange(len(adj)), adj[u]) for u in range(len(adj))])


def loop_edge_list_text(g) -> str:
    """Edge-list text from a scan of the upper triangle, one cell at a time."""
    lines = [f"{g.n} {g.degree}"]
    for u in range(g.n):
        for v in range(u, g.n):
            m = int(g.adjacency[u, v])
            if m > 0:
                lines.append(f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


def loop_complete_adjacency(n: int) -> np.ndarray:
    """Complete-graph adjacency: every pair of distinct vertices adjacent once."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            adj[u, v] = int(u != v)
    return adj


def loop_edge_list_adjacency(text: str) -> np.ndarray:
    """Adjacency of edge-list text, one ``u v m`` line at a time (a loop adds m once)."""
    lines = text.strip().splitlines()
    n = int(lines[0].split()[0])
    adj = np.zeros((n, n), dtype=np.int64)
    for line in lines[1:]:
        u, v, m = map(int, line.split())
        adj[u, v] += m
        if u != v:
            adj[v, u] += m
    return adj


def loop_cycle_adjacency(n: int) -> np.ndarray:
    """Cycle adjacency filled one edge at a time (n = 2 gives a double edge)."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        adj[u, (u + 1) % n] += 1
        adj[(u + 1) % n, u] += 1
    return adj


def loop_hypercube_adjacency(dim: int) -> np.ndarray:
    """Hypercube adjacency: u and v adjacent when they differ in exactly one bit."""
    n = 1 << dim
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for b in range(dim):
            adj[u, u ^ (1 << b)] = 1
    return adj


def loop_random_regular_adjacency(n: int, d: int, seed: int) -> np.ndarray:
    """Permutation-model multigraph filled one edge at a time, drawing as the library does."""
    rng = stream(seed, DOMAIN_GRAPH)
    adj = np.zeros((n, n), dtype=np.int64)
    for _ in range(d // 2):
        perm = rng.permutation(n)
        for u, v in enumerate(perm):
            adj[u, v] += 1
            adj[v, u] += 1
    if d % 2 == 1:
        pairing = rng.permutation(n)
        for a, b in pairing.reshape(-1, 2):
            adj[a, b] += 1
            adj[b, a] += 1
    return adj


def dense_transfer_operator(assignment, t: float, a: float, b: float):
    """Dense ``F (A kron I)`` as an ``n d^2 x n d^2`` matrix plus ``u0 = 1/sqrt(n) kron vec(I)``.

    Block ``(u, v)`` is ``A_uv / degree * (E_u kron conj(E_u))`` with ``E_u =
    exp(t g(u) (a + i b) / 2)``, filled one vertex pair at a time.  Small
    graphs only: the matrix has ``(n d^2)^2`` entries.
    """
    graph = assignment.graph
    n, d2 = graph.n, assignment.dim ** 2
    blocks = []
    for g in assignment.stack():
        vals, vecs = np.linalg.eigh(g)
        e = (vecs * np.exp(t * (a + 1j * b) / 2.0 * vals)) @ vecs.conj().T
        blocks.append(np.kron(e, e.conj()))
    a_norm = graph.adjacency.astype(np.float64) / graph.degree
    op = np.zeros((n * d2, n * d2), dtype=np.complex128)
    for u in range(n):
        for v in range(n):
            if a_norm[u, v] != 0.0:
                op[u * d2:(u + 1) * d2, v * d2:(v + 1) * d2] = a_norm[u, v] * blocks[u]
    ident = np.eye(assignment.dim, dtype=np.complex128)
    u0 = np.kron(np.ones(n) / math.sqrt(n), ident.ravel())
    return op, u0


def dense_transfer_expectation(assignment, t: float, a: float, b: float, kappa: int) -> float:
    """``<u0, (F (A kron I))^kappa u0>`` by dense matrix-vector products."""
    op, u0 = dense_transfer_operator(assignment, t, a, b)
    w = u0
    for _ in range(kappa):
        w = op @ w
    return float(np.vdot(u0, w).real)


def dense_contraction_norms(assignment, t: float, a: float, b: float) -> list[float]:
    """Spectral norms of ``P T P``, ``P T P'``, ``P' T P`` and ``P' T P'`` (parts 1-4) by dense SVD,
    with ``T`` the dense transfer operator, ``P`` the projection onto vertex-constant stacks and
    ``P' = I - P``."""
    op, _ = dense_transfer_operator(assignment, t, a, b)
    n, d2 = assignment.graph.n, assignment.dim ** 2
    par = np.kron(np.full((n, n), 1.0 / n), np.eye(d2))
    perp = np.eye(n * d2) - par
    pairs = ((par, par), (perp, par), (par, perp), (perp, perp))
    return [float(np.linalg.norm(out @ op @ inp, 2)) for inp, out in pairs]


def hermitian_coordinates(x: np.ndarray) -> np.ndarray:
    """``(n, d^2)`` coordinates of an ``(n, d, d)`` Hermitian stack, one entry at a time: the diagonal, then
    ``sqrt 2`` times the real parts of the lower entries, then ``sqrt 2`` times their imaginary parts, in
    ``np.tril_indices(d, -1)`` order."""
    n, d = x.shape[:2]
    pairs = list(zip(*np.tril_indices(d, -1)))
    out = np.empty((n, d * d))
    for u in range(n):
        out[u] = [x[u, k, k].real for k in range(d)] + [math.sqrt(2.0) * x[u, i, j].real for i, j in pairs] + \
                 [math.sqrt(2.0) * x[u, i, j].imag for i, j in pairs]
    return out


def hermitian_stack(c: np.ndarray) -> np.ndarray:
    """The ``(n, d, d)`` Hermitian stack of coordinates ``(n, d^2)``, one entry at a time (inverse of the above)."""
    n, d = c.shape[0], math.isqrt(c.shape[1])
    pairs = list(zip(*np.tril_indices(d, -1)))
    x = np.zeros((n, d, d), dtype=np.complex128)
    for u in range(n):
        for k in range(d):
            x[u, k, k] = c[u, k]
        for p, (i, j) in enumerate(pairs):
            x[u, i, j] = (c[u, d + p] + 1j * c[u, d + len(pairs) + p]) / math.sqrt(2.0)
            x[u, j, i] = np.conj(x[u, i, j])
    return x


# The former complex transfer layer: ``(n, d, d)`` stacks, the Kronecker stack ``M_u = E_u kron conj(E_u)`` (with
# row-major vec, ``M_u vec X = vec(E_u X E_u^H)``) applied as one batched matvec, and the Gram parts from ``M``.

def kronecker_exponentials(assignment, t: float, a: float, b: float) -> np.ndarray:
    """``(n, d, d)`` stack of ``E_u = exp(t g(u) (a + i b) / 2)`` from the assignment's ``eigh``."""
    vals, vecs = assignment.eigh()
    return (vecs * np.exp(t * (a + 1j * b) / 2.0 * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def _kronecker_stack_and_slot_mean(assignment, t: float, a: float, b: float):
    es = kronecker_exponentials(assignment, t, a, b)
    n, d = es.shape[:2]
    m = (es[:, :, None, :, None] * es.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)
    slots = assignment.graph.edge_slots()
    return m, (lambda x: x[slots].mean(axis=1))


def kronecker_transfer_expectation(assignment, t: float, a: float, b: float, kappa: int) -> complex:
    """``<I / sqrt n, (F (A kron I))^kappa I / sqrt n>`` on complex ``(n, d, d)`` stacks, imaginary residue kept."""
    m, slot_mean = _kronecker_stack_and_slot_mean(assignment, t, a, b)
    n, d = assignment.graph.n, assignment.dim
    x0 = w = np.broadcast_to(np.eye(d, dtype=np.complex128) / math.sqrt(n), (n, d, d))
    for _ in range(kappa):
        w = (m @ slot_mean(w).reshape(n, d * d, 1)).reshape(n, d, d)
    return complex(np.vdot(x0, w))


def kronecker_gram_norms(assignment, t: float, a: float, b: float) -> list[float]:
    """Parts 1-3 from the complex Kronecker stack: the roots of the top eigenvalues of ``Mbar^H Mbar``,
    ``sum_v Z_v Z_v^H / n`` with ``Z = (A / degree kron I)(M - Mbar)``, and
    ``sum_u (M_u - Mbar)^H (M_u - Mbar) / n``."""
    m, slot_mean = _kronecker_stack_and_slot_mean(assignment, t, a, b)
    n = assignment.graph.n
    m_bar = m.mean(axis=0)
    z, dev = slot_mean(m) - m_bar, m - m_bar
    grams = (m_bar.conj().T @ m_bar, np.einsum("vij,vkj->ik", z, z.conj()) / n,
             np.einsum("uji,ujk->ik", dev.conj(), dev) / n)
    return [math.sqrt(max(float(np.linalg.eigvalsh(g)[-1]), 0.0)) for g in grams]


def loop_random_assignment(graph, shape, radius: float, seed: int, streams=stream) -> list[np.ndarray]:
    """Vertex ``v``'s matrix from slices ``[0, v]`` (real) and ``[1, v]`` (imaginary) of one
    ``standard_normal((2, n, d, d))`` draw from ``streams(seed, DOMAIN_TENSORS)``, with its
    own ``eigvalsh`` and rescale to spectral norm ``radius`` (an all-zero draw stays zero)."""
    d = shape.unfold_rows
    draws = streams(seed, DOMAIN_TENSORS).standard_normal((2, graph.n, d, d))
    out = []
    for v in range(graph.n):
        x = (draws[0, v] + 1j * draws[1, v]) / np.sqrt(2.0)
        h = (x + x.conj().T) / 2.0
        top = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        out.append(h if top == 0.0 else h * (radius / top))
    return out


# ---------------------------------------------------------------------------
# k-th antisymmetric (compound) power
# ---------------------------------------------------------------------------
#
# ``compound(X, k)`` is the matrix realization of the k-th antisymmetric power
# of the unfolding: entry (S, T) is the determinant of the k x k submatrix with
# rows S and columns T, where S and T run over k-subsets in lexicographic order
# (``itertools.combinations`` order).  Its eigenvalues are all k-fold products
# of the original eigenvalues, which makes it an independent oracle for top-k
# eigenvalue products.  Dimensions are capped at ``n <= 8``, ``k <= 4`` because
# the representation grows like C(n, k).

MAX_BASE_DIM = 8
MAX_ORDER = 4


@dataclass(frozen=True)
class CompoundRep:
    """Compound power of a square tensor, indexed by lexicographic k-subsets."""

    k: int
    dim: int
    entries: np.ndarray
    subsets: tuple[tuple[int, ...], ...]

    def as_tensor(self) -> Tensor:
        """View the representation as a square tensor so spectral ops apply."""
        return Tensor(TensorShape.square((self.dim,)), self.entries)


def compound(x: Tensor, k: int) -> CompoundRep:
    x.shape.require_square("compound")
    n = x.shape.unfold_rows
    if not 1 <= k <= n:
        raise ArgumentError(f"k must be in [1, {n}], got {k}")
    if n > MAX_BASE_DIM or k > MAX_ORDER:
        raise ArgumentError(
            f"compound is capped at n <= {MAX_BASE_DIM}, k <= {MAX_ORDER}; got n={n}, k={k}"
        )
    subsets = tuple(itertools.combinations(range(n), k))
    dim = math.comb(n, k)
    mat = x.matrix
    out = np.empty((dim, dim), dtype=np.complex128)
    for a, rows in enumerate(subsets):
        block = mat[np.asarray(rows), :]
        for b, cols in enumerate(subsets):
            sub = block[:, np.asarray(cols)]
            out[a, b] = np.linalg.det(sub) if k > 1 else sub[0, 0]
    return CompoundRep(k=k, dim=dim, entries=out, subsets=subsets)


@dataclass(frozen=True)
class CompoundNormReport:
    lhs: float  # spectral norm of the compound
    rhs: float  # product of the k largest singular values
    rel_err: float
    holds: bool


def compound_norm_check(x: Tensor, k: int, rel_tol: float = 1e-8) -> CompoundNormReport:
    """Check ``||X^(wedge k)|| = prod_{i<=k} lambda_i(|X|)`` within ``rel_tol``."""
    rep = compound(x, k)
    lhs = ky_fan_norm(rep.as_tensor(), 1)
    rhs = float(np.prod(singular_values(x)[:k]))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel = abs(lhs - rhs) / scale
    return CompoundNormReport(lhs=lhs, rhs=rhs, rel_err=rel, holds=rel <= rel_tol)


# ---------------------------------------------------------------------------
# Per-trial verifiers: the library's former one-trial-at-a-time bodies, the
# references for its batched verifiers.  Inputs are plain matrices.
# ---------------------------------------------------------------------------

def trial_holder_gauge_violated(vecs, alphas, k: int) -> bool:
    """Whether ``rho(prod v_i^a_i) > prod rho(v_i)^a_i + 1e-9 (1 + rhs)`` for one tuple."""
    prod = np.ones(len(vecs[0]))
    for v, a in zip(vecs, alphas):
        prod = prod * v**a
    lhs = gauge_rho(prod, k)
    rhs = float(np.prod([gauge_rho(v, k) ** a for v, a in zip(vecs, alphas)]))
    return lhs > rhs + 1e-9 * (1.0 + rhs)


def trial_kyfan_sum_holds(mats, s: float, k: int) -> bool:
    """``|| |sum C_i|^s ||_(k) <= m^(s-1) sum || |C_i|^s ||_(k)`` within ``1e-9 (1 + |lhs| + |rhs|)``."""
    stack = np.asarray(mats)
    sv = np.linalg.svd(stack, compute_uv=False)
    total_sv = np.linalg.svd(stack.sum(axis=0), compute_uv=False)
    lhs = float(np.sum(np.sort(total_sv**s)[::-1][:k]))
    rhs = len(stack) ** (s - 1.0) * float(np.sum(np.sort(sv**s, axis=1)[:, ::-1][:, :k]))
    return lhs <= rhs + 1e-9 * (1.0 + abs(lhs) + abs(rhs))


def trial_discrete_average_majorization(c, atoms, weights, f, k: int, mode: str, form: str | None = None):
    """``(premise_holds, violated)`` of one majorization-average statement on a finite measure."""
    if form is None:
        form = "log" if mode in ("weak_log", "log") else "linear"
    lam_c = np.linalg.eigvalsh(c)[::-1]
    lam_d = np.linalg.eigvalsh(np.asarray(atoms))[:, ::-1]
    w = np.asarray(weights)
    if mode in ("weak", "strong"):
        avg = np.sum(w[:, None] * lam_d, axis=0)
        tol = 1e-9 * (1.0 + max(np.max(np.abs(lam_c)), np.max(np.abs(avg))))
        premise, _ = majorizes_oracle(avg, lam_c, tol, total=mode == "strong")
    else:
        geo = np.exp(np.sum(w[:, None] * np.log(lam_d), axis=0))
        premise, _ = log_majorizes_oracle(geo, lam_c, total=mode == "log")

    def ky_fan(vals):
        return np.sum(np.sort(np.abs(f(vals)), axis=-1)[..., ::-1][..., :k], axis=-1)

    lhs = float(ky_fan(lam_c))
    norms = ky_fan(lam_d)
    if form == "linear":
        rhs = float(np.sum(w * norms))
    else:
        with np.errstate(divide="ignore"):
            rhs = float(np.exp(np.sum(w * np.log(norms))))
    conclusion = lhs <= rhs + 1e-9 * (1.0 + abs(lhs) + abs(rhs))
    return premise, premise and not conclusion


def _trial_power_product(cs, quad):
    """Spectra of one tuple, its two node rules' singular values and its ``|f|`` interval.

    The node singular values are those of the eigenbasis chain
    ``Λ_1 W_1 Λ_2^(1+it) W_2 ⋯ W_(m-1) Λ_m`` (``W_i = U_i^H U_(i+1)``), built
    one tuple at a time in the batched code's order of operations.
    """
    specs = []
    for c in cs:
        vals, vecs = np.linalg.eigh(c)
        specs.append((vals[::-1].copy(), vecs[:, ::-1].copy()))
    rules = []
    for node_count in (quad.node_count, max(16, quad.node_count // 2)):
        t, w = quad.nodes_weights(node_count)
        dim = specs[0][1].shape[0]
        chain = (specs[0][0][:, None] * np.eye(dim))[None]
        for i in range(1, len(specs)):
            (_, u_prev), (vals, u) = specs[i - 1], specs[i]
            middle = i < len(specs) - 1
            scale = np.exp(np.multiply.outer(1.0 + 1j * t, np.log(vals))) if middle else vals[None]
            chain = (chain @ (u_prev.conj().T @ u)) * scale[:, None, :]
        gram = np.conj(np.transpose(chain, (0, 2, 1))) @ chain
        gram = (gram + np.conj(np.transpose(gram, (0, 2, 1)))) / 2.0
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[:, ::-1], 0.0, None))
        rules.append((np.broadcast_to(sv, (t.size, dim)), math.pi / (4.0 * np.cosh(math.pi * t / 2.0) ** 2), w))
    interval = (float(np.prod([v[-1] for v, _ in specs])), float(np.prod([v[0] for v, _ in specs])))
    return specs, rules, interval


def _trial_forms(f, k: int, cs, quad):
    """``(lhs, (log value, log error bound), (linear value, linear error bound))`` of one tuple."""
    specs, rules, (lo, hi) = _trial_power_product(cs, quad)
    # the left side from its own second eigendecomposition, as the former code did
    total = 0
    for c in cs:
        vals, vecs = np.linalg.eigh(c)
        vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
        total = total + (vecs * np.log(vals)) @ vecs.conj().T
    lhs = float(np.sum(np.sort(np.abs(f(np.exp(np.linalg.eigvalsh(total)))))[::-1][:k]))

    xs = np.geomspace(max(lo, 1e-300), max(hi, 1e-300), 512)
    vals = np.abs(f(xs))
    f_lo, f_hi = float(vals.min()), float(vals.max())
    tail = 1.0 - math.tanh(math.pi * quad.truncation / 2.0)

    def integral(form):
        sums = []
        for sv, density, w in rules:
            norms = np.sum(np.sort(np.abs(f(sv)), axis=1)[:, ::-1][:, :k], axis=1)
            sums.append(float(np.sum(form(norms) * density * w)))
        full, half = sums
        return full, abs(full - half) + 1e-12 * (1.0 + abs(full))

    # numpy's exp and expm1, like the batched code: math's may differ in the last bit
    log_int, log_err = integral(np.log)
    m_log = max(abs(np.log(k * f_lo)) if f_lo > 0 else np.inf, abs(np.log(k * f_hi)))
    value = float(np.exp(log_int))
    log_bound = value * float(np.expm1(min(m_log * tail + log_err, 700.0)))
    lin_int, lin_err = integral(lambda norms: norms)
    return lhs, (value, log_bound), (lin_int, k * f_hi * tail + lin_err)


def trial_multivariate_violations(cs, k: int, fs, quad) -> tuple[int, int]:
    """Log- and linear-form violations of one positive tuple over ``fs``."""
    log_bad = lin_bad = 0
    for f in fs:
        lhs, (value, bound), (lin, lin_bound) = _trial_forms(f, k, cs, quad)
        slack = 1e-8 * (1.0 + abs(lhs))
        log_bad += int(not lhs <= value + bound + slack)
        lin_bad += int(not lhs <= lin + lin_bound + slack)
    return log_bad, lin_bad


def trial_commuting_equality_excess(cs, k: int, fs, quad) -> float:
    """Worst ``|lhs - rhs_log| - (error_bound + 1e-7 (1 + |lhs|))`` of one tuple over ``fs``."""
    excess = -math.inf
    for f in fs:
        lhs, (value, bound), _ = _trial_forms(f, k, cs, quad)
        excess = max(excess, abs(lhs - value) - (bound + 1e-7 * (1.0 + abs(lhs))))
    return excess


def premise_trial_draws(rng, mode: str, n_atoms: int, dim: int):
    """The draws of one constructed-premise trial after its atom basis: ``(spectra, weights, z, f)``.

    In order: ``n_atoms`` atom spectra (``commuting_spectra`` on [0.3, 3]
    for the log modes, [-2, 3] otherwise), Dirichlet weights, the Ginibre
    matrix of C's basis and ``f`` from ``TRIAL_FUNCTIONS[mode]``.  The
    runner's former one-trial-at-a-time draw, kept for criterion 5.
    """
    spectra = commuting_spectra(rng, n_atoms, dim, 0.3 if mode in LOG_MODES else -2.0, 3.0)
    w = rng.dirichlet(np.ones(n_atoms))
    z = ginibre(rng, dim)
    fs = TRIAL_FUNCTIONS[mode]
    return spectra, w, z, fs[int(rng.integers(len(fs)))]
