"""Graph spectra, generators, and stationary-walk statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from tensor_chernoff import graphs, norms
from tensor_chernoff.chernoff import DEFAULT_TAIL_CHUNK
from tensor_chernoff.errors import ArgumentError
from tensor_chernoff.graphs import (
    RegularGraph,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random_regular,
    load_edge_list,
    sample_walks_array,
    save_edge_list,
    spectral_expansion,
)
from tensor_chernoff.rng import DOMAIN_WALK, counter_words, multiply_high

from oracles import (
    column_slot_mean,
    cycle_expansion,
    dense_spectral_expansion,
    loop_complete_adjacency,
    loop_cycle_adjacency,
    loop_edge_list_adjacency,
    loop_edge_list_text,
    loop_edge_slots,
    loop_hypercube_adjacency,
    loop_random_regular_adjacency,
    block_column_walks,
    reference_walk,
    row_major_walks,
    wide_counter_words,
)


def test_regular_graph_validation():
    with pytest.raises(ArgumentError, match="degrees must be equal, got 1 to 2"):
        RegularGraph(3, [0, 1], [1, 2])  # a path
    with pytest.raises(ArgumentError, match="n = 1"):
        RegularGraph(1, [0], [0])  # too small
    g = RegularGraph(2, [0, 0, 1], [0, 1, 1])  # a loop fills one slot of its vertex
    assert g.degree == 2 and g.edge_slots().tolist() == [[0, 1], [0, 1]]
    g = RegularGraph(2, [1, 0, 1], [0, 0, 1], [1, 2, 2])  # multiplicities, either end first
    assert g.degree == 3 and g.edge_slots().tolist() == [[0, 0, 1], [0, 1, 1]]
    assert g.adjacency.tolist() == [[2, 1], [1, 2]]
    for edges, match in ((([0.0], [1.0]), "1-D integer arrays"), (([[0]], [[1]]), "1-D integer arrays"),
                         (([0, 1], [1]), "of one length"), (([0, 1], [1, 0], [1]), "of one length"),
                         (([0], [2]), r"vertices in \[0, 2\)"), (([-1], [1]), r"vertices in \[0, 2\)"),
                         (([0], [1], [-1]), "nonnegative"), (([0], [1], [0]), "degree 0 must be >= 1")):
        with pytest.raises(ArgumentError, match=match):
            RegularGraph(2, *edges)


def test_normalized_adjacency():
    k2 = gen_complete(2)
    assert np.allclose(k2.adjacency / k2.degree, [[0, 1], [1, 0]])
    g = gen_random_regular(20, 4, seed=3)
    a = g.adjacency / g.degree
    assert np.allclose(a.sum(axis=1), 1.0)
    assert np.allclose(a, a.T)
    vals = np.linalg.eigvalsh(a)
    assert np.all(vals <= 1 + 1e-12) and np.all(vals >= -1 - 1e-12)


def test_known_expansions():
    assert spectral_expansion(gen_complete(4))[0] == pytest.approx(1 / 3, abs=1e-12)
    # circulant eigenvalue oracle: cos(2 pi j / 5)
    assert spectral_expansion(gen_cycle(5))[0] == pytest.approx(cycle_expansion(5), abs=1e-12)
    assert spectral_expansion(gen_cycle(5))[0] == pytest.approx(0.8090169943749475, abs=1e-12)
    # bipartite graphs are non-expanding under the absolute-value definition
    assert spectral_expansion(gen_cycle(4))[0] == pytest.approx(1.0, abs=1e-12)
    assert spectral_expansion(gen_hypercube(3))[0] == pytest.approx(1.0, abs=1e-12)


def test_expansion_certificate():
    g = gen_random_regular(30, 6, seed=11)
    lam = spectral_expansion(g)[0]
    a = g.adjacency / g.degree
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(g.n)
        x -= x.mean()  # orthogonal to the all-ones vector
        assert np.linalg.norm(a @ x) <= lam * np.linalg.norm(x) + 1e-9


@pytest.mark.parametrize("build", [lambda: gen_complete(2), lambda: gen_complete(4), lambda: gen_cycle(5),
                                   lambda: gen_cycle(6), lambda: gen_hypercube(3),
                                   lambda: gen_random_regular(16, 5, seed=0), lambda: gen_random_regular(256, 6, seed=1),
                                   lambda: gen_random_regular(2048, 6, seed=1), lambda: _looped_path(300)],
                         ids=["K2", "K4", "C5", "C6", "Q3", "rr16x5", "rr256x6", "rr2048x6", "P300"])
def test_slot_lanczos_expansion_matches_the_dense_oracle(build):
    # C6 and Q3 are bipartite (lambda = 1); rr16x5 has self-loops and multi-edges; P300 runs past the
    # dense tridiagonal size to n - 1 steps
    g = build()
    lam, residual, steps = spectral_expansion(g)
    assert abs(lam - dense_spectral_expansion(g)) <= 1e-12 and residual <= 1e-10, (lam, residual)
    assert 1 <= steps <= g.n - 1
    assert spectral_expansion(g) == (lam, residual, steps)  # the same bits again: a fixed start


@pytest.mark.parametrize("build", [lambda: gen_complete(12), lambda: gen_random_regular(16, 5, seed=0),
                                   lambda: gen_cycle(2), lambda: gen_random_regular(8192, 6, seed=7)],
                         ids=["K12", "rr16x5", "C2", "rr8192x6"])
def test_slot_mean_matches_the_column_loop_bit_for_bit(build):
    # K12's degree 11 would show a pairwise sum over the slots (numpy unrolls by 8, as a reduction to one entry
    # does), rr16x5 has loops and multi-edges, C2 is a double edge, rr8192x6's full means take the column loop;
    # every shape, single rows and the Gram chunks' row subsets, on either side of the one-gather size, over
    # twelve decades so that a change of order shows, with -0.0 entries, whose sign a sum from +0.0 would lose
    g = build()
    slots, rng = g.edge_slots(), np.random.default_rng(g.n)
    singles = [np.arange(i, i + 1) for i in range(min(g.n, 12))]
    for shape in ((), (16,), (16, 16)):
        x = rng.standard_normal((g.n,) + shape) * 10.0 ** rng.integers(-6, 6, (g.n,) + shape)
        x[rng.random(x.shape) < 0.2] = -0.0
        for rows in [np.arange(g.n), np.arange(g.n)[::3]] + singles + np.array_split(np.arange(g.n), min(8, g.n)):
            got, want = graphs._slot_mean(slots[rows], x), column_slot_mean(slots[rows], x)
            assert got.shape == want.shape and got.dtype == want.dtype, (shape, rows.size)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (shape, rows.size)
    # an order check that rests on no chance: 1 + 2^-53 rounds back to 1, so a sum slot by slot from a 1 stays 1
    # where a pairwise sum first adds two 2^-53 into one that 1 keeps
    x = np.full(g.n, 2.0**-53)
    x[0] = 1.0
    for rows in singles + [np.arange(g.n)]:
        assert np.array_equal(graphs._slot_mean(slots[rows], x), column_slot_mean(slots[rows], x)), rows.size
    x = rng.standard_normal(g.n)
    x[1] = np.nan  # reaches exactly the rows with a slot at vertex 1
    assert np.array_equal(np.isnan(graphs._slot_mean(slots, x)), np.any(slots == 1, axis=1))


def _looped_path(n: int) -> RegularGraph:
    """The path 0 - 1 - ... - n-1 with a loop at each end: 2-regular, lambda = cos(pi / n), slow to converge."""
    return RegularGraph(n, np.r_[0, n - 1, 0:n - 1], np.r_[0, n - 1, 1:n])


def test_slot_lanczos_checks_a_slow_graph_on_a_geometric_schedule(monkeypatch):
    # the odd cycle's top eigenvalue -cos(pi / n) is 4 pi^2 / n^2 from the next, so its Ritz pair converges
    # only after thousands of steps; the checks grow by half each (past norms.DENSE_TRIDIAGONAL by O(k)
    # bisection), so no k x k matrix is formed for k in the thousands (a dense lambda of C_8191 takes tens of seconds)
    sizes, top = [], norms._tridiagonal_top

    def recording(alphas, betas):
        sizes.append(len(alphas))
        return top(alphas, betas)

    monkeypatch.setattr(norms, "_tridiagonal_top", recording)
    lam, residual, steps = spectral_expansion(gen_cycle(8191))
    assert residual <= 1e-10 and abs(lam - math.cos(math.pi / 8191)) <= 1e-15, (lam, residual)
    schedule = [32]
    while schedule[-1] < steps:
        schedule.append(schedule[-1] + max(32, schedule[-1] // 2))
    assert sizes == schedule and len(sizes) <= 13 and steps < 8190, (sizes, steps)


def test_generators_basic():
    assert gen_cycle(5).degree == 2 and gen_cycle(5).n == 5
    assert gen_complete(4).degree == 3
    q3 = gen_hypercube(3)
    assert q3.n == 8 and q3.degree == 3
    with pytest.raises(ArgumentError):
        gen_random_regular(5, 3, seed=0)  # n*d odd
    with pytest.raises(ArgumentError, match="dim >= 1"):
        gen_hypercube(0)


def _assert_bytes(g, adj):
    """The slot table and the derived adjacency are the loop oracle's, dtype and bytes, and the arcs its
    nonzero cells in row-major order with their counts."""
    slots = g.edge_slots()
    assert slots.dtype == np.int64 and slots.tobytes() == loop_edge_slots(adj).tobytes()
    cells = np.flatnonzero(adj)
    keys, mult = g.arcs()
    assert keys.tolist() == cells.tolist() and mult.tolist() == adj.ravel()[cells].tolist()
    assert g.adjacency.dtype == np.int64 and g.adjacency.tobytes() == adj.tobytes()
    assert not slots.flags.writeable and not g.adjacency.flags.writeable


def test_generators_match_loop_oracles(tmp_path):
    for n in (2, 3, 4, 9):
        _assert_bytes(gen_complete(n), loop_complete_adjacency(n))
    for n in (2, 3, 4, 7, 16):
        _assert_bytes(gen_cycle(n), loop_cycle_adjacency(n))
    for dim in (1, 2, 3, 5):
        _assert_bytes(gen_hypercube(dim), loop_hypercube_adjacency(dim))
    # small n makes fixed points and repeated pairs, so self-loops and multi-edges occur
    loops = multi = 0
    for n, d in ((2, 1), (2, 3), (4, 2), (4, 3), (6, 5), (9, 4), (16, 5), (30, 7)):
        for seed in (0, 1, 17):
            adj = loop_random_regular_adjacency(n, d, seed)
            _assert_bytes(gen_random_regular(n, d, seed), adj)
            loops += int(np.trace(adj) > 0)
            multi += int(np.any(adj - np.diag(np.diag(adj)) > 1))
    assert loops > 0 and multi > 0
    loaded = tmp_path / "multi.txt"
    loaded.write_text(MULTIGRAPH)
    _assert_bytes(load_edge_list(loaded), loop_edge_list_adjacency(MULTIGRAPH))


def test_random_regular_determinism():
    g1 = gen_random_regular(50, 6, seed=1)
    g2 = gen_random_regular(50, 6, seed=1)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    g3 = gen_random_regular(50, 6, seed=2)
    assert not np.array_equal(g1.adjacency, g3.adjacency)
    assert g1.degree == 6
    # odd-degree multigraph with self-loops: slot rows repeat by multiplicity
    g = gen_random_regular(16, 5, seed=0)
    assert np.trace(g.adjacency) > 0 and np.any(g.adjacency - np.diag(np.diag(g.adjacency)) > 1)
    assert np.array_equal(g.edge_slots(), loop_edge_slots(g.adjacency))


# a loaded multigraph: self-loops of multiplicity 1 and 2 and double edges, d = 4
MULTIGRAPH = "4 4\n0 0 2\n0 1 2\n1 1 1\n1 2 1\n2 2 1\n2 3 2\n3 3 2\n"


def test_slot_table_and_edge_list_match_loop_oracles(tmp_path):
    loaded = tmp_path / "multi.txt"
    loaded.write_text(MULTIGRAPH)
    graphs = ([gen_complete(n) for n in (2, 4, 9)] + [gen_cycle(n) for n in (2, 7)]
              + [gen_hypercube(dim) for dim in (1, 5)]
              + [gen_random_regular(n, d, seed=1) for n, d in ((16, 6), (64, 5), (256, 6))]
              + [load_edge_list(loaded)])
    out = tmp_path / "g.txt"
    for g in graphs:
        slots = g.edge_slots()
        assert slots.dtype == np.int64 and np.array_equal(slots, loop_edge_slots(g.adjacency)), (g.n, g.degree)
        save_edge_list(g, out)
        assert out.read_text() == loop_edge_list_text(g), (g.n, g.degree)
    assert out.read_text() == MULTIGRAPH


def _build_peak(build):
    tracemalloc.start()
    try:
        g = build()
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_build_peak_memory():
    gen_random_regular(4, 3, seed=0)  # numpy.random's first import is not part of a build
    # a build holds its edge arrays, the arcs both ways and the arc keys, which are sorted into the slot
    # table in place: about 5.7 tables for the random regular graph (its loop multiplicities add a repeat),
    # 3.6 for K_n (its edges are half the table, plus triu_indices' n x n mask); the graph keeps only the table
    for build, tables in ((lambda: gen_random_regular(2048, 6, seed=1), 6.5), (lambda: gen_cycle(2048), 6.5),
                          (lambda: gen_hypercube(11), 6.5), (lambda: gen_complete(1024), 4.0)):
        g, peak = _build_peak(build)
        assert peak <= tables * g.edge_slots().nbytes, (g.n, g.degree, peak)
        assert [name for name, value in vars(g).items() if isinstance(value, np.ndarray)] == ["_slots"]
    # the largest n: 0.38 MiB of slots, about 2.2 MiB at the peak; its n x n adjacency alone is 512 MiB
    g, peak = _build_peak(lambda: gen_random_regular(8192, 6, seed=7))
    assert peak <= 16 * 2**20, peak
    assert spectral_expansion(g)[1] <= 1e-10  # and its lambda needs no n x n array either
    g = gen_cycle(5)
    assert g.adjacency is not g.adjacency and "adjacency" not in vars(g)  # counted on each read, never kept


def test_walk_on_k2_alternates():
    a, b, c = sample_walks_array(gen_complete(2), 3, 1, seed=9)[0]
    assert b == 1 - a and c == a


def test_walk_determinism_and_batch_consistency():
    g = gen_random_regular(12, 4, seed=5)
    w1 = sample_walks_array(g, 7, 1, seed=42, start_index=3)[0]
    w2 = sample_walks_array(g, 7, 1, seed=42, start_index=3)[0]
    assert tuple(w1) == tuple(w2) == reference_walk(g, 7, 42, 3)
    batch = sample_walks_array(g, 7, 6, seed=42)
    for i in range(6):
        assert tuple(batch[i]) == reference_walk(g, 7, 42, i)
    # chunked recomputation matches
    tail = sample_walks_array(g, 7, 3, seed=42, start_index=3)
    assert np.array_equal(batch[3:], tail)


@pytest.mark.parametrize("graph", [gen_complete(4), gen_cycle(7), gen_random_regular(256, 6, seed=3)],
                         ids=["K4", "C7", "rr256x6"])
def test_step_major_walks_equal_the_row_major_loop(graph):
    # one contiguous step row per take; the (num_walks, length) result stays writable, as callers write into it
    for length, num_walks, start in ((1, 5, 0), (8, 1000, 3), (13, 257, 2**40 + 5)):
        walks = sample_walks_array(graph, length, num_walks, seed=19, start_index=start)
        assert walks.shape == (num_walks, length) and walks.T.flags.c_contiguous and walks.flags.writeable
        assert np.array_equal(walks, row_major_walks(graph, length, num_walks, 19, start))


@pytest.mark.parametrize("graph", [gen_complete(4), gen_random_regular(64, 6, seed=3)], ids=["K4", "rr64x6"])
@pytest.mark.parametrize("length", [1, 3, 4, 5, 8, 9])
def test_block_at_a_time_walks_equal_the_former_sampler(graph, length):
    # one Philox block drawn and each word column converted per step row, against every word of the chunk
    # drawn and converted at once; the last two ranges cross the default tail chunk border
    for start, num_walks in ((0, 300), (DEFAULT_TAIL_CHUNK - 3, 7), (2 * DEFAULT_TAIL_CHUNK - 1, 2)):
        walks = sample_walks_array(graph, length, num_walks, seed=29, start_index=start)
        assert walks.dtype == np.int64 and walks.T.flags.c_contiguous and walks.flags.writeable
        assert np.array_equal(walks, block_column_walks(graph, length, num_walks, 29, start)), (start, num_walks)


@pytest.mark.parametrize("start", [0, 5, DEFAULT_TAIL_CHUNK - 2, 2**40 + 5, 2**64 - 3])
def test_counter_words_blocks_equal_the_wide_layout(start):
    # block b of every walk is columns 4b .. 4b + 3 of the former (count, 4 * blocks) array; at 2^64 - 3 the
    # walk counter word wraps inside the range and carries into the block word
    wide = wide_counter_words(61, DOMAIN_WALK, start, 6, 3)
    for b in range(3):
        got = counter_words(61, DOMAIN_WALK, start, 6, b)
        assert got.shape == (6, 4) and got.dtype == np.uint64
        assert np.array_equal(got, wide[:, 4 * b:4 * b + 4]), b


def test_batch_across_chunk_border_matches_one_batch(tmp_path):
    # 9 steps read three Philox blocks per walk; walks 8190..8193 straddle the
    # default tail chunk border.  A step reads slot v * d + step of the flat
    # slot table: the loaded multigraph repeats slots and has self-loops, K2 has
    # one slot per row
    loaded = tmp_path / "multi.txt"
    loaded.write_text(MULTIGRAPH)
    start = DEFAULT_TAIL_CHUNK - 2
    for g in (gen_random_regular(16, 5, seed=0), load_edge_list(loaded), gen_complete(2)):
        whole = sample_walks_array(g, 9, DEFAULT_TAIL_CHUNK + 2, seed=61)
        part = sample_walks_array(g, 9, 4, seed=61, start_index=start)
        assert np.array_equal(part, whole[start:])
        for i in range(4):
            assert tuple(whole[i]) == reference_walk(g, 9, 61, i), (g.n, i)
            assert tuple(part[i]) == reference_walk(g, 9, 61, start + i), (g.n, start + i)
        for length in (1, 4, 5):
            assert tuple(sample_walks_array(g, length, 1, seed=61, start_index=start)[0]) == \
                reference_walk(g, length, 61, start)


def test_multiply_high_matches_big_int():
    for bound in (1, 2, 3, 2**31 + 11, 2**32 - 1):
        # the first word of each output value and the word before it, where
        # the low limb's carry decides the result
        edges = [-(-(k << 64) // bound) - e for k in {1, bound // 2, bound - 1} if 0 < k < bound for e in (0, 1)]
        words = [0, 1, 2**32 - 1, 2**63, 2**64 - 1] + edges
        got = multiply_high(np.array(words, dtype=np.uint64), bound)
        assert got.tolist() == [(w * bound) >> 64 for w in words], bound


def test_walk_stream_ranges():
    g = gen_complete(4)
    for seed in (-1, 2**64):
        with pytest.raises(ArgumentError, match="seed"):
            sample_walks_array(g, 3, 2, seed=seed)
    with pytest.raises(ArgumentError, match="start"):
        sample_walks_array(g, 3, 2, seed=1, start_index=-1)
    with pytest.raises(ArgumentError, match="walk length"):
        sample_walks_array(g, 0, 2, seed=1)
    assert sample_walks_array(g, 3, 2, seed=2**64 - 1).shape == (2, 3)
    for bound in (0, 2**32):  # a graph this large cannot be stored densely
        with pytest.raises(ArgumentError, match="2\\^32"):
            multiply_high(np.zeros(1, dtype=np.uint64), bound)


def test_stationary_marginals():
    g = gen_complete(4)
    n_walks, length = 20000, 5
    walks = sample_walks_array(g, length, n_walks, seed=7)
    for j in (0, length // 2, length - 1):
        counts = np.bincount(walks[:, j], minlength=g.n)
        expected = n_walks / g.n
        sigma = np.sqrt(n_walks * (1 / g.n) * (1 - 1 / g.n))
        assert np.all(np.abs(counts - expected) <= 4 * sigma), (j, counts)


def test_initial_vertex_chi_square_100k_seeds():
    # kappa = 1: the start vertex over 1e5 walk counters is uniform; the
    # chi-square statistic stays within 3 sigma of its df = n-1 mean
    g = gen_cycle(5)
    n_walks = 100000
    starts = sample_walks_array(g, 1, n_walks, seed=23)[:, 0]
    counts = np.bincount(starts, minlength=g.n)
    expected = n_walks / g.n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    df = g.n - 1
    assert chi2 <= df + 3.0 * np.sqrt(2.0 * df), (chi2, counts)


def test_two_step_joint_distribution():
    g = gen_cycle(5)
    n_walks = 40000
    walks = sample_walks_array(g, 2, n_walks, seed=13)
    a = g.adjacency / g.degree
    joint = np.zeros((5, 5))
    for u, v in walks:
        joint[u, v] += 1
    joint /= n_walks
    expected = a / g.n  # uniform start times transition probability
    sigma = np.sqrt(expected * (1 - expected) / n_walks)
    assert np.all(np.abs(joint - expected) <= 4 * sigma + 1e-12)


def test_edge_list_roundtrip(tmp_path):
    loaded = tmp_path / "multi.txt"
    loaded.write_text(MULTIGRAPH)
    for g in (gen_complete(4), gen_cycle(2), gen_random_regular(10, 3, seed=4), gen_random_regular(16, 5, seed=0),
              load_edge_list(loaded)):
        p, again = tmp_path / "g.txt", tmp_path / "again.txt"
        save_edge_list(g, p)
        back = load_edge_list(p)
        assert back.edge_slots().tobytes() == g.edge_slots().tobytes()
        assert np.array_equal(back.adjacency, g.adjacency)
        assert back.degree == g.degree
        save_edge_list(back, again)
        assert again.read_bytes() == p.read_bytes()


def test_edge_list_rejects_irregular(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1 1\n1 2 1\n")
    with pytest.raises(ArgumentError):
        load_edge_list(p)
    for text in ("2 1\n0 1 x\n", "2 one\n0 1 1\n"):
        p.write_text(text)
        with pytest.raises(ArgumentError, match="integers"):
            load_edge_list(p)
    p.write_text("2 2\n0 1 1\n")  # a regular graph of degree 1 under a degree-2 header
    with pytest.raises(ArgumentError, match="header degree 2 does not match the edges' degree 1"):
        load_edge_list(p)
