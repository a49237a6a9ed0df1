"""Deterministic random-stream derivation.

Two kinds of stream, both addressed by a master seed:

* ``stream(seed, DOMAIN_SUITE, suite_id)`` for suite-level draws,
  ``stream(seed, DOMAIN_TENSORS)`` (one ``standard_normal((2, n, d, d))``
  holds every vertex tensor's real part, then every imaginary part; stamped
  as :data:`TENSOR_STREAM`), ``DOMAIN_GRAPH`` and ``DOMAIN_PROBE`` (the
  contraction certificate's Lanczos start): PCG64 seeded by ``SeedSequence``
  with the key path as ``spawn_key``, independent and reproducible.
* Monte Carlo walks read counter-addressed Philox4x64-10 words
  (:func:`counter_words`), so their seed must be in ``[0, 2^64)``: key
  ``(seed, DOMAIN_WALK)``, and walk ``i`` takes its ``b``-th block of four
  words from counter ``(i, b, 0, 0)``.  Walk ``i`` depends only on ``(seed,
  i)``, so any chunking reproduces it bit for bit.  A chunk reads one block
  at a time: ``counter_words`` returns block ``b`` of every walk in it as a
  ``(count, 4)`` array, one ``random_raw`` call, and word ``4b + c`` of a walk
  is column ``c`` of block ``b``.
  :data:`WALK_STREAM` names this layout and is stamped in reports.
* The ``inequalities`` suite stream (:data:`INEQUALITY_STREAM`, stamped in
  reports) draws its checks in stacks, in this order: Hölder, Ky Fan,
  discrete majorization, multivariate, commuting.  Each first draws every
  shape parameter of all its trials, one call each in the order listed
  (``k`` takes an array ``high``); then, per shape group in ascending key
  order with its trials in draw order, one call per array quantity at the
  group's full size, a trial with fewer vectors, matrices or atoms padded
  to the group's largest:

  - Hölder: n, r, k; per r: ``uniform(0, 4)`` vectors ``(g, n, r)``, sorted
    descending, and ``(g, n)`` standard exponentials;
  - Ky Fan: dim, m, k, s; per dim: Ginibre ``(g, m, d, d)``;
  - discrete majorization: dim, mode, atom count, k, f index; per dim:
    Ginibre ``(g, 2, d, d)`` (atom basis, then C's basis), ``(g, a, d)``
    ``random`` values ``u`` (atom spectra ``lo + (3 - lo) u``, sorted
    descending) and ``(g, a)`` standard exponentials;
  - multivariate: dim, m, k, f index; per ``(dim, m)``: Ginibre
    ``(g, m, d, d)`` and ``uniform(0.2, 3)`` spectra ``(g, m, d)``;
  - commuting: dim, k; per dim: Ginibre ``(g, d, d)`` and ``uniform(0.3,
    2.5)`` spectra ``(g, 2, d)``, sorted descending.

  Dirichlet(1, ..., 1) weights are the exponentials normalized over the
  trial's own entries, 0 on the padding.

Words become integers in ``[0, bound)`` by multiply-high (Lemire, TOMACS
2019): ``floor(w * bound / 2^64)``.  Each value's probability is within
``2^-64`` of ``1 / bound``, a bias of at most ``bound / 2^64`` in total.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError

DOMAIN_SUITE = 1
DOMAIN_WALK = 2
DOMAIN_TENSORS = 3
DOMAIN_GRAPH = 4
DOMAIN_PROBE = 5

WALK_STREAM = "philox4x64-10/1"
TENSOR_STREAM = "pcg64-stack/1"
INEQUALITY_STREAM = "pcg64-trial-stacks/1"
SEED_LIMIT = 1 << 64  # a master seed is one 64-bit Philox key word
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the stream addressed by ``(master_seed, *key)``."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


def counter_words(master_seed: int, domain: int, start: int, count: int, block: int) -> np.ndarray:
    """``(count, 4)`` uint64 Philox4x64-10 words under key ``(master_seed, domain)``.

    Row ``r`` is the block at counter ``(start + r, block, 0, 0)``.  numpy increments the 256-bit
    counter before each block, so the generator is set one below ``(start, block, 0, 0)``.
    """
    if not 0 <= master_seed < SEED_LIMIT:
        raise ArgumentError(f"seed must be in [0, 2^64), got {master_seed}")
    if start < 0:
        raise ArgumentError(f"start index must be >= 0, got {start}")
    key = np.array([master_seed, domain], dtype=np.uint64)
    gen = np.random.Philox(key=key, counter=((block << 64) + start - 1) % (1 << 256))
    return gen.random_raw(4 * count).reshape(count, 4)


def multiply_high(words: np.ndarray, bound: int) -> np.ndarray:
    """``floor(w * bound / 2^64)`` for each uint64 word: exact, in ``[0, bound)``.

    The 128-bit product is split on the 32-bit limbs of ``w``; with ``bound <
    2^32`` no partial sum overflows 64 bits.
    """
    if not 1 <= bound < 1 << 32:
        raise ArgumentError(f"range bound must be in [1, 2^32), got {bound}")
    b = np.uint64(bound)
    words = np.asarray(words, dtype=np.uint64)
    high = words >> _SHIFT32
    high *= b
    low = words & _LOW32
    low *= b
    low >>= _SHIFT32
    high += low
    high >>= _SHIFT32
    return high.view(np.int64)  # every value is below 2^32, so the bits read the same
