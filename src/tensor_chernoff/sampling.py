"""Random test tensors, deterministic in the supplied generator.

``haar_unitary`` and ``diagonal_in`` work on stacks: draw one trial at a time, build all at once.
"""

from __future__ import annotations

import numpy as np

from .tensors import HermitianTensor, Tensor, TensorShape


def random_tensor(shape: TensorShape, rng: np.random.Generator, scale: float = 1.0) -> Tensor:
    mat = rng.standard_normal((shape.unfold_rows, shape.unfold_cols))
    mat = mat + 1j * rng.standard_normal((shape.unfold_rows, shape.unfold_cols))
    return Tensor(shape, scale * mat / np.sqrt(2.0))


def random_hermitian(shape: TensorShape, rng: np.random.Generator, scale: float = 1.0) -> HermitianTensor:
    x = random_tensor(shape, rng, scale)
    return HermitianTensor(shape, (x.matrix + x.matrix.conj().T) / 2.0)


def random_positive(
    shape: TensorShape,
    rng: np.random.Generator,
    eig_low: float = 0.2,
    eig_high: float = 3.0,
) -> HermitianTensor:
    """Random Hermitian tensor with eigenvalues uniform in ``[eig_low, eig_high]``."""
    shape.require_square("random_positive")
    n = shape.unfold_rows
    u = random_unitary(shape, rng)
    vals = rng.uniform(eig_low, eig_high, size=n)
    return HermitianTensor(shape, diagonal_in(u.matrix, vals))


def ginibre(rng: np.random.Generator, n: int, *lead: int) -> np.ndarray:
    """A ``(*lead, n, n)`` stack of standard complex normals: the input of ``haar_unitary``.

    One ``standard_normal`` call; each matrix draws its real parts, then its imaginary parts.
    """
    z = rng.standard_normal((*lead, 2, n, n))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def haar_unitary(z: np.ndarray) -> np.ndarray:
    """``Q`` of the QR of each ``(..., n, n)`` matrix, columns phase-fixed by ``diag(R)``.

    On Ginibre input (``ginibre``) the result is Haar distributed.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def diagonal_in(u: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """``U diag(l) U^H`` for unitaries ``(..., d, d)`` and real spectra ``(..., d)``.

    Hermitian up to round-off; ``HermitianTensor`` or ``tensors.hermitian_part``
    validates and canonicalises it.
    """
    return (u * spectra[..., None, :]) @ np.conj(u).swapaxes(-1, -2)


def random_unitary(shape: TensorShape, rng: np.random.Generator) -> Tensor:
    """Haar-ish random unitary tensor via QR with phase-fixed diagonal."""
    shape.require_square("random_unitary")
    return Tensor(shape, haar_unitary(ginibre(rng, shape.unfold_rows)))


def random_bounded_hermitian(
    shape: TensorShape, rng: np.random.Generator, radius: float
) -> HermitianTensor:
    """Random Hermitian tensor rescaled to spectral norm exactly ``radius``."""
    h = random_hermitian(shape, rng)
    top = float(np.max(np.abs(np.linalg.eigvalsh(h.matrix))))
    if top == 0.0:
        return h
    return HermitianTensor(shape, h.matrix * (radius / top))
