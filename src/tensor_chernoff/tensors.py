"""Dense complex tensors under the Einstein product.

A tensor of shape ``(I_1, ..., I_M) x (J_1, ..., J_N)`` is stored through its
square-matrix unfolding: the multi-index ``(i_1, ..., i_M)`` is flattened
row-major to a row index and ``(j_1, ..., j_N)`` to a column index.  Under
this unfolding the Einstein product (contraction of the trailing index group
of the left factor with the leading index group of the right factor) is plain
matrix multiplication, so every spectral operation acts on an ordinary
Hermitian matrix and the algebra is exact up to floating round-off.

Tolerances follow the package-wide convention: ``HERM_TOL_SCALE * fro_norm``
for hermiticity and ``RANK_TOL_SCALE * max_abs_eigenvalue`` for numerical
rank.

All values are immutable after construction; the underlying numpy buffers are
marked read-only, so a tensor can be shared without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError, NumericalError, ShapeError

HERM_TOL_SCALE = 1e-10
RANK_TOL_SCALE = 1e-10


def _as_dims(dims: Iterable[int], label: str) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ShapeError(f"{label} must contain at least one dimension")
    if any(d < 1 for d in out):
        raise ShapeError(f"{label} must be positive integers, got {out}")
    return out


@dataclass(frozen=True)
class TensorShape:
    """Paired index groups ``(I_1..I_M) x (J_1..J_N)`` of a tensor."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __init__(self, row_dims: Iterable[int], col_dims: Iterable[int]):
        object.__setattr__(self, "row_dims", _as_dims(row_dims, "row_dims"))
        object.__setattr__(self, "col_dims", _as_dims(col_dims, "col_dims"))

    @property
    def unfold_rows(self) -> int:
        return math.prod(self.row_dims)

    @property
    def unfold_cols(self) -> int:
        return math.prod(self.col_dims)

    @property
    def is_square(self) -> bool:
        return self.row_dims == self.col_dims

    def require_unfolding(self, mat: np.ndarray) -> None:
        if mat.shape != (self.unfold_rows, self.unfold_cols):
            raise ShapeError(f"unfolding must be {self.unfold_rows} x {self.unfold_cols}, got {mat.shape}")

    def require_square(self, op: str) -> None:
        if not self.is_square:
            raise ShapeError(f"{op} requires a square shape, got {self.row_dims} x {self.col_dims}")

    @staticmethod
    def square(dims: Iterable[int]) -> "TensorShape":
        d = tuple(dims)
        return TensorShape(d, d)


class Tensor:
    """Immutable dense complex tensor backed by its matrix unfolding."""

    __slots__ = ("shape", "matrix")

    def __init__(self, shape: TensorShape, matrix: np.ndarray, *, copy: bool = True):
        mat = np.array(matrix, dtype=np.complex128, copy=copy)
        shape.require_unfolding(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor values are immutable")

    @classmethod
    def from_entries(cls, shape: TensorShape, entries: np.ndarray | Sequence) -> "Tensor":
        """Build from entries given row-major over ``(i_1..i_M, j_1..j_N)``."""
        arr = np.asarray(entries, dtype=np.complex128)
        expected = shape.unfold_rows * shape.unfold_cols
        if arr.size != expected:
            raise ShapeError(f"expected {expected} entries, got {arr.size}")
        return cls(shape, arr.reshape(shape.unfold_rows, shape.unfold_cols))

    @property
    def entries(self) -> np.ndarray:
        """Entries as an ndarray indexed by ``row_dims + col_dims`` (read-only view)."""
        return self.matrix.reshape(self.shape.row_dims + self.shape.col_dims)

    @property
    def H(self) -> "Tensor":
        return conj_transpose(self)

    def __add__(self, other: "Tensor") -> "Tensor":
        _require_same_shape(self, other, "tensor addition")
        cls = HermitianTensor if isinstance(self, HermitianTensor) and isinstance(other, HermitianTensor) else Tensor
        return cls(self.shape, self.matrix + other.matrix)

    def __sub__(self, other: "Tensor") -> "Tensor":
        _require_same_shape(self, other, "tensor subtraction")
        cls = HermitianTensor if isinstance(self, HermitianTensor) and isinstance(other, HermitianTensor) else Tensor
        return cls(self.shape, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Tensor":
        s = complex(scalar)
        cls = HermitianTensor if isinstance(self, HermitianTensor) and s.imag == 0.0 else Tensor
        return cls(self.shape, self.matrix * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return einstein_product(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.shape, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={list(self.shape.row_dims)}x{list(self.shape.col_dims)})"


class HermitianTensor(Tensor):
    """Square tensor equal to its conjugate transpose.

    Construction goes through :func:`hermitian_part`: it rejects non-finite
    entries, checks hermiticity within ``HERM_TOL_SCALE * fro_norm`` and
    stores the canonical Hermitian part ``(X + X^H) / 2``.
    """

    def __init__(self, shape: TensorShape, matrix: np.ndarray, *, copy: bool = True):
        shape.require_square("HermitianTensor")
        mat = np.asarray(matrix, dtype=np.complex128)
        shape.require_unfolding(mat)
        super().__init__(shape, hermitian_part(mat), copy=False)


def hermitian_part(mats: np.ndarray) -> np.ndarray:
    """``(X + X^H) / 2`` of each of the ``(..., d, d)`` matrices, after rejecting non-finite
    entries and any ``max |X - X^H|`` above ``HERM_TOL_SCALE`` times that matrix's own ``||X||_F``."""
    mats = np.asarray(mats, dtype=np.complex128)
    # entrywise: the Frobenius norm overflows for finite entries above ~1e154
    if not np.isfinite(mats).all():
        raise ArgumentError("Hermitian tensor entries must be finite (got NaN or inf)")
    adj = mats.conj().swapaxes(-1, -2)
    fro = np.linalg.norm(mats, axis=(-2, -1))
    dev = np.abs(mats - adj).max(axis=(-2, -1))
    bad = dev > HERM_TOL_SCALE * fro
    if bad.any():
        i = tuple(np.argwhere(bad)[0].tolist())  # the first such matrix's index, () for a single matrix
        where = f" {list(i)}" if i else ""
        raise ArgumentError(
            f"matrix{where} is not Hermitian within tolerance: deviation {dev[i]:.3e}, norm {fro[i]:.3e}"
        )
    return (mats + adj) / 2.0


def as_hermitian(x: Tensor) -> HermitianTensor:
    """Validate and canonicalize ``x`` as a Hermitian tensor."""
    if isinstance(x, HermitianTensor):
        return x
    return HermitianTensor(x.shape, x.matrix)


def _require_same_shape(x: Tensor, y: Tensor, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op} requires identical shapes, got {x.shape} and {y.shape}")


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def make_identity(shape: TensorShape) -> HermitianTensor:
    """Identity tensor: entries are products of Kronecker deltas."""
    shape.require_square("make_identity")
    return HermitianTensor(shape, np.eye(shape.unfold_rows, dtype=np.complex128))


def einstein_product(x: Tensor, y: Tensor) -> Tensor:
    """Contract the column group of ``x`` with the row group of ``y``."""
    if x.shape.col_dims != y.shape.row_dims:
        raise ShapeError(
            f"contracted dimensions mismatch: {x.shape.col_dims} vs {y.shape.row_dims}"
        )
    return Tensor(TensorShape(x.shape.row_dims, y.shape.col_dims), x.matrix @ y.matrix)


def conj_transpose(x: Tensor) -> Tensor:
    out = Tensor(TensorShape(x.shape.col_dims, x.shape.row_dims), x.matrix.conj().T)
    if out.shape.is_square and isinstance(x, HermitianTensor):
        return HermitianTensor(out.shape, out.matrix, copy=False)
    return out


def trace(x: Tensor) -> complex:
    x.shape.require_square("trace")
    return complex(np.trace(x.matrix))


def inner_product(x: Tensor, y: Tensor) -> complex:
    """``<X, Y> = Tr(X^H Y)``, the entrywise sesquilinear inner product."""
    _require_same_shape(x, y, "inner_product")
    return complex(np.vdot(x.matrix, y.matrix))


def _kron_dims(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # Same-length groups combine mode by mode (I_k * J_k); otherwise concatenate.
    if len(a) == len(b):
        return tuple(p * q for p, q in zip(a, b))
    return a + b


def kronecker(x: Tensor, y: Tensor) -> Tensor:
    """Kronecker product; its unfolding is the matrix Kronecker product."""
    shape = TensorShape(
        _kron_dims(x.shape.row_dims, y.shape.row_dims),
        _kron_dims(x.shape.col_dims, y.shape.col_dims),
    )
    mat = np.kron(x.matrix, y.matrix)
    if (
        shape.is_square
        and isinstance(x, HermitianTensor)
        and isinstance(y, HermitianTensor)
    ):
        return HermitianTensor(shape, mat, copy=False)
    return Tensor(shape, mat, copy=False)


def col_tensor(x: Tensor) -> Tensor:
    """Column tensor: the row-major vectorization of the unfolding.

    For a square tensor with mode sizes ``I_k`` the result has row dims
    ``I_k^2`` and a single column, matching the Kronecker convention
    ``kronecker(a, b) @ col_tensor(x) == col_tensor(a @ x @ transpose(b))``.
    """
    shape = TensorShape(_kron_dims(x.shape.row_dims, x.shape.col_dims), (1,))
    return Tensor(shape, x.matrix.reshape(-1, 1))


# ---------------------------------------------------------------------------
# Spectral machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Descending real eigenvalues with an orthonormal eigenbasis.

    ``basis`` holds the unitary unfolding whose columns pair with
    ``eigenvalues``; ``eigentensors`` exposes them as unit-norm column
    tensors.  ``herm_rank`` counts eigenvalues above the rank tolerance.
    """

    shape: TensorShape
    eigenvalues: np.ndarray
    basis: np.ndarray
    herm_rank: int

    @property
    def eigentensors(self) -> tuple[Tensor, ...]:
        col_shape = TensorShape(self.shape.row_dims, (1,))
        return tuple(
            Tensor(col_shape, self.basis[:, i].reshape(-1, 1))
            for i in range(self.basis.shape[1])
        )


def hermitian_eig(h: HermitianTensor) -> Spectrum:
    """Eigendecomposition of the Hermitian unfolding, eigenvalues descending."""
    h = as_hermitian(h)
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    top = float(np.max(np.abs(vals))) if vals.size else 0.0
    rank = int(np.count_nonzero(np.abs(vals) > RANK_TOL_SCALE * top)) if top > 0 else 0
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(shape=h.shape, eigenvalues=vals, basis=vecs, herm_rank=rank)


def _scalar_function_values(f: Callable, vals: np.ndarray) -> np.ndarray:
    """``f`` elementwise on an array of any shape, as one array call when ``f`` accepts arrays."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(f(vals), dtype=np.float64)
            if out.shape != vals.shape:
                raise TypeError
        except (TypeError, ValueError):
            out = np.asarray([float(f(float(v))) for v in vals.ravel()]).reshape(vals.shape)
    return out


def _apply_scalar_function(f: Callable, vals: np.ndarray) -> np.ndarray:
    """``f`` elementwise on an array of any shape; a non-finite value raises."""
    out = _scalar_function_values(f, vals)
    if not np.all(np.isfinite(out)):
        bad = vals[~np.isfinite(out)]
        raise DomainError(f"spectral function undefined at eigenvalues {bad}")
    return out


def spectral_map(h: HermitianTensor, f: Callable) -> HermitianTensor:
    """Apply a real scalar function to the spectrum: ``sum f(l_i) U_i U_i^H``."""
    spec = hermitian_eig(h)
    fvals = _apply_scalar_function(f, spec.eigenvalues)
    mat = (spec.basis * fvals) @ spec.basis.conj().T
    return HermitianTensor(h.shape, mat)


def tensor_exp(h: HermitianTensor) -> HermitianTensor:
    return spectral_map(h, np.exp)


def abs_tensor(x: Tensor) -> HermitianTensor:
    """``|X| = sqrt(X^H X) = V diag(s) V^H`` from the SVD ``X = U diag(s) V^H``.

    Its eigenvalues are the singular values of the unfolding, nonnegative by
    construction, so exact zeros stay at round-off of the largest value.
    """
    x.shape.require_square("abs_tensor")
    try:
        _, s, vh = np.linalg.svd(x.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - svd rarely fails
        raise NumericalError(f"singular value decomposition failed: {exc}") from exc
    return HermitianTensor(x.shape, (vh.conj().T * s) @ vh)


def complex_power(c: HermitianTensor, z: complex, delta: float = 0.0) -> Tensor:
    """``C^z`` through the principal real logarithm of the spectrum.

    ``delta >= 0`` applies the explicit shift ``C + delta I`` before the
    power; with the default ``delta = 0`` a nonpositive eigenvalue raises
    ``DomainError`` instead of being silently regularized.
    """
    if delta < 0:
        raise ArgumentError(f"delta must be >= 0, got {delta}")
    h = as_hermitian(c)
    spec = hermitian_eig(h)
    vals = spec.eigenvalues + delta
    if np.any(vals <= 0.0):
        raise DomainError(
            f"complex_power requires a positive spectrum, min eigenvalue {vals.min():.3e}"
        )
    powered = np.exp(complex(z) * np.log(vals))
    mat = (spec.basis * powered) @ spec.basis.conj().T
    if complex(z).imag == 0.0:
        return HermitianTensor(h.shape, mat, copy=False)
    return Tensor(h.shape, mat, copy=False)
