"""Text-file reads and tensor serialization.

Every input file (config, edge list, manifest, tensor record) is read through
:func:`read_text`, so an unreadable or non-UTF-8 file is an ``ArgumentError``
naming the file rather than a traceback (a ``ConfigError`` for a config).

A tensor record is a self-describing JSON document::

    {
      "format": "tensor/1",
      "row_dims": [2, 3],
      "col_dims": [2, 3],
      "entries": [re_0, im_0, re_1, im_1, ...]
    }

``entries`` interleaves real and imaginary parts, row-major over the combined
index ``(i_1..i_M, j_1..j_N)``, which is exactly the row-major raveling of the
matrix unfolding.  Dims must be JSON integers and ``entries`` a flat list of
JSON numbers; nothing else is coerced.  JSON floats are written with full
``repr`` precision, so a round trip reproduces every entry bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ArgumentError, TensorChernoffError
from .tensors import Tensor, TensorShape

TENSOR_FORMAT = "tensor/1"


def tensor_to_record(x: Tensor) -> dict:
    flat = x.matrix.ravel()
    interleaved = np.empty(2 * flat.size, dtype=np.float64)
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    return {
        "format": TENSOR_FORMAT,
        "row_dims": list(x.shape.row_dims),
        "col_dims": list(x.shape.col_dims),
        "entries": interleaved.tolist(),
    }


def _json_list(record: dict, key: str, types: tuple[type, ...], what: str) -> list:
    value = record[key]
    # type() rather than isinstance(): JSON true/false load as bool, a subclass of int
    if not isinstance(value, list) or not all(type(x) in types for x in value):
        raise ArgumentError(f"tensor record {key} must be a flat list of {what}")
    return value


def tensor_from_record(record: dict) -> Tensor:
    if record.get("format") != TENSOR_FORMAT:
        raise ArgumentError(f"unsupported tensor record format: {record.get('format')!r}")
    shape = TensorShape(*(_json_list(record, key, (int,), "integers") for key in ("row_dims", "col_dims")))
    try:
        raw = np.asarray(_json_list(record, "entries", (int, float), "numbers"), dtype=np.float64)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ArgumentError(f"tensor record entries: {exc}") from exc
    if raw.size != 2 * shape.unfold_rows * shape.unfold_cols:
        raise ArgumentError(
            f"expected {2 * shape.unfold_rows * shape.unfold_cols} interleaved values, got {raw.size}"
        )
    flat = raw[0::2] + 1j * raw[1::2]
    return Tensor.from_entries(shape, flat)


def save_tensor(x: Tensor, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tensor_to_record(x)))


def read_text(path: str | Path, what: str, error: type[TensorChernoffError] = ArgumentError) -> str:
    """UTF-8 text of ``path``; a file that cannot be opened or decoded raises
    ``error`` naming it as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what} {path}: {reason}") from exc


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON object from ``path``; IO and parse errors name the file."""
    text = read_text(path, what)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ArgumentError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ArgumentError(f"{what} {path} is not a JSON object")
    return data


def load_tensor(path: str | Path) -> Tensor:
    try:
        return tensor_from_record(read_json_object(path, "tensor record"))
    except KeyError as exc:
        raise ArgumentError(f"tensor record {path} has no {exc} entry") from exc
