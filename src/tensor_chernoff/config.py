"""Experiment configuration: flat key-value text with sections.

The grammar is INI as read by :mod:`configparser`: ``[section]`` headers,
``key = value`` lines, ``#`` comments.  Lists are whitespace-separated and
hold at least one value.  Each section is one frozen dataclass below whose
fields are the section's keys: a field's type casts the raw text, its default
fills an absent key, and its metadata holds the allowed range.  Unknown
sections or keys are rejected so typos fail loudly with a section/key
diagnostic.  Seeds must be >= 0, and the master seed below 2^64.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .inequalities import NODE_LIMIT
from .io import read_text
from .rng import SEED_LIMIT

SUITES = ("tensor_props", "inequalities", "expander", "chernoff_sweep")
GRAPH_KINDS = ("complete", "cycle", "hypercube", "random_regular", "file")


def _key(default, *, one_of=None, at_least=None, below=None, positive=False, nonnegative=False):
    """A config key's default and allowed range; a list's range holds for each entry.

    ``below`` is given as ``(limit, text)``: an exclusive upper bound and how
    the message spells it.
    """
    rules = []
    if one_of is not None:
        rules.append((one_of.__contains__, " or ".join(map(repr, one_of)) if len(one_of) <= 2 else f"one of {one_of}"))
    if at_least is not None:
        rules.append((lambda x: x >= at_least, f">= {at_least}"))
    if below is not None:
        rules.append((lambda x: x < below[0], f"< {below[1]}"))
    if positive:
        rules.append((lambda x: x > 0, "positive"))
    if nonnegative:
        rules.append((lambda x: x >= 0, "nonnegative"))
    return field(default=default, metadata={"rules": tuple(rules)})


@dataclass(frozen=True)
class ExperimentSection:
    suite: str = _key("tensor_props", one_of=SUITES)
    seed: int = _key(2024, at_least=0, below=(SEED_LIMIT, "2^64"))  # one 64-bit Philox key word
    workers: int = _key(1, one_of=(1,))  # the Monte Carlo is single-process; kept so older configs parse
    trials: int = _key(400, at_least=1)


@dataclass(frozen=True)
class GraphSpec:
    kind: str = _key("complete", one_of=GRAPH_KINDS)
    n: int = _key(4)
    dim: int = _key(3)
    degree: int = _key(4)
    path: str = _key("")
    graph_seed: int | None = _key(None, at_least=0)  # None: the master seed


@dataclass(frozen=True)
class TensorSpec:
    source: str = _key("random", one_of=("random", "manifest"))
    row_dims: tuple[int, ...] = _key((2,), positive=True)
    radius: float = _key(1.0, positive=True)
    manifest: str = _key("")


@dataclass(frozen=True)
class PolySection:
    coefficients: tuple[float, ...] = _key((0.0, 1.0), nonnegative=True)
    power: float = _key(1.0, at_least=1)


@dataclass(frozen=True)
class WalkSection:
    kappa: int = _key(8, at_least=1)
    k: int = _key(1, at_least=1)
    num_walks: int = _key(20000, at_least=1)


@dataclass(frozen=True)
class SweepSection:
    theta_grid: tuple[float, ...] = _key((8.0, 16.0, 24.0, 32.0, 40.0), positive=True)


@dataclass(frozen=True)
class QuadratureSection:
    truncation: float = _key(6.0, positive=True)
    nodes: int = _key(256, at_least=16, below=(NODE_LIMIT, str(NODE_LIMIT)))


@dataclass(frozen=True)
class DominationSection:
    window: float = _key(6.0, positive=True)
    sigma_grid: tuple[float, ...] = _key((0.7, 1.0, 1.5, 2.0, 3.0), positive=True)


@dataclass(frozen=True)
class ExperimentConfig:
    """One instance per INI section, named after it."""

    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    graph: GraphSpec = field(default_factory=GraphSpec)
    tensors: TensorSpec = field(default_factory=TensorSpec)
    poly: PolySection = field(default_factory=PolySection)
    walk: WalkSection = field(default_factory=WalkSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    quadrature: QuadratureSection = field(default_factory=QuadratureSection)
    domination: DominationSection = field(default_factory=DominationSection)

    def echo(self) -> dict:
        """Flat ``section.key`` mapping recorded in reports for replay."""
        return {
            f"{s.name}.{k.name}": list(v) if isinstance(v, tuple) else v
            for s in fields(self)
            for k in fields(getattr(self, s.name))
            for v in [getattr(getattr(self, s.name), k.name)]
        }


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError("values must be finite")
    return value


_CASTS = {
    "str": str,
    "int": int,
    "int | None": int,
    "float": _float,
    "tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.split()),
    "tuple[float, ...]": lambda raw: tuple(_float(x) for x in raw.split()),
}


def _parse_section(parser, name: str, cls, errors: list[str]):
    values = {}
    for key in fields(cls):
        if not parser.has_option(name, key.name):
            continue
        raw = parser.get(name, key.name)
        try:
            value = _CASTS[key.type](raw)
        except ConfigError as exc:
            errors.append(f"[{name}] {key.name}: {exc}, got {raw!r}")
            continue
        except (ValueError, TypeError):
            errors.append(f"[{name}] {key.name}: cannot parse {raw!r}")
            continue
        if value == ():
            errors.append(f"[{name}] {key.name} must list at least one value")
            continue
        for test, text in key.metadata["rules"]:
            if not all(map(test, value if isinstance(value, tuple) else [value])):
                errors.append(f"[{name}] {key.name} must be {text}, got {value!r}")
                break
        values[key.name] = value
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    sections = {s.name: s.default_factory for s in fields(ExperimentConfig)}
    errors: list[str] = []
    for section in parser.sections():
        if section not in sections:
            errors.append(f"unknown section [{section}]")
            continue
        known = {key.name for key in fields(sections[section])}
        errors.extend(f"unknown key {key!r} in [{section}]" for key in parser.options(section) if key not in known)

    cfg = ExperimentConfig(**{name: _parse_section(parser, name, cls, errors) for name, cls in sections.items()})

    graph, tensors = cfg.graph, cfg.tensors
    if graph.kind == "file":
        if not graph.path:
            errors.append("[graph] kind=file needs path")
        elif not os.path.exists(graph.path):
            errors.append(f"[graph] path {graph.path!r} does not exist")
    if tensors.source == "manifest":
        if not tensors.manifest:
            errors.append("[tensors] source=manifest needs manifest")
        elif not os.path.exists(tensors.manifest):
            errors.append(f"[tensors] manifest {tensors.manifest!r} does not exist")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(read_text(path, "config file", ConfigError))
