"""Experiment configuration: flat key-value text with sections.

The grammar is INI as read by :mod:`configparser`: ``[section]`` headers,
``key = value`` lines, ``#`` comments.  Lists are whitespace-separated.  The
full key table lives in the README; unknown sections or keys are rejected so
typos fail loudly with a section/key diagnostic.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

SUITES = ("tensor_props", "inequalities", "expander", "chernoff_sweep")
GRAPH_KINDS = ("complete", "cycle", "hypercube", "random_regular", "file")

_KNOWN_KEYS = {
    "experiment": {"suite", "seed", "workers", "trials"},
    "graph": {"kind", "n", "dim", "degree", "path", "graph_seed"},
    "tensors": {"source", "row_dims", "radius", "manifest"},
    "poly": {"coefficients", "power"},
    "walk": {"kappa", "k", "num_walks"},
    "sweep": {"theta_grid"},
    "quadrature": {"truncation", "nodes"},
    "domination": {"window", "sigma_grid"},
}


@dataclass(frozen=True)
class GraphSpec:
    kind: str = "complete"
    n: int = 4
    dim: int = 3
    degree: int = 4
    path: str = ""
    graph_seed: int | None = None


@dataclass(frozen=True)
class TensorSpec:
    source: str = "random"  # "random" or "manifest"
    row_dims: tuple[int, ...] = (2,)
    radius: float = 1.0
    manifest: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str = "tensor_props"
    seed: int = 2024
    workers: int = 1
    trials: int = 400
    graph: GraphSpec = field(default_factory=GraphSpec)
    tensors: TensorSpec = field(default_factory=TensorSpec)
    poly_coefficients: tuple[float, ...] = (0.0, 1.0)
    poly_power: float = 1.0
    kappa: int = 8
    k: int = 1
    num_walks: int = 20000
    theta_grid: tuple[float, ...] = (8.0, 16.0, 24.0, 32.0, 40.0)
    quad_truncation: float = 6.0
    quad_nodes: int = 256
    domination_window: float = 6.0
    sigma_grid: tuple[float, ...] = (0.7, 1.0, 1.5, 2.0, 3.0)

    def echo(self) -> dict:
        """Flat ``section.key`` mapping recorded in reports for replay."""
        return {
            "experiment.suite": self.suite,
            "experiment.seed": self.seed,
            "experiment.workers": self.workers,
            "experiment.trials": self.trials,
            "graph.kind": self.graph.kind,
            "graph.n": self.graph.n,
            "graph.dim": self.graph.dim,
            "graph.degree": self.graph.degree,
            "graph.path": self.graph.path,
            "graph.graph_seed": self.graph.graph_seed,
            "tensors.source": self.tensors.source,
            "tensors.row_dims": list(self.tensors.row_dims),
            "tensors.radius": self.tensors.radius,
            "tensors.manifest": self.tensors.manifest,
            "poly.coefficients": list(self.poly_coefficients),
            "poly.power": self.poly_power,
            "walk.kappa": self.kappa,
            "walk.k": self.k,
            "walk.num_walks": self.num_walks,
            "sweep.theta_grid": list(self.theta_grid),
            "quadrature.truncation": self.quad_truncation,
            "quadrature.nodes": self.quad_nodes,
            "domination.window": self.domination_window,
            "domination.sigma_grid": list(self.sigma_grid),
        }


def _get(parser, section, key, cast, default, errors):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ConfigError as exc:
        errors.append(f"[{section}] {key}: {exc}, got {raw!r}")
        return default
    except (ValueError, TypeError):
        errors.append(f"[{section}] {key}: cannot parse {raw!r}")
        return default


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split())


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError("values must be finite")
    return value


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(_float(x) for x in raw.split())


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"unknown key {key!r} in [{section}]")

    suite = _get(parser, "experiment", "suite", str, "tensor_props", errors)
    if suite not in SUITES:
        errors.append(f"[experiment] suite must be one of {SUITES}, got {suite!r}")
    seed = _get(parser, "experiment", "seed", int, 2024, errors)
    workers = _get(parser, "experiment", "workers", int, 1, errors)
    trials = _get(parser, "experiment", "trials", int, 400, errors)
    if workers < 1:
        errors.append(f"[experiment] workers must be >= 1, got {workers}")
    if trials < 1:
        errors.append(f"[experiment] trials must be >= 1, got {trials}")

    kind = _get(parser, "graph", "kind", str, "complete", errors)
    if kind not in GRAPH_KINDS:
        errors.append(f"[graph] kind must be one of {GRAPH_KINDS}, got {kind!r}")
    graph = GraphSpec(
        kind=kind,
        n=_get(parser, "graph", "n", int, 4, errors),
        dim=_get(parser, "graph", "dim", int, 3, errors),
        degree=_get(parser, "graph", "degree", int, 4, errors),
        path=_get(parser, "graph", "path", str, "", errors),
        graph_seed=_get(parser, "graph", "graph_seed", int, None, errors),
    )
    if kind == "file":
        if not graph.path:
            errors.append("[graph] kind=file needs path")
        elif not Path(graph.path).exists():
            errors.append(f"[graph] path {graph.path!r} does not exist")

    source = _get(parser, "tensors", "source", str, "random", errors)
    if source not in ("random", "manifest"):
        errors.append(f"[tensors] source must be 'random' or 'manifest', got {source!r}")
    tensors = TensorSpec(
        source=source,
        row_dims=_get(parser, "tensors", "row_dims", _int_list, (2,), errors),
        radius=_get(parser, "tensors", "radius", _float, 1.0, errors),
        manifest=_get(parser, "tensors", "manifest", str, "", errors),
    )
    if source == "manifest":
        if not tensors.manifest:
            errors.append("[tensors] source=manifest needs manifest")
        elif not Path(tensors.manifest).exists():
            errors.append(f"[tensors] manifest {tensors.manifest!r} does not exist")
    if tensors.radius <= 0:
        errors.append(f"[tensors] radius must be positive, got {tensors.radius}")

    coeffs = _get(parser, "poly", "coefficients", _float_list, (0.0, 1.0), errors)
    power = _get(parser, "poly", "power", _float, 1.0, errors)
    if any(c < 0 for c in coeffs):
        errors.append(f"[poly] coefficients must be nonnegative, got {coeffs}")
    if power < 1:
        errors.append(f"[poly] power must be >= 1, got {power}")

    kappa = _get(parser, "walk", "kappa", int, 8, errors)
    k = _get(parser, "walk", "k", int, 1, errors)
    num_walks = _get(parser, "walk", "num_walks", int, 20000, errors)
    if kappa < 1:
        errors.append(f"[walk] kappa must be >= 1, got {kappa}")
    if k < 1:
        errors.append(f"[walk] k must be >= 1, got {k}")
    if num_walks < 1:
        errors.append(f"[walk] num_walks must be >= 1, got {num_walks}")

    theta_grid = _get(parser, "sweep", "theta_grid", _float_list, (8.0, 16.0, 24.0, 32.0, 40.0), errors)
    if any(t <= 0 for t in theta_grid):
        errors.append(f"[sweep] theta_grid must be positive, got {theta_grid}")

    quad_truncation = _get(parser, "quadrature", "truncation", _float, 6.0, errors)
    quad_nodes = _get(parser, "quadrature", "nodes", int, 256, errors)
    if quad_truncation <= 0:
        errors.append(f"[quadrature] truncation must be positive, got {quad_truncation}")
    if quad_nodes < 16:
        errors.append(f"[quadrature] nodes must be >= 16, got {quad_nodes}")

    window = _get(parser, "domination", "window", _float, 6.0, errors)
    sigma_grid = _get(parser, "domination", "sigma_grid", _float_list, (0.7, 1.0, 1.5, 2.0, 3.0), errors)
    if window <= 0:
        errors.append(f"[domination] window must be positive, got {window}")
    if any(s <= 0 for s in sigma_grid):
        errors.append(f"[domination] sigma_grid must be positive, got {sigma_grid}")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    return ExperimentConfig(
        suite=suite,
        seed=seed,
        workers=workers,
        trials=trials,
        graph=graph,
        tensors=tensors,
        poly_coefficients=coeffs,
        poly_power=power,
        kappa=kappa,
        k=k,
        num_walks=num_walks,
        theta_grid=theta_grid,
        quad_truncation=quad_truncation,
        quad_nodes=quad_nodes,
        domination_window=window,
        sigma_grid=sigma_grid,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    return parse_config(p.read_text())
