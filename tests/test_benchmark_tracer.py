"""The benchmark tracer still finds every function and method it wraps.

``perfbench/tracer.py`` wraps named functions of the package from outside;
renaming or deleting one of them would otherwise surface only when the
benchmark runs.  This test loads the tracer without editing it, installs it
and uninstalls it again.
"""

import importlib.util
from pathlib import Path

import tensor_chernoff.cli as cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_span():
    tracer_mod = _load_tracer()
    original_main = cli.main
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert set(tracer.binding_sites) == set(tracer_mod.SPAN_NAMES)
        assert all(sites >= 1 for sites in tracer.binding_sites.values())
        assert cli.main is not original_main
    finally:
        tracer.uninstall()
    assert cli.main is original_main
