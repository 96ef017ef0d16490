"""The benchmark tracer must find every binding it wraps.

``perfbench/tracer.py`` wraps freqchan functions at the module names
their callers bind them under.  A stat whose every binding is gone is
reported as ``null`` in the benchmark's final JSON line, which the
benchmark reads as malformed output, so a refactor that drops such a
name (say ``ex_bounds.maximize_scalar``) must fail here first.  The
tracer is loaded from its file, never edited; one test installs it on
the real modules and takes it off again.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import freqchan.channel
import freqchan.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no __pycache__ beside the benchmark's files
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()
STATS = sorted({stat for _, _, stat, _ in tracer.BINDINGS})


def _resolves(module: str, attr: str) -> bool:
    """The tracer's rule: the binding exists on freqchan.<module>."""
    return getattr(importlib.import_module(f"freqchan.{module}"), attr,
                   None) is not None


@pytest.mark.parametrize("stat", STATS)
def test_every_stat_has_a_binding(stat):
    bindings = [(m, a) for m, a, s, _ in tracer.BINDINGS if s == stat]
    assert any(_resolves(m, a) for m, a in bindings), (
        f"no binding of {stat} resolves: {bindings}")


def test_substream_bindings_resolve():
    random_mod = freqchan.channel.np.random
    for attr, stat in tracer.SUBSTREAM_BINDINGS:
        assert getattr(random_mod, attr, None) is not None, stat


def test_cli_main_resolves():
    assert callable(getattr(freqchan.cli, "main", None))


def test_traced_search_takes_plain_arguments():
    # The tracer wraps maximize_scalar at rc_bounds' binding; the wrapper
    # must pass (objective, lo, hi) through, return the search's own
    # result, count the call and its objective evaluations, and put the
    # original back on uninstall.
    names = {m for m, _, _, _ in tracer.BINDINGS} | {"optimize"}
    modules = {n: importlib.import_module(f"freqchan.{n}") for n in names}
    rc_bounds = modules["rc_bounds"]
    original = rc_bounds.maximize_scalar
    seen = []

    def objective(t):
        seen.append(t)
        return -(t - 0.3) ** 2

    want = original(objective, 0.0, 1.0)
    evals = len(seen)
    trace = tracer.Tracer(modules)
    try:
        trace.install()
        assert rc_bounds.maximize_scalar is not original
        got = rc_bounds.maximize_scalar(objective, 0.0, 1.0)
        metrics = trace.layer_metrics()
    finally:
        trace.uninstall()
    assert got == want
    assert metrics["optimize.maximize_scalar.calls.rc_bounds"] == 1
    assert metrics["optimize.objective_evals.rc_bounds"] == evals
    assert rc_bounds.maximize_scalar is original
    assert freqchan.channel.np is np
