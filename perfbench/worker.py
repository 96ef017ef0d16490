"""One pass of one workload in a fresh process.

Started by ``run.py``; prints one JSON object as its last line:

    python3 perfbench/worker.py --root . --workload rc-curve --seed 1 \
        [--trace] [--extras cli,parallel,n2] [--setup-only]

It times ``import freqchan`` from ``<root>/src``, runs the workload's
timed pass, and checks the results.  With ``--trace`` the pass runs with
the tracer installed and the output carries per-layer metrics.  The
extras are checks that run after the timed pass, outside every timed span.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings

# Standard library only before the clock starts on ``import freqchan``.
import timing
import tracer
import workloads

MODULES = ("special_fn", "optimize", "rc_bounds", "ex_bounds", "baselines",
           "channel", "cli")
EXTRAS = ("cli", "parallel", "n2")
TMP_DIR = ".perfbench_tmp"


def _module(name: str):
    try:
        return importlib.import_module(f"freqchan.{name}")
    except ImportError:
        return None


def _span(start: tuple[float, float], end: tuple[float, float]) -> list:
    """[wall start, wall end, CPU seconds] between two stamps."""
    return [start[0], end[0], end[1] - start[1]]


def _import_freqchan(root: str) -> list:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = timing.stamp()
    import freqchan
    end = timing.stamp()
    where = os.path.realpath(freqchan.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported freqchan from {where}, not from {src}")
    return _span(start, end)


def run_pass(args) -> dict:
    setup = _import_freqchan(args.root)
    out: dict = {"setup_span": setup}
    if args.setup_only:
        return out
    begin = time.perf_counter()
    timer = timing.Timer()
    fc = {name: _module(name) for name in MODULES}
    trace = tracer.Tracer(fc) if args.trace else None
    if trace:
        trace.install()
    inputs = workloads.make_inputs(args.workload, args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        timed = workloads.PASSES[args.workload](fc, inputs, bool(trace),
                                                timer)
    out["pass_s"] = setup[1] - setup[0] + time.perf_counter() - begin
    out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
    results = timer.results
    out["result_spans"] = [_span(a, b) for a, b in results]
    out["rates"] = timed.get("rates", {})
    out["checks"] = workloads.pass_checks(args.workload, timed["outputs"])

    if trace:
        layers = trace.layer_metrics()
        ex_out = timed["outputs"]
        layers["rc_bounds.cap_warnings"] = sum(
            w.category.__name__ == "CapWarning" for w in caught)
        layers["ex_bounds.rho_capped"] = sum(
            p[3] for p in ex_out["points"] + ex_out["second"]
        ) if args.workload == "ex-curve" else 0
        out["layers"] = layers
        out["absent"] = trace.absent
        t0 = trace.spans[0][3] if trace.spans else 0
        out["spans"] = [[sid, parent, name, (a - t0) / 1e9, (b - t0) / 1e9]
                        for sid, parent, name, a, b in sorted(trace.spans)]
        trace.reset()

    extras = [e for e in args.extras.split(",") if e]
    if "parallel" in extras:
        found, out["parallel_speedup"] = workloads.parallel_check(
            fc, inputs, timed, results)
        out["checks"] += found
    if "n2" in extras:
        out["checks"] += workloads.enumeration_check(fc)
    if "cli" in extras:
        base = os.path.join(args.root, TMP_DIR)
        os.makedirs(base, exist_ok=True)
        tmpdir = tempfile.mkdtemp(dir=base)
        try:
            out["checks"] += workloads.cli_check(fc, args.workload, inputs,
                                                 timed, tmpdir)
        finally:
            shutil.rmtree(tmpdir)
            if not os.listdir(base):
                os.rmdir(base)
        if trace:
            out["layers"].update(trace.cli_metrics())
    if trace:
        trace.uninstall()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        default=workloads.WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--extras", default="",
                        help=f"comma-separated subset of {','.join(EXTRAS)}")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        out = run_pass(args)
    except Exception:  # reported to the runner as a failed check
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
