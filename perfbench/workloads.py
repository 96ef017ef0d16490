"""Workload inputs, the timed pass of each workload, and the untimed
extra checks.

Inputs come from ``--seed`` alone.  Non-anchor rates and sampling ratios
are drawn one per stratum of their range, so every seed puts the same
number of points in each part of the curve; the cost of a point depends
strongly on where it lies (an ex point costs 5 to 110 ms depending on R),
and stratifying keeps that mix, and so the run time, the same across seeds.

A pass calls freqchan only through module attributes looked up at call
time (``rc_bounds.rc_exponent``), which are the names the tracer wraps.
Standard library only at import; numpy is imported by the extra checks,
after the worker has timed ``import freqchan``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

import checks
import timing

WORKLOADS = ("rc-curve", "ex-curve", "mc-channel")

RC_EXTRA_RATES = 11          # stratified rates on [0, 2] besides the anchors
RC_RATE_SPAN = (0.0, 2.0)
RC_EXTRA_RATIOS = 3          # log-stratified r on [10, 2000] besides r = 400
RC_RATIO_SPAN = (10.0, 2000.0)
FIR_BUDGETS = (200.0, 1000.0)

EX_EXTRA_RATES = 40          # stratified rates on [0, 0.05] besides anchors
EX_RATE_SPAN = (0.0, 0.05)
EX_SECOND_R = 100.0
EX_SECOND_RATES = 4          # stratified rates on [0, 0.02] at the second r
EX_SECOND_SPAN = (0.0, 0.02)

# README configuration of the error simulator, then a small one where
# about half the trials are errors, then the divergence tail of
# acceptance criterion 04 at a smaller draw count.
M2 = dict(n=40, r=4.0, alpha=0.5, M=2, trials=20_000)
M256 = dict(n=10, r=1.0, alpha=0.5, M=256, trials=2_500)
KL = dict(n=100, r=4.0, alpha=0.5, mu=0.1, trials=12 * 4096)
# Acceptance criterion 09's exact small instance, at its fixed seed so
# that a pass repeats: a 3-SE test drawn afresh each run would fail one
# run in 370 with nothing wrong.
N2_SEED = 20260814
N2_CODEBOOKS = 2000
N2 = dict(n=2, r=2.0, alpha=0.5, M=2, trials=20_000)
CLI_SIM = dict(n=10, r=1.0, M=256, trials=1000)

RC_CSV_HEADER = "R,E_rc,E_ex,argmax_alpha,argmax_xi,argmax_rho,rho_capped"
SIM_CSV_HEADER = ("n,r,alpha,M,R,trials,seed,errors,eps_hat,"
                  "wilson_lo,wilson_hi,thm1_bound")


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "rc-curve":
        rates = set(checks.RC_ANCHORS)
        rates.update(_stratified(rng, *RC_RATE_SPAN, RC_EXTRA_RATES))
        lo, hi = (math.log10(v) for v in RC_RATIO_SPAN)
        ratios = {checks.RC_R}
        ratios.update(10.0 ** x for x in
                      _stratified(rng, lo, hi, RC_EXTRA_RATIOS))
        return {"rates": sorted(rates), "ratios": sorted(ratios)}
    if workload == "ex-curve":
        rates = set(checks.EX_ANCHORS)
        rates.update(_stratified(rng, *EX_RATE_SPAN, EX_EXTRA_RATES))
        second = _stratified(rng, *EX_SECOND_SPAN, EX_SECOND_RATES)
        return {"rates": sorted(rates), "second": second}
    if workload == "mc-channel":
        return {name: rng.randrange(2 ** 31) for name in ("m2", "m256", "kl")}
    raise ValueError(f"unknown workload {workload!r}")


# -- timed passes -----------------------------------------------------
# Each times every result in ``timer.result()`` and returns {"outputs":
# {...}} and, for mc-channel, "rates": work per wall-clock second of each
# estimator.


def rc_curve(fc, inputs: dict, traced: bool, timer: timing.Timer) -> dict:
    rc, base = fc["rc_bounds"], fc["baselines"]
    points, rows = [], []
    for rate in inputs["rates"]:
        with timer.result():
            pt = rc.rc_exponent(rc.BoundQuery(R=rate, r=checks.RC_R))
        points.append([rate, pt.E, pt.argmax.alpha, pt.argmax.xi])
    for r in inputs["ratios"]:
        with timer.result():
            row = [r, rc.rate_lower_bound(r), base.converse_rate(r)]
            row += [base.fir_rate(base.FirQuery(g=g, r=r))
                    for g in FIR_BUDGETS]
        rows.append(row)
    return {"outputs": {"points": points, "rows": rows}}


def ex_curve(fc, inputs: dict, traced: bool, timer: timing.Timer) -> dict:
    ex, query = fc["ex_bounds"], fc["rc_bounds"].BoundQuery
    if traced:
        # Cold and in this order, so that the first l_fn call isolates the
        # G table build and the first s_fn call the L table build.
        ex.f_kappa(0.5)
        ex.g_fn(0.8)
        ex.l_fn(0.8)
        ex.s_fn(checks.EX_R, 2.0)
    points, second = [], []
    for r, rates, out in ((checks.EX_R, inputs["rates"], points),
                          (EX_SECOND_R, inputs["second"], second)):
        for rate in rates:
            with timer.result():
                pt = ex.ex_exponent(query(R=rate, r=r))
            out.append([rate, pt.E, pt.argmax.rho, pt.rho_capped])
    return {"outputs": {"points": points, "second": second}}


def _report(rep) -> dict:
    return {"errors": rep.errors, "trials": rep.trials,
            "eps_hat": rep.eps_hat, "ci": list(rep.wilson_ci),
            "thm1": rep.thm1_bound}


def mc_channel(fc, inputs: dict, traced: bool, timer: timing.Timer) -> dict:
    ch = fc["channel"]
    outputs = {}
    for name, cfg in (("m2", M2), ("m256", M256)):
        with timer.result():
            rep = ch.estimate_error_probability(
                ch.SimConfig(seed=inputs[name], **cfg))
        outputs[name] = _report(rep)
    with timer.result():
        kl = ch.estimate_kl_tail(seed=inputs["kl"], **KL)
    outputs["kl"] = {"empirical": kl.empirical, "bound": kl.bound,
                     "rho_n": kl.rho_n}
    work = (M2["trials"], M256["trials"], KL["trials"])
    names = ("sim_m2_trials_per_s", "sim_m256_trials_per_s",
             "tail_draws_per_s")
    return {"outputs": outputs,
            "rates": {name: count / (end[0] - start[0]) for name, count,
                      (start, end) in zip(names, work, timer.results)}}


PASSES = {"rc-curve": rc_curve, "ex-curve": ex_curve, "mc-channel": mc_channel}


def pass_checks(workload: str, outputs: dict) -> list:
    if workload == "rc-curve":
        return checks.rc_curve(outputs["points"], outputs["rows"])
    if workload == "ex-curve":
        return checks.ex_curve(outputs["points"])
    return (checks.sim_report("sim.m2", outputs["m2"])
            + checks.sim_report("sim.m256", outputs["m256"])
            + checks.kl_tail(outputs["kl"]))


# -- untimed extra checks ---------------------------------------------


def parallel_procs() -> int:
    """Worker processes for the parallelism check: nproc, at most 4."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def parallel_check(fc, inputs: dict, timed: dict,
                   results: list) -> tuple[list, float]:
    """Error counts at parallelism 1 (the timed calls), at parallelism
    ``parallel_procs()`` and on a repeat; returns the checks and the
    speed-up of the M = 2 call."""
    ch = fc["channel"]
    procs = parallel_procs()
    out, speedup = [], 0.0
    for i, (name, cfg) in enumerate((("m2", M2), ("m256", M256))):
        counts = {"serial": timed["outputs"][name]["errors"]}
        start = time.perf_counter()
        rep = ch.estimate_error_probability(
            ch.SimConfig(seed=inputs[name], parallelism=procs, **cfg))
        elapsed = time.perf_counter() - start
        counts[f"parallel{procs}"] = rep.errors
        if name == "m2":
            t_start, t_end = results[i]
            speedup = (t_end[0] - t_start[0]) / elapsed
        else:
            counts["repeat"] = ch.estimate_error_probability(
                ch.SimConfig(seed=inputs[name], **cfg)).errors
        out += checks.same_errors(f"sim.{name}", counts)
    return out, speedup


def enumeration_check(fc) -> list:
    """Simulation at n = 2, reads = 4, M = 2 against exact enumeration of
    the ML decoder's error over Dirichlet(1/2) codebooks."""
    import numpy as np

    ch = fc["channel"]
    reads = int(N2["n"] * N2["r"])
    rng = np.random.default_rng(N2_SEED)
    books = rng.dirichlet([N2["alpha"]] * N2["n"], size=(N2_CODEBOOKS, 2))
    err = np.zeros(N2_CODEBOOKS)
    logs = np.log(books)
    for z in range(reads + 1):
        counts = np.array([z, reads - z])
        # log-likelihood of each codeword; 0 log 0 = 0 for empty types
        ll = np.where(counts > 0, counts * logs, 0.0).sum(axis=2)
        decoded = np.argmax(ll, axis=1)  # ties go to the lowest index
        for message in range(2):
            p = books[:, message, 0]
            prob = math.comb(reads, z) * p ** z * (1.0 - p) ** (reads - z)
            err += 0.5 * prob * (decoded != message)
    rep = ch.estimate_error_probability(ch.SimConfig(
        seed=N2_SEED, parallelism=parallel_procs(), **N2))
    lo, hi = rep.wilson_ci
    return checks.enumeration(float(err.mean()),
                              float(err.std(ddof=1)) / math.sqrt(err.size),
                              rep.eps_hat, (hi - lo) / (2.0 * checks.WILSON_Z))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _run_cli(cli, argv: list[str], path: str) -> tuple[str, str]:
    """Run one command and replay its manifest; returns both CSVs, or the
    exit code in their place when a run fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", path])
        if code != 0:
            return f"exit {code}", ""
        with open(path) as fh:
            written = fh.read()
        code = cli.replay_manifest(path + ".manifest")
        if code != 0:
            return written, f"exit {code}"
    with open(path) as fh:
        return written, fh.read()


def cli_check(fc, workload: str, inputs: dict, timed: dict,
              tmpdir: str) -> list:
    """The CLI on a small invocation, against the API values formatted to
    17 significant digits, then replayed from its manifest."""
    cli = fc["cli"]
    path = os.path.join(tmpdir, "out.csv")
    if workload == "rc-curve":
        rates = (0.5, 1.0)
        by_rate = {p[0]: p for p in timed["outputs"]["points"]}
        rows = [[_fmt(R), _fmt(by_rate[R][1]), "", _fmt(by_rate[R][2]),
                 _fmt(by_rate[R][3]), "", ""] for R in rates]
        expected = [RC_CSV_HEADER] + [",".join(row) for row in rows]
        argv = ["exponents", "--r", _fmt(checks.RC_R), "--rate", "0.5:1:0.5",
                "--which", "rc"]
    elif workload == "ex-curve":
        rates = (0.0, 0.005, 0.01)
        by_rate = {p[0]: p for p in timed["outputs"]["points"]}
        rows = [[_fmt(R), "", _fmt(by_rate[R][1]), "", "",
                 _fmt(by_rate[R][2]), "1" if by_rate[R][3] else "0"]
                for R in rates]
        expected = [RC_CSV_HEADER] + [",".join(row) for row in rows]
        argv = ["exponents", "--r", _fmt(checks.EX_R), "--rate",
                "0:0.01:0.005", "--which", "ex"]
    else:
        ch = fc["channel"]
        seed = inputs["m256"]
        config = ch.SimConfig(alpha=0.5, seed=seed, **CLI_SIM)
        rep = ch.estimate_error_probability(config)
        lo, hi = rep.wilson_ci
        row = [str(config.n), _fmt(config.r), _fmt(config.alpha),
               str(config.resolved_m), _fmt(config.resolved_rate),
               str(config.trials), str(seed), str(rep.errors),
               _fmt(rep.eps_hat), _fmt(lo), _fmt(hi), _fmt(rep.thm1_bound)]
        expected = [SIM_CSV_HEADER, ",".join(row)]
        argv = ["simulate", "--n", str(CLI_SIM["n"]), "--r", _fmt(CLI_SIM["r"]),
                "--M", str(CLI_SIM["M"]), "--trials", str(CLI_SIM["trials"]),
                "--seed", str(seed), "--parallelism", "1"]
    written, replayed = _run_cli(cli, argv, path)
    return checks.cli_output(argv[0], "\n".join(expected) + "\n",
                             written, replayed)
