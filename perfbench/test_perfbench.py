"""Tests of the benchmark's own logic: every check behind failed_frac can
fail, the tail percentile rule, the scaling of a result's time by the
probes that ran beside it, the tracer's bookkeeping when a wrapped name
is missing, and the compare verdicts.

    python3 -m pytest perfbench -q

None of them imports freqchan, so they run in a second or two.
"""

import json
import math
import types

import checks
import run
import stats
import timing
import tracer


def _rc_outputs():
    points = [[R, E, 1.0, 0.5] for R, E in checks.RC_ANCHORS.items()]
    points.append([0.25, 1.5, 1.0, 0.5])
    rows = [[r, 0.45 * math.log(r), 0.5 * math.log(r), 0.4 * math.log(r),
             0.3 * math.log(r)] for r in (10.0, 400.0)]
    rows[1][1] = 1.93
    return points, rows


def test_rc_checks_pass_on_anchor_values():
    assert checks.failed_frac(checks.rc_curve(*_rc_outputs())) == 0.0


def test_perturbed_rc_anchor_fails():
    points, rows = _rc_outputs()
    points[2][1] += 0.05
    found = checks.rc_curve(points, rows)
    assert checks.failed_frac(found) > 0.0
    assert [name for name, ok, _ in found if not ok] == ["rc.anchor R=1"]


def test_rising_or_negative_rc_curve_fails():
    points, rows = _rc_outputs()
    points[-1][1] = 0.1  # R = 0.25 below its neighbours
    assert not dict((n, ok) for n, ok, _ in checks.rc_curve(points, rows))[
        "rc.nonincreasing"]
    points, rows = _rc_outputs()
    points[-1] = [1.95, -1e-3, 1.0, 0.5]
    assert not dict((n, ok) for n, ok, _ in checks.rc_curve(points, rows))[
        "rc.nonnegative"]


def test_rates_above_converse_or_off_range_fail():
    points, rows = _rc_outputs()
    rows[0][3] = 0.5 * math.log(10.0)
    rows[1][1] = 1.97
    failed = {n for n, ok, _ in checks.rc_curve(points, rows) if not ok}
    assert failed == {"rates.fir[0]<converse r=10", "rates.R_LB(400)"}


def _ex_points():
    return [[R, E, 1000.0 if R < 0.012 else 10.0, R < 0.012]
            for R, E in checks.EX_ANCHORS.items()]


def test_ex_checks_pass_and_fail():
    assert checks.failed_frac(checks.ex_curve(_ex_points())) == 0.0
    points = _ex_points()
    points[0][1] += 0.11  # R = 0 allows 0.1
    points[3][1] -= 0.06  # R = 0.012 allows 0.05
    points[4][3] = True   # rho capped at R = 0.014
    failed = {n for n, ok, _ in checks.ex_curve(points) if not ok}
    assert failed == {"ex.anchor R=0", "ex.anchor R=0.012",
                      "ex.rho_capped R=0.014"}


def test_error_counts_that_differ_across_parallelism_fail():
    same = checks.same_errors("sim.m256", {"p1": 5, "p2": 5, "repeat": 5})
    differ = checks.same_errors("sim.m256", {"p1": 5, "p2": 6, "repeat": 5})
    assert checks.failed_frac(same) == 0.0
    assert checks.failed_frac(differ) > 0.0


def test_simulation_checks_fail():
    good = {"errors": 10, "trials": 1000, "eps_hat": 0.01,
            "ci": [0.005, 0.018], "thm1": 0.3}
    assert checks.failed_frac(checks.sim_report("sim.m2", good)) == 0.0
    above = dict(good, eps_hat=0.4, ci=[0.37, 0.43])
    outside = dict(good, ci=[0.02, 0.03])
    assert checks.failed_frac(checks.sim_report("sim.m2", above)) > 0.0
    assert checks.failed_frac(checks.sim_report("sim.m2", outside)) > 0.0
    # A vacuous ceiling (>= 1) is not checked.
    assert len(checks.sim_report("sim.m2", dict(good, thm1=2.0))) == 1
    assert not checks.kl_tail({"empirical": 0.01, "bound": 0.005})[0][1]
    assert checks.enumeration(0.20, 0.005, 0.21, 0.003)[0][1]
    assert not checks.enumeration(0.20, 0.005, 0.23, 0.003)[0][1]
    assert not checks.cli_output("simulate", "a\n", "b\n", "b\n")[0][1]
    assert not checks.cli_output("simulate", "a\n", "a\n", "b\n")[1][1]


def test_tail_rank_and_sample_count():
    assert stats.tail(list(range(10))) is None
    value, pct, count = stats.tail(list(range(20, 0, -1)))
    assert (value, pct, count) == (10, 50.0, 20)
    value, pct, count = stats.tail([float(i) for i in range(1, 39)])
    assert (value, count) == (28.0, 38)
    assert math.isclose(pct, 100.0 * 28 / 38)
    assert sum(s > value for s in range(1, 39)) == stats.TAIL_BEYOND


def test_scaled_time_uses_the_probes_that_ran_beside_it():
    ref = timing.PROBE_REF_S
    probes = [(0.0, 0.2, ref), (1.0, 1.2, 2 * ref), (2.0, 2.2, 4 * ref)]
    # two probes inside [0.9, 2.5]: mean 3 ref
    assert timing.scaled(6.0, probes, 0.9, 2.5) == 2.0
    # none inside [1.3, 1.9]: the one before and the one after
    assert timing.scaled(6.0, probes, 1.3, 1.9) == 2.0
    # past the last probe: only the one before
    assert timing.scaled(8.0, probes, 2.5, 3.0) == 2.0


def _fake_modules():
    """rc_bounds without zeta, whose lambda_fn calls psi_fn through the
    module attribute, as the real one does."""
    rc = types.SimpleNamespace()
    rc.psi_fn = lambda t: t + 1.0
    rc.log_gamma = lambda t: 0.0
    rc.lambda_fn = lambda r, a, x: rc.psi_fn(x) + rc.log_gamma(a)

    class Interval:
        lo, hi = 0.0, 1.0

        def effective_bounds(self, margin):
            return self.lo + margin, self.hi - margin

    def maximize_scalar(objective, interval, settings=None):
        objective(0.5)
        objective(interval.effective_bounds(1e-8)[0])
        return interval.effective_bounds(1e-8)[0], 1.0

    rc.maximize_scalar = maximize_scalar
    optimize = types.SimpleNamespace(
        OptimizerSettings=lambda: types.SimpleNamespace(open_margin=1e-8))
    return {"rc_bounds": rc, "optimize": optimize}, Interval()


def test_missing_binding_reports_absent_metrics():
    modules, interval = _fake_modules()
    trace = tracer.Tracer(modules)
    trace.install()
    rc = modules["rc_bounds"]
    for _ in range(3):
        rc.lambda_fn(400.0, 1.0, 0.5)
    rc.maximize_scalar(lambda x: rc.lambda_fn(400.0, 1.0, x), interval)
    layers = trace.layer_metrics()
    trace.uninstall()

    assert "freqchan.rc_bounds.zeta" in trace.absent
    assert layers["special_fn.zeta.calls"] is None
    assert layers["ex_bounds.ex_exponent.first_s"] is None
    assert layers["special_fn.psi_fn.calls"] == 5
    assert layers["rc_bounds.lambda_fn.calls"] == 5
    assert layers["optimize.objective_evals.rc_bounds"] == 2
    assert layers["optimize.edge_frac.rc_bounds"] == 1.0
    lam_total = trace.stats["rc_bounds.lambda_fn"][1]
    assert 0 <= layers["rc_bounds.lambda_fn.self_s"] * 1e9 <= lam_total
    assert rc.lambda_fn(1.0, 1.0, 0.0) == 1.0  # originals restored
    assert not hasattr(rc.lambda_fn, "__wrapped__")


def _record(path, workload, values):
    with open(path, "a") as fh:
        for v in values:
            fh.write(json.dumps({"workload": workload,
                                 "metrics": {"solution_s": v}}) + "\n")


def test_compare_marks_spread_beyond_bound_unresolved(tmp_path, capsys):
    steady_a = [10.0, 10.1, 9.9, 10.0, 10.05]
    _record(tmp_path / "a.jsonl", "rc-curve", steady_a)
    _record(tmp_path / "b.jsonl", "rc-curve", [5.0, 5.05, 4.95, 5.0, 5.02])
    _record(tmp_path / "a.jsonl", "ex-curve", steady_a)
    _record(tmp_path / "b.jsonl", "ex-curve", [5.0, 20.0, 8.0, 15.0, 10.0])
    run.compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert rows["rc-curve"].endswith("better")
    assert rows["ex-curve"].endswith("unresolved")
