"""Correctness checks behind ``failed_frac``.

Each function takes plain values that a workload pass produced and
returns a list of ``(name, ok, detail)`` tuples, so the tests can feed
them perturbed values and see every check fail.  Standard library only.
"""

from __future__ import annotations

import math

Check = tuple[str, bool, str]

RC_R = 400.0
EX_R = 400.0
# Published curve values at r = 400, the same anchors the acceptance
# criteria 01 and 02 hold the library to.
RC_ANCHORS = {0.0: 1.7595, 0.5: 1.2993, 1.0: 0.8423, 1.5: 0.3890, 1.9: 0.0296}
EX_ANCHORS = {0.0: 12.5969, 0.005: 7.5969, 0.01: 2.5969, 0.012: 0.8055,
              0.014: 0.0357}
RC_ANCHOR_TOL = 0.02
RATE_LOWER_BOUND_400 = (1.90, 1.96)
# Slack for optimizer round-off when comparing neighbouring exponents.
MONOTONE_SLACK = 1e-9
WILSON_Z = 1.959963984540054
SE_MULTIPLE = 3.0


def ex_anchor_tol(rate: float) -> float:
    return 0.1 if rate == 0.0 else 0.05


def failed_frac(checks: list[Check]) -> float:
    return sum(not ok for _, ok, _ in checks) / len(checks) if checks else 0.0


def _anchor_checks(family: str, points: list[list], anchors: dict,
                   tol) -> list[Check]:
    by_rate = {p[0]: p[1] for p in points}
    out = []
    for rate, want in anchors.items():
        got = by_rate.get(rate)
        if got is None:
            out.append((f"{family}.anchor R={rate:g}", False, "missing"))
            continue
        gap = abs(got - want)
        out.append((f"{family}.anchor R={rate:g}", gap <= tol(rate),
                    f"E={got:.6f} want {want} gap {gap:.2e} tol {tol(rate)}"))
    return out


def rc_curve(points: list[list], rows: list[list]) -> list[Check]:
    """points: [R, E, ...] at r = 400; rows: [r, R_LB, converse, fir...]."""
    out = _anchor_checks("rc", points, RC_ANCHORS, lambda _: RC_ANCHOR_TOL)
    curve = sorted((p[0], p[1]) for p in points)
    low = min(e for _, e in curve)
    out.append(("rc.nonnegative", low >= 0.0, f"min E {low:.3e}"))
    rises = [(a, b) for (ra, a), (rb, b) in zip(curve, curve[1:])
             if b > a + MONOTONE_SLACK]
    out.append(("rc.nonincreasing", not rises,
                f"{len(rises)} rises over {len(curve)} rates"))
    lo, hi = RATE_LOWER_BOUND_400
    at_400 = [row[1] for row in rows if row[0] == RC_R]
    ok = len(at_400) == 1 and lo <= at_400[0] <= hi
    out.append(("rates.R_LB(400)", ok, f"{at_400} in [{lo}, {hi}]"))
    for r, r_lb, _, *firs in rows:
        ceiling = 0.5 * math.log(r)
        out.append((f"rates.R_LB<converse r={r:g}", r_lb < ceiling,
                    f"{r_lb:.6f} < {ceiling:.6f}"))
        for i, fir in enumerate(firs):
            out.append((f"rates.fir[{i}]<converse r={r:g}", fir < ceiling,
                        f"{fir:.6f} < {ceiling:.6f}"))
    return out


def ex_curve(points: list[list]) -> list[Check]:
    """points: [R, E, rho, rho_capped] at r = 400."""
    out = _anchor_checks("ex", points, EX_ANCHORS, ex_anchor_tol)
    capped = {p[0]: p[3] for p in points}
    out.append(("ex.rho_capped R=0", capped.get(0.0) is True,
                f"rho_capped={capped.get(0.0)}"))
    out.append(("ex.rho_capped R=0.014", capped.get(0.014) is False,
                f"rho_capped={capped.get(0.014)}"))
    return out


def sim_report(label: str, rep: dict) -> list[Check]:
    """rep: errors, trials, eps_hat, ci [lo, hi], thm1 of one simulation."""
    lo, hi = rep["ci"]
    eps = rep["eps_hat"]
    out = [(f"{label}.wilson", lo <= eps <= hi,
            f"{eps:.6g} in [{lo:.6g}, {hi:.6g}]")]
    if rep["thm1"] < 1.0:
        se = (hi - lo) / (2.0 * WILSON_Z)
        limit = rep["thm1"] + SE_MULTIPLE * se
        out.append((f"{label}.thm1", eps <= limit,
                    f"{eps:.6g} <= {rep['thm1']:.6g} + 3 SE"))
    return out


def kl_tail(rep: dict) -> list[Check]:
    return [("kl_tail.ceiling", rep["empirical"] <= rep["bound"],
             f"{rep['empirical']:.6g} <= {rep['bound']:.6g}")]


def same_errors(label: str, counts: dict[str, int]) -> list[Check]:
    """Error counts of one configuration and seed under different
    parallelism or on a repeat; all must agree."""
    ok = len(set(counts.values())) == 1
    detail = " ".join(f"{k}={v}" for k, v in counts.items())
    return [(f"{label}.deterministic", ok, detail)]


def enumeration(enum_mean: float, enum_se: float, eps_hat: float,
                sim_se: float) -> list[Check]:
    """Simulation against exact enumeration within 3 combined SE."""
    combined = math.hypot(enum_se, sim_se)
    gap = abs(eps_hat - enum_mean)
    return [("sim.n2.enumeration", gap <= SE_MULTIPLE * combined,
             f"enumeration {enum_mean:.5f} vs simulation {eps_hat:.5f}, "
             f"gap {gap / combined:.2f} combined SE")]


def cli_output(label: str, expected: str, written: str,
               replayed: str) -> list[Check]:
    """The CSV a command wrote against the API values, then its replay."""
    return [(f"cli.{label}.csv", written == expected,
             "matches API values" if written == expected
             else f"wrote {written!r}, API gives {expected!r}"),
            (f"cli.{label}.replay", replayed == written,
             "replay reproduces the bytes" if replayed == written
             else "replay wrote different bytes")]
