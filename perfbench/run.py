"""Outside-in benchmark of freqchan: three workloads, each pass in a fresh
process, every result checked.

    python3 perfbench/run.py --workload rc-curve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload mc-channel --seed 1 --trace 1 --out runs.jsonl
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Workloads (why each exists is in BENCHMARK.json):
  rc-curve    rc_exponent at r = 400 over a rate grid on [0, 2], then one
              rates row (rate_lower_bound, converse_rate, fir_rate at
              g = 200 and 1000) per r for a few r in [10, 2000].
  ex-curve    ex_exponent at r = 400 over rates in [0, 0.05], then a few
              rates at r = 100.
  mc-channel  estimate_error_probability at n=40 r=4 M=2 and at n=10 r=1
              M=256, then estimate_kl_tail at n=100 r=4.

Load comes from one worker process at a time (a closed loop with one
caller); the probe takes a small share of a second core.
A pass imports freqchan in a new process and runs the workload once, so
the table builds and delta_fn that every CLI invocation pays are counted.
With ``--trace 0`` a run makes passes, all on the same inputs, until
``--seconds`` have gone by, and at least two, while probe.py runs beside
them.  Each metric is the median over the passes.  The gated times
(``setup_s``, ``first_result_s``, ``solution_s``) are CPU seconds of the
worker scaled to a reference host speed by the probes that ran while
each result ran (timing.py): on a shared host plain CPU and wall times
swing by half over minutes, more than the bounds the benchmark sets.
Both plain times are printed beside them (``*_cpu_s``, ``*_wall_s``).
``setup_s`` is the median over the passes' imports and a few
import-only processes.  With ``--trace 1`` one untraced and one traced
pass run, and the per-layer metrics come from the traced one, with the
tracing overhead against the untraced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (checks made and failed) and ``metrics``.
``--out FILE`` appends the full record of the run (environment, every
metric, every check, the traced spans) as one JSON line, and
``--compare A B`` summarises two such files side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import stats  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "probe.py")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
PROBE_START_S = 30.0    # wait at most this long for the probe's first sample
SETUP_SAMPLES = 3       # import-only processes per run, besides the passes
PASS_TIMEOUT_S = 170.0  # one pass, including its untimed checks
RUN_LIMIT_S = 175.0     # no further pass starts after this much of a run
MIN_PASSES = 2          # per untraced run, however long a pass takes

# Untimed checks by workload, made in the first pass of a run.  The CLI
# check runs in the traced pass, since cli.self_s is a per-layer metric,
# and the parallelism check never runs traced, since tracing would
# distort its speed-up.
EXTRAS = {"rc-curve": (), "ex-curve": (), "mc-channel": ("parallel", "n2")}
# Printed and recorded by untraced runs (plain CPU and wall-clock times on
# every workload, warm results on rc-curve and ex-curve, work rates on
# mc-channel), but not in BENCHMARK.json: the plain times swing with the
# host's speed, and the others are not reported by every workload.
# As (better, bound) for --compare.
WORKLOAD_METRICS = {
    "first_result_cpu_s": ("lower", 0.25),
    "solution_cpu_s": ("lower", 0.25),
    "first_result_wall_s": ("lower", 0.25),
    "solution_wall_s": ("lower", 0.25),
    "warm_result_p50_s": ("lower", 0.15),
    "warm_result_tail_s": ("lower", 0.25),
    "sim_m2_trials_per_s": ("higher", 0.15),
    "sim_m256_trials_per_s": ("higher", 0.15),
    "tail_draws_per_s": ("higher", 0.15),
}
WARM_WORKLOADS = ("rc-curve", "ex-curve")
SCALED = "CPU at the probe's reference speed"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- running passes ---------------------------------------------------


def child_env() -> dict:
    # One BLAS thread: the workloads are single-threaded, and idle BLAS
    # threads spinning on a shared 2-core host add CPU time that measures
    # the scheduler, not the program.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@contextlib.contextmanager
def host_probe():
    """Runs probe.py for the length of the block; the list it yields holds
    the probe's (start, end, CPU seconds) samples once the block ends."""
    samples: list = []
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryFile("w+", dir=TMP_DIR) as log:
            proc = subprocess.Popen([sys.executable, PROBE], cwd=ROOT,
                                    env=child_env(), stdout=log, text=True)
            try:
                deadline = time.monotonic() + PROBE_START_S
                while (os.fstat(log.fileno()).st_size == 0
                       and proc.poll() is None
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                yield samples
            finally:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            log.seek(0)
            samples.extend(tuple(map(float, line.split()))
                           for line in log if len(line.split()) == 3)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)


def spawn(workload: str, seed: int, *, trace: bool = False,
          extras: tuple = (), setup_only: bool = False,
          timeout: float = PASS_TIMEOUT_S) -> dict:
    """Run one worker process to the end and return its JSON result."""
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
           "--seed", str(seed), "--extras", ",".join(extras)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so that a timeout also stops the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}"}
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float,
                 started: float) -> tuple[list, list]:
    """Passes until one more would take the passes' time past a tenth
    over ``seconds``; the work of a pass is the same whatever the seed."""
    passes, measured = [], 0.0
    while True:
        left = RUN_LIMIT_S - (time.monotonic() - started)
        if passes:
            last = passes[-1]["pass_s"]
            if left < 2 * last or (len(passes) >= MIN_PASSES
                                   and measured + last > 1.1 * seconds):
                break
        done = spawn(workload, seed, extras=() if passes else EXTRAS[workload],
                     timeout=min(PASS_TIMEOUT_S, max(left, 1.0)))
        passes.append(done)
        if "error" in done:
            break
        measured += done["pass_s"]
    imports = [spawn(workload, seed, setup_only=True, timeout=30.0)
               for _ in range(SETUP_SAMPLES)]
    return passes, imports


def untraced_metrics(workload: str, passes: list, imports: list,
                     probes: list) -> dict:
    """Every end-to-end metric of the run, as name -> (value, unit, note)."""
    def scaled(span):
        return timing.scaled(span[2], probes, span[0], span[1])

    if not probes:
        return {}
    ok = [p for p in passes if "error" not in p]
    setups = [p["setup_span"] for p in ok + imports if "setup_span" in p]
    out = {}
    if setups:
        out["setup_s"] = (stats.median([scaled(s) for s in setups]), "s",
                          f"median of {len(setups)} imports, {SCALED}")
    if not ok:
        return out
    note = f"median of {len(ok)} passes"
    spans = [p["result_spans"] for p in ok]
    times = [[scaled(s) for s in runs] for runs in spans]
    for name, values, how in (
            ("first_result_s", [t[0] for t in times], SCALED),
            ("solution_s", [sum(t) for t in times], SCALED),
            ("first_result_cpu_s", [r[0][2] for r in spans], "CPU"),
            ("solution_cpu_s", [sum(s[2] for s in r) for r in spans], "CPU"),
            ("first_result_wall_s", [r[0][1] - r[0][0] for r in spans],
             "wall"),
            ("solution_wall_s", [r[-1][1] - r[0][0] for r in spans], "wall")):
        out[name] = (stats.median(values), "s", f"{note}, {how}")
    out["peak_rss_mib"] = (stats.median([p["peak_rss_mib"] for p in ok]),
                           "MiB", note)
    if workload in WARM_WORKLOADS:
        warm = [s for t in times for s in t[1:]]
        out["warm_result_p50_s"] = (stats.median(warm), "s",
                                    f"{len(warm)} results, {SCALED}")
        found = stats.tail(warm)
        if found:
            value, pct, count = found
            out["warm_result_tail_s"] = (
                value, "s", f"p{pct:.1f} of {count} results, {SCALED}")
    for name, value in ok[0]["rates"].items():
        out[name] = (stats.median([p["rates"][name] for p in ok]), "1/s", note)
    return out


def traced_metrics(untraced: dict, traced: dict) -> dict:
    layers = dict(traced.get("layers", {}))
    layers["channel.parallel_speedup"] = untraced.get("parallel_speedup", 0.0)
    if "pass_s" in traced and "pass_s" in untraced:
        layers["trace.overhead_frac"] = traced["pass_s"] / untraced["pass_s"] - 1
    return layers


# -- environment ------------------------------------------------------


def git_sha() -> str:
    """The commit of the checkout from its .git directory, if it has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    return {"git_sha": git_sha(), "seed": seed,
            "nproc": len(os.sched_getaffinity(0)),
            "parallel_procs": workloads.parallel_procs(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "loadavg_before": list(os.getloadavg())}


# -- one run ----------------------------------------------------------


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "freqchan", "__init__.py")):
        print(f"perfbench: no freqchan sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    spec = load_spec()
    started = time.monotonic()
    env = environment(args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env}
    if args.trace:
        first = spawn(args.workload, args.seed, extras=EXTRAS[args.workload],
                      timeout=RUN_LIMIT_S / 3)
        second = spawn(args.workload, args.seed, trace=True, extras=("cli",),
                       timeout=RUN_LIMIT_S - (time.monotonic() - started))
        passes = [first, second]
        layers = traced_metrics(first, second)
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"]) for m in wanted}
        record["absent"] = second.get("absent", [])
        record["spans"] = second.get("spans", [])
        shown = {m["name"]: (values[m["name"]], m["unit"], "") for m in wanted}
    else:
        with host_probe() as probes:
            passes, imports = run_untraced(args.workload, args.seed,
                                           args.seconds, started)
        if not probes:
            passes.append({"error": "probe.py gave no samples"})
        record["probes"] = probes
        shown = untraced_metrics(args.workload, passes, imports, probes)
        wanted = spec["end_to_end"]
        values = {m["name"]: shown.get(m["name"], (None,))[0] for m in wanted}
    env["loadavg_after"] = list(os.getloadavg())

    found = [c for p in passes for c in p.get("checks", [])]
    found += [("pass", False, p["error"]) for p in passes if "error" in p]
    failed = [c for c in found if not c[1]]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={int(args.trace)} passes={len(passes)} "
          f"wall={time.monotonic() - started:.1f}s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in shown.items():
        text = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"metric {name} {text}" + (f"  ({note})" if note else ""))
    if args.trace and "trace.overhead_frac" in values:
        print("tracing overhead against the untraced pass: "
              f"{values['trace.overhead_frac']:+.1%}")
    if args.trace and record["absent"]:
        print("absent bindings: " + " ".join(record["absent"]))
    for name, _, detail in failed:
        print(f"check FAIL {name}: {detail.strip().splitlines()[-1]}")
    frac = checks.failed_frac(found) if found else 1.0
    print(f"metric failed_frac {frac:.6g} frac  "
          f"({len(failed)} of {len(found)} checks failed)")

    correct = bool(found) and not failed
    record["passes"] = [{k: v for k, v in p.items()
                         if k not in ("checks", "spans", "layers")}
                        for p in passes]
    record.update(metrics={k: v[0] for k, v in shown.items()},
                  units={k: v[1] for k, v in shown.items()},
                  notes={k: v[2] for k, v in shown.items() if v[2]},
                  failed_frac=frac, checks=found)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": correct, "attempted": max(len(found), 1),
        "failed": len(failed) if found else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


# -- compare ----------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric): each side's median and quartiles;
    'unresolved' when either side's spread exceeds the bound."""
    spec = load_spec()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update(WORKLOAD_METRICS)

    def load(path):
        by_key = {}
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                for name, value in rec["metrics"].items():
                    if value is not None:
                        by_key.setdefault((rec["workload"], name), []).append(value)
        return by_key

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<11} {'metric':<44} {'A median [q1, q3]':<38} "
          f"{'B median [q1, q3]':<38} {'change':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        qa, qb = stats.quartiles(a[key]), stats.quartiles(b[key])
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        verdict = "no bound"
        if name in bounds:
            better, bound = bounds[name]
            gain = -change if better == "lower" else change
            if max(stats.spread(a[key]), stats.spread(b[key])) > bound:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "worse"
            elif gain > bound:
                verdict = "better"
            else:
                verdict = "within bound"
        fa = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a[key])}"
        fb = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b[key])}"
        print(f"{workload:<11} {name:<44} {fa:<38} {fb:<38} "
              f"{change:>+8.1%}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        default=workloads.WORKLOADS[0],
                        help="'all' runs the workloads one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload == "all":
        codes = [run(argparse.Namespace(**{**vars(args), "workload": w}))
                 for w in workloads.WORKLOADS]
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
