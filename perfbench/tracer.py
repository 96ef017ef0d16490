"""In-memory tracing of freqchan's layers for the traced run.

Public functions are wrapped at the names their callers bind them under
(``freqchan.rc_bounds.lambda_fn`` is what ``rc_exponent`` calls), so the
library itself is untouched.  Hot leaf functions, called about 10^6 times
per exponent point, are only aggregated as call count, total and self
time.  Functions called about once per result also keep one span each,
with the id of the span that was open when they started.

A binding that no longer exists (a later refactor deleted or renamed it)
is skipped and listed in ``absent``; metrics that depend only on absent
bindings are reported as None instead of failing the run.

Standard library only, like the rest of the worker's imports.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
import types

LEAF, SPAN, OPTIMIZER = "leaf", "span", "optimizer"

# (module, attribute, stat name, kind).  Several bindings can feed one
# stat: psi_fn is reached through rc_bounds and through baselines.
BINDINGS = [
    ("rc_bounds", "psi_fn", "special_fn.psi_fn", LEAF),
    ("baselines", "psi_fn", "special_fn.psi_fn", LEAF),
    ("rc_bounds", "log_gamma", "special_fn.log_gamma", LEAF),
    ("channel", "log_gamma", "special_fn.log_gamma", LEAF),
    ("rc_bounds", "zeta", "special_fn.zeta", LEAF),
    ("rc_bounds", "lambda_fn", "rc_bounds.lambda_fn", LEAF),
    # minimize_scalar maximizes the negated objective, so delta_fn's
    # search counts as a maximize_scalar call made by rc_bounds.
    ("rc_bounds", "maximize_scalar", "optimize.maximize_scalar.rc_bounds",
     OPTIMIZER),
    ("rc_bounds", "minimize_scalar", "optimize.maximize_scalar.rc_bounds",
     OPTIMIZER),
    ("ex_bounds", "maximize_scalar", "optimize.maximize_scalar.ex_bounds",
     OPTIMIZER),
    ("rc_bounds", "delta_fn", "rc_bounds.delta_fn", SPAN),
    ("rc_bounds", "rc_exponent", "rc_bounds.rc_exponent", SPAN),
    ("cli", "rc_exponent", "rc_bounds.rc_exponent", SPAN),
    ("rc_bounds", "rate_lower_bound", "rc_bounds.rate_lower_bound", SPAN),
    ("cli", "rate_lower_bound", "rc_bounds.rate_lower_bound", SPAN),
    ("channel", "thm1_probability_bound", "rc_bounds.thm1_probability_bound",
     SPAN),
    ("channel", "lemma1_tail_bound", "rc_bounds.lemma1_tail_bound", SPAN),
    ("ex_bounds", "f_kappa", "ex_bounds.f_kappa", SPAN),
    ("ex_bounds", "g_fn", "ex_bounds.g_fn", SPAN),
    ("ex_bounds", "l_fn", "ex_bounds.l_fn", SPAN),
    ("channel", "l_fn", "ex_bounds.l_fn", SPAN),
    ("ex_bounds", "s_fn", "ex_bounds.s_fn", SPAN),
    ("ex_bounds", "ex_exponent", "ex_bounds.ex_exponent", SPAN),
    ("cli", "ex_exponent", "ex_bounds.ex_exponent", SPAN),
    ("baselines", "fir_rate", "baselines.fir_rate", LEAF),
    ("cli", "fir_rate", "baselines.fir_rate", LEAF),
    ("cli", "converse_rate", "baselines.converse_rate", LEAF),
    ("channel", "estimate_error_probability", "channel.error", SPAN),
    ("cli", "estimate_error_probability", "channel.error", SPAN),
    ("channel", "estimate_kl_tail", "channel.kl_tail", SPAN),
    ("cli", "main", "cli.main", SPAN),
]
# numpy.random entry points as channel reaches them, through its ``np``.
SUBSTREAM_BINDINGS = [("SeedSequence", "channel.seed_sequence"),
                      ("default_rng", "channel.default_rng")]
# Ceilings the channel estimators compute, by stat name.
CHANNEL_BOUNDS = ("rc_bounds.thm1_probability_bound",
                  "rc_bounds.lemma1_tail_bound", "ex_bounds.l_fn")


class Tracer:
    """Wraps the bindings in ``modules`` (name -> module or None)."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.stats: dict[str, list[int]] = {}  # calls, total ns, self ns
        self.edges: dict[str, int] = {}
        self.spans: list[tuple] = []  # id, parent id, name, start ns, end ns
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._child = [0]  # ns spent in traced callees of the running call
        self._open: list[int | None] = [None]
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        for name in self.edges:
            self.edges[name] = 0
        self.spans.clear()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, stat, kind in BINDINGS:
            owner = self.modules.get(mod_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"freqchan.{mod_name}.{attr}")
                continue
            self._patch(owner, attr, self._wrap(fn, stat, kind))
        self._install_substreams()

    def _install_substreams(self) -> None:
        channel = self.modules.get("channel")
        np_mod = getattr(channel, "np", None)
        random_mod = getattr(np_mod, "random", None)
        if random_mod is None:
            self.absent.append("freqchan.channel.np.random")
            return
        # Copies of numpy and numpy.random for channel alone, so that only
        # the calls channel makes are counted.
        np_proxy = types.ModuleType(np_mod.__name__)
        np_proxy.__dict__.update(vars(np_mod))
        random_proxy = types.ModuleType(random_mod.__name__)
        random_proxy.__dict__.update(vars(random_mod))
        for attr, stat in SUBSTREAM_BINDINGS:
            fn = getattr(random_mod, attr, None)
            if fn is None:
                self.absent.append(f"freqchan.channel.np.random.{attr}")
                continue
            setattr(random_proxy, attr, self._wrap(fn, stat, LEAF))
        np_proxy.random = random_proxy
        self._patch(channel, "np", np_proxy)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------

    def _stat(self, name: str) -> list[int]:
        self.present.add(name)
        return self.stats.setdefault(name, [0, 0, 0])

    def _wrap(self, fn, stat_name: str, kind: str):
        stat = self._stat(stat_name)
        child = self._child
        clock = time.perf_counter_ns

        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                saved = child[0]
                child[0] = 0
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - child[0]
                    child[0] = saved + elapsed
            return leaf

        if kind == SPAN:
            spans, open_ids, ids = self.spans, self._open, self._ids

            @functools.wraps(fn)
            def span(*args, **kwargs):
                span_id = next(ids)
                parent = open_ids[-1]
                open_ids.append(span_id)
                saved = child[0]
                child[0] = 0
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - child[0]
                    child[0] = saved + elapsed
                    open_ids.pop()
                    spans.append((span_id, parent, stat_name, start, end))
            return span

        caller = stat_name.rsplit(".", 1)[1]
        objective_wrap = functools.partial(
            self._wrap, stat_name=f"optimize.objective.{caller}", kind=LEAF)
        edges = self.edges
        edges.setdefault(stat_name, 0)
        timed = self._wrap(fn, stat_name, LEAF)
        defaults = getattr(self.modules.get("optimize"), "OptimizerSettings",
                           None)

        @functools.wraps(fn)
        def optimizer(objective, *args, **kwargs):
            x, value = timed(objective_wrap(objective), *args, **kwargs)
            if _at_edge(x, args, kwargs, defaults):
                edges[stat_name] += 1
            return x, value
        return optimizer

    # -- metrics ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9
                for _, _, n, start, end in sorted(self.spans) if n == name]

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of everything traced since the last reset."""
        out: dict[str, float | None] = {}

        def have(*names: str) -> bool:
            return any(n in self.present for n in names)

        def put(key: str, value, *names: str) -> None:
            out[key] = value if have(*names) else None

        def stat(name: str, i: int) -> int:
            return self.stats.get(name, [0, 0, 0])[i]

        for name in ("special_fn.psi_fn", "special_fn.log_gamma",
                     "special_fn.zeta", "rc_bounds.lambda_fn",
                     "baselines.fir_rate"):
            put(f"{name}.calls", stat(name, 0), name)
            put(f"{name}.self_s", stat(name, 2) / 1e9, name)
        for caller in ("rc_bounds", "ex_bounds"):
            name = f"optimize.maximize_scalar.{caller}"
            calls = stat(name, 0)
            put(f"optimize.maximize_scalar.calls.{caller}", calls, name)
            put(f"optimize.maximize_scalar.self_s.{caller}",
                stat(name, 2) / 1e9, name)
            put(f"optimize.objective_evals.{caller}",
                stat(f"optimize.objective.{caller}", 0), name)
            put(f"optimize.edge_frac.{caller}",
                self.edges.get(name, 0) / calls if calls else 0.0, name)

        rc = self.durations("rc_bounds.rc_exponent")
        put("rc_bounds.rc_exponent.warm_p50_s", _p50(rc[1:]),
            "rc_bounds.rc_exponent")
        put("rc_bounds.rate_lower_bound.p50_s",
            _p50(self.durations("rc_bounds.rate_lower_bound")),
            "rc_bounds.rate_lower_bound")
        put("rc_bounds.delta_fn.first_s",
            _first(self.durations("rc_bounds.delta_fn")), "rc_bounds.delta_fn")
        put("rc_bounds.thm1_probability_bound.s",
            sum(self.durations("rc_bounds.thm1_probability_bound")),
            "rc_bounds.thm1_probability_bound")
        for name in ("f_kappa", "g_fn", "l_fn", "s_fn"):
            key = f"ex_bounds.{name}"
            put(f"{key}.first_s", _first(self.durations(key)), key)
        ex = self.durations("ex_bounds.ex_exponent")
        put("ex_bounds.ex_exponent.first_s", _first(ex),
            "ex_bounds.ex_exponent")
        put("ex_bounds.ex_exponent.warm_p50_s", _p50(ex[1:]),
            "ex_bounds.ex_exponent")

        put("channel.substreams", stat("channel.seed_sequence", 0),
            "channel.seed_sequence")
        put("channel.substream_s",
            (stat("channel.seed_sequence", 2)
             + stat("channel.default_rng", 2)) / 1e9,
            "channel.seed_sequence", "channel.default_rng")
        bound_total = 0.0
        for estimator in ("channel.error", "channel.kl_tail"):
            call_s, bound_s = self._estimator_time(estimator)
            bound_total += bound_s
            put(f"{estimator}.sampling_s", call_s - bound_s, estimator)
        put("channel.bound_s", bound_total, "channel.error", "channel.kl_tail")
        return out

    def _estimator_time(self, estimator: str) -> tuple[float, float]:
        """Total time of an estimator's spans and of the ceilings they
        computed (direct children in CHANNEL_BOUNDS)."""
        ids = {sid for sid, _, name, _, _ in self.spans if name == estimator}
        call_s = sum((end - start) / 1e9 for sid, _, _, start, end
                     in self.spans if sid in ids)
        bound_s = sum((end - start) / 1e9 for _, parent, name, start, end
                      in self.spans if parent in ids and name in CHANNEL_BOUNDS)
        return call_s, bound_s

    def cli_metrics(self) -> dict[str, float | None]:
        present = "cli.main" in self.present
        return {"cli.main.s": self.stats["cli.main"][1] / 1e9 if present else None,
                "cli.self_s": self.stats["cli.main"][2] / 1e9 if present else None}


def _at_edge(x: float, args: tuple, kwargs: dict, defaults) -> bool:
    """Whether the argmax lies within open_margin (relative to the width)
    of an end of the interval the optimizer actually searched.

    ``defaults`` builds the settings used when the caller passed none.
    """
    interval = args[0] if args else kwargs.get("interval")
    settings = args[1] if len(args) > 1 else kwargs.get("settings")
    try:
        margin = (settings or defaults()).open_margin
        lo, hi = interval.effective_bounds(margin)
        width = margin * (interval.hi - interval.lo)
    except (AttributeError, TypeError):
        return False
    return x - lo <= width or hi - x <= width


def _first(values: list[float]) -> float:
    return values[0] if values else 0.0


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
