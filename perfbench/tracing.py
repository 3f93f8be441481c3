"""Traced runs: spans and counters recorded from outside the package.

The recorder replaces module-level names of ``hbprog`` with timing wrappers.
Every wrapped name is looked up at call time by its caller, so each call
passes through the wrapper. Coarse boundaries (commands, stages, sampler
runs) keep one span per call with its parent and start/end times. Hot
boundaries (the log-likelihood, model ``predict``, log-target evaluations)
would make hundreds of thousands of spans per pass, so they are aggregated
into count, total time and self time. Self time is a call's duration minus
the time covered by the wrapped calls it made.

Wrapping consumes no random numbers and returns every result unchanged, so
a traced pass writes the same bytes as an untraced one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

import hbprog.cli
import hbprog.hierarchy
import hbprog.prognosis
from hbprog.models import BatteryDoubleModel, BatterySingleModel, ParisCrackModel

_now = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Aggregated statistics and coarse spans of one traced pass."""

    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def reset(self) -> None:
        self.stats, self.spans, self.counters, self._stack = {}, [], {}, []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def call(self, name: str, coarse: bool, fn, *args, **kwargs):
        # frame = [child time, span index]; the span index lets children name
        # their parent
        frame = [0.0, None]
        parent = self._stack[-1][1] if self._stack else None
        if coarse:
            frame[1] = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "start": 0.0, "end": 0.0})
        self._stack.append(frame)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            self._stack.pop()
            dt = t1 - t0
            st = self.stats.setdefault(name, Stat())
            st.calls += 1
            st.total += dt
            st.self_time += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            if coarse:
                self.spans[frame[1]].update(start=t0, end=t1)

    def wrap(self, name: str, fn, coarse: bool = False):
        def wrapper(*args, **kwargs):
            return self.call(name, coarse, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _prefix(target_name: str) -> str:
    return target_name.split(":", 1)[0]


class Instrumentation:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str, coarse: bool) -> None:
        self._patch(owner, attr, self.tracer.wrap(name, getattr(owner, attr), coarse))

    def __enter__(self) -> "Instrumentation":
        cli, hier = hbprog.cli, hbprog.hierarchy
        for attr, name in [
            ("fit_historical", "fit_historical"),
            ("update_current", "hierarchy.current"),
            ("model_select", "model_select"),
            ("predict_trajectory", "prognosis.predict_trajectory"),
            ("rul_distribution", "prognosis.rul_distribution"),
            ("load_dataset", "io.load"),
            ("load_sample_set", "io.load"),
            ("save_sample_set", "io.save"),
            ("save_prognosis", "io.save"),
        ]:
            self._wrap_attr(cli, attr, name, coarse=True)
        for attr, name in [
            ("stage1_infer", "hierarchy.stage1"),
            ("_stage1_tmcmc", "hierarchy.stage1"),
            ("minimize", "hierarchy.init.polish"),
        ]:
            self._wrap_attr(hier, attr, name, coarse=True)
        self._wrap_attr(hier, "dataset_loglik", "targets.dataset_loglik", coarse=False)
        self._wrap_attr(hbprog.prognosis, "end_of_life", "prognosis.end_of_life", coarse=False)
        for cls in (ParisCrackModel, BatterySingleModel, BatteryDoubleModel):
            self._patch(cls, "predict", self._predict(cls.predict))
        self._wrap_attr(ParisCrackModel, "cycles_to_failure", "models.cycles_to_failure", False)
        self._patch(hier, "stage2_infer", self._stage2(hier.stage2_infer))
        self._patch(hier, "differential_evolution", self._de(hier.differential_evolution))
        self._patch(hier, "_mixture_kernel", self._mixture(hier._mixture_kernel))
        self._patch(hier, "slice_sample", self._slice(hier.slice_sample))
        self._patch(hier, "tmcmc", self._tmcmc(hier.tmcmc))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # boundaries that also count work

    def _predict(self, fn):
        tr = self.tracer

        def predict(model, theta, cycles):
            tr.add("models.predict.points", int(np.size(cycles)))
            return tr.call("models.predict", False, fn, model, theta, cycles)

        return predict

    def _stage2(self, fn):
        tr = self.tracer

        def stage2_infer(stage1, *args, **kwargs):
            tr.add("hierarchy.stage2.rows", sum(ss.n for ss in stage1))
            return tr.call("hierarchy.stage2", True, fn, stage1, *args, **kwargs)

        return stage2_infer

    def _de(self, fn):
        tr = self.tracer

        def differential_evolution(*args, **kwargs):
            result = tr.call("hierarchy.init.de", True, fn, *args, **kwargs)
            tr.add("hierarchy.init.de_evals", int(result.nfev))
            return result

        return differential_evolution

    def _mixture(self, fn):
        tr = self.tracer

        def mixture_kernel(*args, **kwargs):
            return tr.wrap("hierarchy.mixture", fn(*args, **kwargs))

        return mixture_kernel

    def _slice(self, fn):
        tr = self.tracer

        def slice_sample(target, init, config):
            counted = replace(
                target, log_target=tr.wrap(f"eval.slice.{_prefix(target.name)}", target.log_target)
            )
            out = tr.call("samplers.slice", True, fn, counted, init, config)
            tr.add("samplers.slice.draws", out.n)
            return out

        return slice_sample

    def _tmcmc(self, fn):
        tr = self.tracer

        def tmcmc(target, config):
            counted = replace(
                target,
                log_likelihood=tr.wrap(f"eval.tmcmc.{_prefix(target.name)}", target.log_likelihood),
                prior_logpdf=tr.wrap("samplers.tmcmc.prior", target.prior_logpdf),
            )
            out = tr.call("samplers.tmcmc", True, fn, counted, config)
            tr.add("samplers.tmcmc.stages", int(out.provenance.get("n_stages", 0)))
            return out

        return tmcmc


def _us(stat: Stat) -> float:
    return 1e6 * stat.total / stat.calls if stat.calls else 0.0


#: sampling-quality figures of the workloads reported with the sampler layer
QUALITY_LAYERS = ("fleet_ess_per_s", "current_ess_per_s", "evidence_se")

#: the subcommands the workloads run, each with its own ``cli.<command>.s``
COMMANDS = ("fit-historical", "fit-current", "predict", "rul", "model-select")


def layer_metrics(tr: Tracer, bytes_written: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (zero for bypassed layers)."""
    m: dict[str, float] = {}
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = tr.stat(f"cli.{cmd}").total
    m["cli.self_s"] = sum(tr.stat(f"cli.{cmd}").self_time for cmd in COMMANDS)
    m["io.load.s"] = tr.stat("io.load").total
    m["io.save.s"] = tr.stat("io.save").total
    m["io.bytes_written"] = float(bytes_written)
    m["hierarchy.stage1.s"] = tr.stat("hierarchy.stage1").total
    m["hierarchy.stage2.s"] = tr.stat("hierarchy.stage2").total
    m["hierarchy.current.s"] = tr.stat("hierarchy.current").total
    m["hierarchy.init.de_s"] = tr.stat("hierarchy.init.de").total
    m["hierarchy.init.de_evals"] = float(tr.counters.get("hierarchy.init.de_evals", 0))
    m["hierarchy.init.polish_s"] = tr.stat("hierarchy.init.polish").total
    m["hierarchy.mixture.self_s"] = tr.stat("hierarchy.mixture").self_time
    stage2 = tr.stat("hierarchy.stage2")
    m["hierarchy.stage2.rows_per_eval"] = (
        tr.counters.get("hierarchy.stage2.rows", 0) / stage2.calls if stage2.calls else 0.0
    )
    sl, tm = tr.stat("samplers.slice"), tr.stat("samplers.tmcmc")
    evals = {
        kind: [st for name, st in tr.stats.items() if name.startswith(f"eval.{kind}.")]
        for kind in ("slice", "tmcmc")
    }
    m["samplers.slice.evals"] = float(sum(st.calls for st in evals["slice"]))
    m["samplers.slice.self_s"] = sl.self_time
    draws = tr.counters.get("samplers.slice.draws", 0)
    m["samplers.slice.evals_per_draw"] = m["samplers.slice.evals"] / draws if draws else 0.0
    m["samplers.tmcmc.evals"] = float(sum(st.calls for st in evals["tmcmc"]))
    m["samplers.tmcmc.self_s"] = tm.self_time
    m["samplers.tmcmc.stages"] = float(tr.counters.get("samplers.tmcmc.stages", 0))
    for p in ("stage1", "stage2", "current"):
        both = [tr.stat(f"eval.{kind}.{p}") for kind in ("slice", "tmcmc")]
        calls = sum(st.calls for st in both)
        m[f"samplers.eval_us.{p}"] = 1e6 * sum(st.total for st in both) / calls if calls else 0.0
    ll = tr.stat("targets.dataset_loglik")
    m["targets.dataset_loglik.calls"] = float(ll.calls)
    m["targets.dataset_loglik.self_s"] = ll.self_time
    m["targets.dataset_loglik.us_per_call"] = _us(ll)
    pr = tr.stat("models.predict")
    m["models.predict.calls"] = float(pr.calls)
    m["models.predict.points"] = float(tr.counters.get("models.predict.points", 0))
    m["models.predict.self_s"] = pr.self_time
    m["models.cycles_to_failure.calls"] = float(tr.stat("models.cycles_to_failure").calls)
    m["prognosis.rul_distribution.s"] = tr.stat("prognosis.rul_distribution").total
    m["prognosis.predict_trajectory.s"] = tr.stat("prognosis.predict_trajectory").total
    m["prognosis.end_of_life.calls"] = float(tr.stat("prognosis.end_of_life").calls)
    return m


def call_counts(tr: Tracer) -> dict[str, int]:
    """Every call and work count of the pass; these repeat exactly for a seed."""
    counts = {f"{name}.calls": st.calls for name, st in sorted(tr.stats.items())}
    counts.update({k: int(v) for k, v in sorted(tr.counters.items())})
    return counts


def unit_of(metric: str) -> str:
    """The unit of a metric or figure, read off its name."""
    if metric.endswith("ess_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if ".eval_us." in metric or metric.endswith(".us_per_call"):
        return "us"
    if metric.endswith("evidence_se"):
        return "nats"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "io.bytes_written":
        return "B"
    return "count"
