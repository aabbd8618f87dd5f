"""Span and counter recorder for the traced run, and the per-layer metrics.

Tracing is done from outside the program: ``install`` replaces divset's
public functions at the names their callers look up (for example
``divset.grpo.composite_reward``, which is what ``train`` calls) with
wrappers that record a span, and also wraps ``numpy.linalg.cholesky`` and
``numpy.linalg.eigvalsh``. Nothing inside ``src/`` changes.

A span has a name, start, end, parent span and request id; a mark is a
zero-length span that only counts (and may carry a value). Both stay in
memory until ``Recorder.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

import numpy as np


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.value = array("d")
        self._stack: list[int] = []
        self.request_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _append(self, nid: int, value: float) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.value.append(value)
        return i

    def open(self, nid: int) -> int:
        i = self._append(nid, 0.0)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def mark(self, nid: int, value: float = 1.0) -> None:
        self._append(nid, value)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            request=np.frombuffer(self.request, dtype=np.intc),
            value=np.frombuffer(self.value),
        )


def _span(rec: Recorder, name: str, fn, value=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if value is not None:
            rec.value[i] = value(result)
        return result

    return traced


def _mark(rec: Recorder, name: str, fn, value=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.mark(nid, 1.0 if value is None else value(result))
        return result

    return counted


def _all_zero(advantages) -> float:
    return float(not np.any(advantages))


# (module, attribute, span name, kind, value of the result). Every lookup
# site of a function gets the same span name, so e.g. composite_reward is
# counted whether grpo, rollout or the CLI calls it.
TARGETS = (
    ("divset.cli", "main", "cli.main", _span, None),
    ("divset.cli", "load_embeddings", "embeddings.load_embeddings", _span, len),
    ("divset.embeddings.EmbeddingSet", "get", "embeddings.get", _mark, None),
    ("divset.cli", "make_world", "simulation.make_world", _span, None),
    ("divset.cli", "run_experiment", "simulation.run_experiment", _span, None),
    ("divset.cli", "train", "grpo.train", _span, None),
    ("divset.simulation", "train", "grpo.train", _span, None),
    ("divset.grpo", "sample_group", "grpo.sample_group", _span, lambda group: group.group_size),
    ("divset.grpo", "surrogate_gradient", "grpo.surrogate_gradient", _span, None),
    ("divset.grpo", "policy_probs", "grpo.policy_probs", _mark, None),
    ("divset.grpo", "context_features", "grpo.context_features", _mark, None),
    ("divset.grpo", "compute_advantages", "grpo.compute_advantages", _mark, _all_zero),
    ("divset.cli", "rollout_policy", "rollout.rollout_policy", _span, None),
    ("divset.simulation", "rollout_policy", "rollout.rollout_policy", _span, None),
    ("divset.cli", "greedy_select", "rollout.greedy_select", _span, None),
    ("divset.cli", "brute_force_select", "rollout.brute_force_select", _span, None),
    ("divset.cli", "composite_reward", "rewards.composite_reward", _span, None),
    ("divset.grpo", "composite_reward", "rewards.composite_reward", _span, None),
    ("divset.rollout", "composite_reward", "rewards.composite_reward", _span, None),
    ("divset.rewards", "marginal_gain", "rewards.marginal_gain", _span, None),
    ("divset.rewards.ReferenceSet", "__post_init__", "rewards.ReferenceSet", _span, None),
    ("divset.rewards", "logdet_regularized_gram", "kernel.logdet_regularized_gram", _span, None),
    ("divset.kernel", "logdet_regularized_gram", "kernel.logdet_regularized_gram", _span, None),
    ("divset.rollout", "logdet_regularized_gram", "kernel.logdet_regularized_gram", _span, None),
    ("divset.metrics", "build_kernel", "kernel.build_kernel", _span, None),
    ("divset.rewards", "build_kernel", "kernel.build_kernel", _span, None),
    ("divset.rollout", "build_kernel", "kernel.build_kernel", _span, None),
    ("divset.cli", "metric_report", "metrics.metric_report", _span, None),
    ("divset.metrics", "vendi_score", "metrics.vendi_score", _span, None),
    ("divset.simulation", "vendi_score", "metrics.vendi_score", _span, None),
    ("divset.metrics", "truncated_spectral_entropy", "metrics.truncated_spectral_entropy", _span, None),
    ("divset.metrics", "mean_alignment", "metrics.mean_alignment", _span, None),
    ("divset.simulation", "mean_alignment", "metrics.mean_alignment", _span, None),
    ("numpy.linalg", "cholesky", "numpy.linalg.cholesky", _span, None),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh", _span, None),
)

REPORT_BYTES = "cli.report_bytes"


def _resolve(dotted: str):
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def install() -> Recorder:
    """Wrap every target in place and return the recorder they feed."""
    rec = Recorder()
    for owner, attr, name, kind, value in TARGETS:
        obj = _resolve(owner)
        setattr(obj, attr, kind(rec, name, getattr(obj, attr), value))
    rec.name_id(REPORT_BYTES)
    return rec


class Trace:
    """Spans loaded back from a dump, with self times and ancestry.

    Times are scaled to the reference host speed (see speed.py).
    """

    def __init__(self, path, scales: list[float]) -> None:
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name = z["name"].astype(np.int64)
            self.start, self.end = z["start"], z["end"]
            self.parent = z["parent"].astype(np.int64)
            self.request = z["request"].astype(np.int64)
            self.value = z["value"]
        # Durations at the reference host speed, by the scale of each span's request.
        self.scale = np.asarray(scales)[self.request]
        self.dur = (self.end - self.start) * self.scale
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size)
        self.self_time = self.dur - child_time

    def of(self, name: str) -> np.ndarray:
        """Mask of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def inside(self, name: str) -> np.ndarray:
        """Mask of the spans that are ``name`` or run inside one."""
        target = self.of(name)
        flag = target.copy()
        up = self.parent.copy()
        live = up >= 0
        while live.any():
            flag[live] |= target[up[live]]
            up[live] = self.parent[up[live]]
            live = up >= 0
        return flag


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(path, scales: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see bench/README.md), from its
    span dump and the speed scale of each of its requests.

    Times and counts are per request unless the name says otherwise.
    """
    t, R = Trace(path, scales), len(scales)
    count = lambda mask: int(mask.sum())  # noqa: E731
    total = lambda mask: float(t.dur[mask].sum())  # noqa: E731
    own = lambda mask: float(t.self_time[mask].sum())  # noqa: E731

    in_train = t.inside("grpo.train")
    sample = t.of("grpo.sample_group") & in_train
    iterations = count(sample)
    advantages = t.of("grpo.compute_advantages") & in_train
    composite = t.of("rewards.composite_reward")
    cholesky = t.of("numpy.linalg.cholesky")
    logdet = t.of("kernel.logdet_regularized_gram")
    brute = t.of("rollout.brute_force_select")
    report = t.of("metrics.metric_report")
    eigvalsh = t.of("numpy.linalg.eigvalsh")
    load = t.of("embeddings.load_embeddings")

    # One (arm, seed) pair of run_experiment runs from one train call to the
    # next, the last one to the end of the experiment.
    pairs = []
    for exp in np.flatnonzero(t.of("simulation.run_experiment")):
        starts = t.start[t.of("grpo.train") & (t.parent == exp)]
        pairs += (np.diff(np.append(starts, t.end[exp])) * t.scale[exp]).tolist()

    return {
        "grpo.iterations": iterations,
        "grpo.train_self_s": own(t.of("grpo.train")) / R,
        "grpo.sample_group_self_s": own(t.of("grpo.sample_group")) / R,
        "grpo.surrogate_gradient_self_s": own(t.of("grpo.surrogate_gradient")) / R,
        "grpo.policy_probs_calls_per_iter": _ratio(count(t.of("grpo.policy_probs") & in_train), iterations),
        "grpo.context_features_calls_per_iter": _ratio(count(t.of("grpo.context_features") & in_train), iterations),
        "grpo.rewards_per_sample": _ratio(count(composite & in_train), t.value[sample].sum()),
        "grpo.zero_adv_group_ratio": _ratio(t.value[advantages].sum(), count(advantages)),
        "simulation.run_s_p50": statistics.median(pairs) if pairs else 0.0,
        "simulation.make_world_s": total(t.of("simulation.make_world")) / R,
        "rollout.policy_rollout_s": total(t.of("rollout.rollout_policy")) / R,
        "rewards.composite_calls": count(composite) / R,
        "rewards.composite_self_s": own(composite) / R,
        "rewards.marginal_gain_self_s": own(t.of("rewards.marginal_gain")) / R,
        "rewards.refset_builds": count(t.of("rewards.ReferenceSet")) / R,
        "rewards.refset_self_s": own(t.of("rewards.ReferenceSet")) / R,
        "rewards.cholesky_per_composite": _ratio(
            count(cholesky & t.inside("rewards.composite_reward")), count(composite)
        ),
        "kernel.cholesky_calls": count(cholesky) / R,
        "kernel.cholesky_s": total(cholesky) / R,
        "kernel.logdet_calls": count(logdet) / R,
        "kernel.logdet_self_s": own(logdet) / R,
        "rollout.greedy_self_s": own(t.of("rollout.greedy_select")) / R,
        "rollout.greedy_composite_calls": count(composite & t.inside("rollout.greedy_select")) / R,
        "rollout.bruteforce_s": total(brute) / R,
        "rollout.bruteforce_subsets_per_s": _ratio(
            count(logdet & t.inside("rollout.brute_force_select")), total(brute)
        ),
        "metrics.report_s": total(report) / R,
        "metrics.vendi_s": total(t.of("metrics.vendi_score")) / R,
        "metrics.truncated_entropy_s": total(t.of("metrics.truncated_spectral_entropy")) / R,
        "metrics.alignment_s": total(t.of("metrics.mean_alignment")) / R,
        "metrics.spectrum_calls_per_report": _ratio(count(eigvalsh & t.inside("metrics.metric_report")), count(report)),
        "kernel.build_kernel_calls": count(t.of("kernel.build_kernel")) / R,
        "kernel.build_kernel_self_s": own(t.of("kernel.build_kernel")) / R,
        "kernel.eigvalsh_calls": count(eigvalsh) / R,
        "kernel.eigvalsh_s": total(eigvalsh) / R,
        "embeddings.load_s": total(load) / R,
        "embeddings.load_lines_per_s": _ratio(t.value[load].sum(), total(load)),
        "embeddings.get_calls": count(t.of("embeddings.get")) / R,
        "cli.command_self_s": own(t.of("cli.main")) / R,
        REPORT_BYTES: float(t.value[t.of(REPORT_BYTES)].sum()) / R,
    }
