"""Per-layer tracing from outside the package.

Every call into a layer's public function goes through a module attribute
(``loop.progress``, ``kr.plan.check_executable`` ...).  The traced run
swaps those attributes for timing wrappers, so the package itself is not
edited.  A span's self time is its duration minus the time of the traced
spans it encloses.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict

from harness import Patch, cpu


class Tracer:
    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # results of interest, per name
        self._children: list[float] = []

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            t0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = cpu() - t0
                inner = tracer._children.pop()
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - inner
                tracer.calls[name] += 1
                if tracer._children:
                    tracer._children[-1] += dur
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced


def per_pass(setup: Tracer, passes: Tracer, n_passes: int) -> Tracer:
    """Set-up spans once plus the mean of the traced passes."""
    out = Tracer()
    for src, k in ((setup, 1.0), (passes, 1.0 / n_passes)):
        for mine, theirs in (
            (out.total_s, src.total_s),
            (out.self_s, src.self_s),
            (out.calls, src.calls),
            (out.counts, src.counts),
        ):
            for name, value in theirs.items():
                mine[name] += value * k
    return out


def _count_ok(counts, result) -> None:
    counts["check_executable.ok"] += int(result[0])


def _count_plan(counts, result) -> None:
    counts["plan.expanded"] += result.expanded
    counts["plan.success"] += int(result.success)


def layer_patch(tracer: Tracer) -> Patch:
    """Wrap every binding through which the package and the benchmark
    reach the traced functions."""
    from fortdefense import env, explain, features, loop, models, policies

    # ``fortdefense.kr`` re-exports functions named like its modules
    # (``ground``, ``plan``), so fetch the modules themselves.
    beliefs, goals, ground, lang, plan = (
        importlib.import_module(f"fortdefense.kr.{name}")
        for name in ("beliefs", "goals", "ground", "lang", "plan")
    )

    table = [
        # (span name, original, bindings to replace, result hook)
        ("kr.lang.parse_domain", lang.parse_domain, [loop], None),
        ("kr.ground.ground", ground.ground, [loop, explain], None),
        ("kr.ground.restrict", ground.restrict, [loop], None),
        ("kr.goals.select_goal", goals.select_goal, [loop], None),
        ("kr.goals.compute_relevance", goals.compute_relevance, [loop], None),
        ("kr.beliefs.progress", beliefs.progress, [loop, plan, explain], None),
        ("kr.beliefs.close_defined", beliefs.close_defined, [beliefs, loop], None),
        (
            "kr.beliefs.check_executable",
            beliefs.check_executable,
            [beliefs, loop, plan, explain],
            _count_ok,
        ),
        ("loop.build_schedule", loop.build_schedule, [loop, explain], None),
        ("env.step", env.step, [loop], None),
        ("policies.policy_action", policies.policy_action, [loop], None),
        ("features.extract", features.extract, [loop], None),
        ("models.learn_stacked", models.learn_stacked, [models], None),
        ("models.predict_action", models.predict_action, [loop], None),
    ]
    targets = []
    for name, fn, owners, hook in table:
        wrapped = tracer.wrap(name, fn, hook)
        targets += [(owner, fn.__name__, wrapped) for owner in owners]
    # loop and explain import the planner as ``search_plan``
    traced_plan = tracer.wrap("kr.plan.plan", plan.plan, _count_plan)
    targets += [(owner, "search_plan", traced_plan) for owner in (loop, explain)]
    ctl = loop.AdHocController
    targets.append((ctl, "act", tracer.wrap("loop.act", ctl.act)))
    targets.append((ctl, "observe", tracer.wrap("loop.observe", ctl.observe)))
    return Patch(targets)


def layer_metrics(tracer: Tracer, decisions: dict, explain_extra: dict) -> dict:
    """The per-layer metric set from a :func:`per_pass` tracer.  Layers a
    workload does not reach read 0."""

    def s(name):
        return tracer.total_s.get(name, 0.0)

    def self_s(name):
        return tracer.self_s.get(name, 0.0)

    def calls(name):
        return tracer.calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    m = {
        "kr.beliefs.progress.self_s": (self_s("kr.beliefs.progress"), "s"),
        "kr.beliefs.progress.calls": (calls("kr.beliefs.progress"), "count"),
        "kr.beliefs.close_defined.s": (s("kr.beliefs.close_defined"), "s"),
        "kr.beliefs.check_executable.s": (s("kr.beliefs.check_executable"), "s"),
        "kr.beliefs.check_executable.calls": (calls("kr.beliefs.check_executable"), "count"),
        "kr.beliefs.check_executable.ok_ratio": (
            ratio(c["check_executable.ok"], tracer.calls["kr.beliefs.check_executable"]),
            "ratio",
        ),
        "kr.plan.plan.self_s": (self_s("kr.plan.plan"), "s"),
        "kr.plan.plan.calls": (calls("kr.plan.plan"), "count"),
        "kr.plan.expanded": (c["plan.expanded"], "count"),
        "kr.plan.success_ratio": (
            ratio(c["plan.success"], tracer.calls["kr.plan.plan"]),
            "ratio",
        ),
        "loop.build_schedule.s": (s("loop.build_schedule"), "s"),
        "kr.ground.restrict.s": (s("kr.ground.restrict"), "s"),
        "kr.ground.restrict.calls": (calls("kr.ground.restrict"), "count"),
        "kr.goals.select_goal.s": (s("kr.goals.select_goal"), "s"),
        "kr.goals.compute_relevance.s": (s("kr.goals.compute_relevance"), "s"),
        "loop.act.s": (s("loop.act"), "s"),
        "loop.observe.s": (s("loop.observe"), "s"),
        "kr.lang.parse_domain.s": (s("kr.lang.parse_domain"), "s"),
        "kr.ground.ground.s": (s("kr.ground.ground"), "s"),
        "env.step.s": (s("env.step"), "s"),
        "env.step.calls": (calls("env.step"), "count"),
        "policies.policy_action.s": (s("policies.policy_action"), "s"),
        "features.extract.s": (s("features.extract"), "s"),
        "models.learn_stacked.s": (s("models.learn_stacked"), "s"),
        "models.learn_stacked.calls": (calls("models.learn_stacked"), "count"),
        "models.predict_action.s": (s("models.predict_action"), "s"),
    }
    for name in (
        "loop.act.calls",
        "loop.act.replans",
        "loop.act.reuses",
        "loop.act.fallbacks",
        "loop.observe.reconciled",
        "loop.episodes.guard_wins",
    ):
        m[name] = (decisions.get(name, 0), "count")
    for name, unit in (
        ("explain.why.ms_p50", "ms"),
        ("explain.why_belief.ms_p50", "ms"),
        ("explain.why_not.s", "s"),
        ("explain.verify_answer.s", "s"),
        ("explain.save_traces.s", "s"),
        ("explain.load_traces.s", "s"),
        ("explain.trace_bytes", "bytes"),
    ):
        m[name] = (explain_extra.get(name, 0.0), unit)
    return m
