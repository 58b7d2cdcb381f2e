"""The three workloads.

Each workload object has ``setup()`` (repeated and timed as ``setup_s``),
``setup_once()`` (a costly part of set-up, timed once and added),
``run_pass()`` (one pass over the workload's whole input, returning a
:class:`Pass`; a run repeats it) and ``check(out)`` (errors in a pass's
outputs).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import numpy as np

from harness import (
    OUT_DIR,
    Patch,
    StepRecorder,
    cpu,
    decision_counts,
    decision_items,
    fingerprint,
)
import checks
from hostspeed import SPEED, timed

from fortdefense import env, explain, loop, models
from fortdefense.env import GridConfig
from fortdefense.kr.beliefs import check_executable
from fortdefense.kr.ground import restrict, symbol_agent_id
from fortdefense.kr.plan import candidate_actions, goal_holds, replay

HORIZON = 8


@dataclass
class Pass:
    cpu_s: float  # CPU seconds of the pass's work, reference runs left out
    attempted: int
    failed: int
    ops: list  # (wall start, wall end, CPU s) per timed operation
    pred_accuracy: float
    fingerprint: str
    spans: list = None  # timed intervals that weight the pass's speed; ops if None
    decisions: dict = field(default_factory=dict)  # see harness.decision_counts
    extra: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)  # raw outputs for check()


def _tick_check_all(recorder, episode_outcomes) -> list[str]:
    episodes = recorder.episodes()
    if len(episodes) != len(episode_outcomes):
        return [f"{len(episodes)} recorded episodes, {len(episode_outcomes)} results"]
    errors = []
    for ticks, outcome in zip(episodes, episode_outcomes):
        errors += checks.tick_errors(ticks, outcome, env.legal_actions)
    return errors


def _plan_replay_errors(gdom, records) -> list[str]:
    """Every successful plan, replayed under the same restriction and
    schedule of predicted actions, reaches a belief where its goal holds."""
    errors = []
    for rec in records:
        for s in rec.steps:
            if not (s.replanned and s.plan_success and s.plan_actions):
                continue
            gdom_t = restrict(gdom, s.fine_regions)
            schedule = loop.build_schedule(s.belief, gdom_t, s.predictions, rec.horizon)
            end = replay(s.belief, s.plan_actions, gdom_t, schedule)
            if not goal_holds(end, s.goal):
                errors.append(f"{rec.policy}/{rec.seed} step {s.step}: plan misses its goal")
    return errors


def _ad_hoc_games(config, policy, n_episodes, seed):
    """``loop.run_games`` for the ad hoc guard from an empty library, with
    every tick recorded.  Returns (stats, recorder, CPU seconds, each
    ``act`` call as a :func:`hostspeed.timed` op)."""
    library = models.ModelLibrary()
    recorder = StepRecorder(loop.step, library)
    act = loop.AdHocController.act
    acts = []

    def timed_act(controller, state):
        action, op = timed(act, controller, state)
        acts.append(op)
        return action

    with Patch([(loop, "step", recorder), (loop.AdHocController, "act", timed_act)]):
        spent0 = SPEED.spent_s
        t0 = cpu()
        stats = loop.run_games(
            config,
            policy,
            n_episodes,
            seed=seed,
            library=library,
            horizon=HORIZON,
            collect_traces=True,
        )
        seconds = cpu() - t0 - (SPEED.spent_s - spent0)
    return stats, recorder, seconds, acts


def _ad_hoc_errors(config, gdom, stats, recorder) -> list[str]:
    errors = _tick_check_all(recorder, [e.outcome for e in stats.episodes])
    for ticks, rec, ep in zip(recorder.episodes(), stats.records, stats.episodes):
        got = checks.recount_accuracy(
            rec.steps, ticks, lambda sym: symbol_agent_id(config, sym)
        )
        if got != (ep.pred_correct, ep.pred_total):
            errors.append(
                f"{rec.policy}/{rec.seed}: accuracy counts {ep.pred_correct}/"
                f"{ep.pred_total}, recount {got[0]}/{got[1]}"
            )
    errors += _plan_replay_errors(gdom, stats.records)
    return errors


class Workload:
    MIN_PASSES = 1  # passes every untraced run makes, however long they take
    layer_extra: dict = {}  # per-layer figures from set-up

    def setup_once(self) -> None:
        pass


class AdhocW0(Workload):
    """W0: the ad hoc guard with P1, B220 and B1600 teams, three episodes
    each from episode seed 0, horizon 8, each policy from an empty model
    library.  The seed only orders the three policy blocks."""

    POLICIES = ("P1", "B220", "B1600")
    EPISODES = 3
    EPISODE_SEED = 0
    # The median decision sits where plan reuse gives way to replanning;
    # over one pass's 136 decisions it spread 0.09 of itself across runs.
    MIN_PASSES = 2

    def __init__(self, seed: int):
        self.config = GridConfig()
        self.order = list(self.POLICIES)
        random.Random(seed).shuffle(self.order)

    def setup(self) -> None:
        self.gdom = loop.ground(loop.load_domain(), self.config, horizon=HORIZON)

    def run_pass(self) -> Pass:
        cpu_s = 0.0
        by_policy = {}
        for policy in self.order:
            stats, recorder, secs, acts = _ad_hoc_games(
                self.config, policy, self.EPISODES, self.EPISODE_SEED
            )
            cpu_s += secs
            by_policy[policy] = (stats, recorder, acts)
        runs = [by_policy[p][:2] for p in self.POLICIES]
        records = [r for stats, _ in runs for r in stats.records]
        episodes = [e for stats, _ in runs for e in stats.episodes]
        acts = [op for p in self.POLICIES for op in by_policy[p][2]]
        total = sum(e.pred_total for e in episodes)
        correct = sum(e.pred_correct for e in episodes)
        return Pass(
            cpu_s=cpu_s,
            attempted=len(acts),
            failed=0,
            ops=acts,
            pred_accuracy=correct / total,
            fingerprint=fingerprint(decision_items(records)),
            decisions=decision_counts(records),
            extra={
                "guard_wins": sum(e.guards_win for e in episodes),
                "adhoc_ticks_alive": len(acts),
                "pred_correct": correct,
                "pred_total": total,
            },
            data={"runs": runs},
        )

    def check(self, out: Pass) -> list[str]:
        errors = []
        for stats, recorder in out.data["runs"]:
            errors += _ad_hoc_errors(self.config, self.gdom, stats, recorder)
        return errors


class OfflineLearn(Workload):
    """All-scripted games over the six policies, one ``loop.run_games`` call
    per game, examples collected through ``example_sink``; then stacked
    models for guards and attackers learned on the training games and
    scored on the held-out games.  The seed orders the games; examples
    are pooled in game order whatever the play order."""

    POLICIES = ("P1", "P2", "B220", "B650", "B1240", "B1600")
    TRAIN_EPISODES = 12
    HOLDOUT_EPISODES = 6
    EPISODE_SEED = 1000

    def __init__(self, seed: int):
        self.config = GridConfig()
        n = self.TRAIN_EPISODES + self.HOLDOUT_EPISODES
        self.games = [(p, i) for p in self.POLICIES for i in range(n)]
        self.play_order = list(range(len(self.games)))
        random.Random(seed).shuffle(self.play_order)

    def setup(self) -> None:
        loop.ground(loop.load_domain(), self.config, horizon=HORIZON)
        os.makedirs(OUT_DIR, exist_ok=True)

    def _collect(self, recorder):
        """Play every game; returns the training and held-out examples by
        role, each game's result and each game as a timed op, in game order."""
        examples, results, game_ops = {}, {}, {}
        with Patch([(loop, "step", recorder)]):
            for g in self.play_order:
                policy, i = self.games[g]
                sink = {"guard": [], "attacker": []}
                stats, game_ops[g] = timed(
                    loop.run_games,
                    self.config,
                    policy,
                    1,
                    seed=self.EPISODE_SEED + i,
                    ad_hoc=False,
                    example_sink=sink,
                )
                e = stats.episodes[0]
                examples[g] = sink
                results[g] = (policy, e.seed, e.outcome, e.steps)
        train = {"guard": [], "attacker": []}
        held = {"guard": [], "attacker": []}
        for g, (_, i) in enumerate(self.games):
            pool = train if i < self.TRAIN_EPISODES else held
            for role in pool:
                pool[role] += examples[g][role]
        games = sorted(results)
        return train, held, [results[g] for g in games], [game_ops[g] for g in games]

    def run_pass(self) -> Pass:
        recorder = StepRecorder(loop.step)
        spent0 = SPEED.spent_s
        t0 = cpu()
        train, held, outcomes, game_ops = self._collect(recorder)
        collect_s = cpu() - t0 - (SPEED.spent_s - spent0)
        learned, scores, arrays, learn_ops = {}, {}, {}, []
        for role in ("guard", "attacker"):
            X = np.array([v for v, _ in train[role]], dtype=float)
            y = np.array([k for _, k in train[role]], dtype=int)
            learned[role], op = timed(models.learn_stacked, X, y)
            learn_ops.append(op)
        for role in ("guard", "attacker"):
            Xh = np.array([v for v, _ in held[role]], dtype=float)
            yh = np.array([k for _, k in held[role]], dtype=int)
            arrays[role] = (Xh, yh)
            scores[role] = models.accuracy(learned[role], Xh, yh)
        pass_s = cpu() - t0 - (SPEED.spent_s - spent0)
        n_held = {role: len(arrays[role][1]) for role in arrays}
        quality = sum(scores[r] * n_held[r] for r in scores) / sum(n_held.values())
        predictions = {
            role: [learned[role].predict(row) for row in arrays[role][0]] for role in arrays
        }
        items = [f"{p}|{s}|{o}|{n}" for p, s, o, n in outcomes]
        items += [f"{role}|{predictions[role]}" for role in sorted(predictions)]
        return Pass(
            cpu_s=pass_s,
            attempted=len(outcomes),
            failed=0,
            ops=game_ops,
            pred_accuracy=quality,
            fingerprint=fingerprint(items),
            spans=game_ops + learn_ops,
            extra={
                "ticks": len(recorder.ticks),
                "ticks_per_s": len(recorder.ticks) / collect_s,
                "collect_s": collect_s,
                "learn_s": sum(op[2] for op in learn_ops),
                "holdout_acc": scores,
                "holdout_majority": {r: checks.majority_rate(arrays[r][1]) for r in arrays},
                "examples": {r: len(train[r]) + len(held[r]) for r in train},
                "guard_wins": sum(o[2].startswith("guards") for o in outcomes),
            },
            data={
                "recorder": recorder,
                "outcomes": outcomes,
                "examples": sum(len(train[r]) + len(held[r]) for r in train),
                "learned": learned,
                "arrays": arrays,
                "predictions": predictions,
            },
        )

    def check(self, out: Pass) -> list[str]:
        d = out.data
        played = [d["outcomes"][g][2] for g in self.play_order]
        errors = _tick_check_all(d["recorder"], played)
        living = sum(
            sum(a.alive for a in t.before.agents) for t in d["recorder"].ticks
        )
        if d["examples"] != living:
            errors.append(f"{d['examples']} examples for {living} living agent-ticks")
        for role, acc in out.extra["holdout_acc"].items():
            base = out.extra["holdout_majority"][role]
            if not acc > base:
                errors.append(f"{role} held-out accuracy {acc:.4f} <= majority {base:.4f}")
        lib = models.ModelLibrary()
        lib.models = {0: d["learned"]["guard"], 1: d["learned"]["attacker"]}
        path = os.path.join(OUT_DIR, "library.json")
        models.save_library(lib, path)
        back = models.load_library(path)
        for tid, role in ((0, "guard"), (1, "attacker")):
            again = [back.models[tid].predict(row) for row in d["arrays"][role][0]]
            if again != d["predictions"][role]:
                errors.append(f"{role} model predicts differently after save/load")
        return errors


def _answer(trace, text):
    """(answer, None), or (None, the error) for a query the package fails."""
    try:
        return explain.answer_query(trace, text), None
    except (explain.QueryParseError, explain.TraceQueryError, KeyError) as exc:
        return None, exc


def query_action(atom) -> str:
    """An action atom in the query grammar (without the agent argument)."""
    if atom.pred == "move":
        return f"move({atom.args[1]}, {atom.args[2]})"
    if atom.pred == "noop":
        return "noop"
    return f"{atom.pred}({atom.args[1]})"


class Explain(Workload):
    """Traces of the ad hoc guard for P1 and B650, two episodes each from
    episode seed 0, written and read back; then a fixed query mix answered
    from the read-back traces and verified.  The seed orders the queries."""

    POLICIES = ("P1", "B650")
    EPISODES = 2
    EPISODE_SEED = 0
    LEGAL_WHY_NOTS_PER_STEP = 1
    # Two passes give the 144 timed why-nots a 90th percentile needs.
    MIN_PASSES = 2
    # Queries that fail on the current program (see the README).  The
    # step-1 whys in trace syntax are added to these in set-up.
    KNOWN_FAILURES = {
        ("P1", 0, "why not shoot(attacker2) in step 12"): "KeyError",
        ("P1", 1, "why not shoot(attacker2) in step 15"): "KeyError",
    }

    def __init__(self, seed: int):
        self.config = GridConfig()
        self.seed = seed
        self.layer_extra = {}
        self.path = os.path.join(OUT_DIR, "traces.jsonl")
        self.path_again = os.path.join(OUT_DIR, "traces_again.jsonl")

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.gdom = loop.ground(loop.load_domain(), self.config, horizon=HORIZON)

    def setup_once(self) -> None:
        self.runs = [
            _ad_hoc_games(self.config, policy, self.EPISODES, self.EPISODE_SEED)[:2]
            for policy in self.POLICIES
        ]
        self.records = [r for stats, _ in self.runs for r in stats.records]
        t0 = cpu()
        explain.save_traces(self.records, self.config, self.path)
        t1 = cpu()
        self.traces = explain.load_traces(self.path)
        t2 = cpu()
        with open(self.path, "rb") as f:
            self.trace_bytes = f.read()
        self.layer_extra = {
            "explain.save_traces.s": t1 - t0,
            "explain.load_traces.s": t2 - t1,
            "explain.trace_bytes": len(self.trace_bytes),
        }
        self.queries = None  # made from the traces at the first pass
        self.setup_errors = None  # checked at the first check

    def _make_queries(self) -> None:
        self.queries = self._mix()
        random.Random(self.seed).shuffle(self.queries)
        self.expected_failures = dict(self.KNOWN_FAILURES)
        for trace in self.traces:
            key = (trace.policy, trace.seed, self._trace_syntax_why(trace.steps[0]))
            self.expected_failures[key] = "QueryParseError"

    @staticmethod
    def _trace_syntax_why(rec) -> str:
        return f"why {rec.chosen} in step {rec.step}"

    def _mix(self) -> list[tuple[int, str, str]]:
        """(trace index, query, kind) for every decision step: why for the
        chosen action; why-belief for every atom about the guard itself;
        why-not for every inexecutable alternative ("why_not_blocked") and
        for the first executable alternative in the planner's
        canonical order ("why_not_legal").  Per trace, the step-1 why is
        also asked in the trace's own action syntax."""
        out = []
        for ti, trace in enumerate(self.traces):
            ah = trace.gdom.ah_symbol
            out.append((ti, self._trace_syntax_why(trace.steps[0]), "why"))
            for rec in trace.steps:
                out.append((ti, f"why {query_action(rec.chosen)} in step {rec.step}", "why"))
                for atom in sorted(rec.belief.atoms, key=str):
                    if atom.args and atom.args[0] == ah:
                        out.append((ti, f"why belief {atom} at step {rec.step}", "why_belief"))
                legal = 0
                for action in candidate_actions(rec.belief, trace.gdom):
                    if action == rec.chosen:
                        continue
                    text = f"why not {query_action(action)} in step {rec.step}"
                    if not check_executable(rec.belief, action, trace.gdom)[0]:
                        out.append((ti, text, "why_not_blocked"))
                    elif legal < self.LEGAL_WHY_NOTS_PER_STEP:
                        legal += 1
                        out.append((ti, text, "why_not_legal"))
        return out

    def run_pass(self) -> Pass:
        if self.queries is None:
            self._make_queries()
        t0 = cpu()
        explain.save_traces(self.traces, self.config, self.path_again)
        again = explain.load_traces(self.path_again)
        io_s = cpu() - t0
        answers, failures, timed_ops = [], {}, []
        lat = {"why": [], "why_belief": [], "why_not_blocked": [], "why_not_legal": []}
        query_s = 0.0
        for ti, text, kind in self.queries:
            trace = again[ti]
            if kind == "why_not_legal":
                (answer, exc), op = timed(_answer, trace, text)
                dt = op[2]
            else:
                t = cpu()
                answer, exc = _answer(trace, text)
                dt = cpu() - t
            query_s += dt
            if exc is not None:
                failures[(trace.policy, trace.seed, text)] = type(exc).__name__
                continue
            lat[kind].append(dt * 1000.0)
            answers.append((ti, text, answer))
            if kind == "why_not_legal":
                timed_ops.append(op)
        items = decision_items(self.records)
        items += sorted(
            f"{again[ti].policy}|{again[ti].seed}|{text}|{a.text}" for ti, text, a in answers
        )
        items += sorted(f"{p}|{s}|{t}|{k}" for (p, s, t), k in failures.items())
        why_not = lat["why_not_blocked"] + lat["why_not_legal"]
        return Pass(
            cpu_s=io_s + query_s,
            attempted=len(self.queries),
            failed=len(failures),
            ops=timed_ops,
            pred_accuracy=self._accuracy(),
            fingerprint=fingerprint(items),
            decisions=decision_counts(self.records),
            extra={
                "queries": {k: len(v) for k, v in lat.items()},
                "answered": len(answers),
                "io_s": io_s,
                "explain.why.ms_p50": float(np.median(lat["why"])),
                "explain.why_belief.ms_p50": float(np.median(lat["why_belief"])),
                "explain.why_not.s": sum(why_not) / 1000.0,
            },
            data={"answers": answers, "failures": failures, "traces": again},
        )

    def _accuracy(self) -> float:
        episodes = [e for stats, _ in self.runs for e in stats.episodes]
        return sum(e.pred_correct for e in episodes) / sum(e.pred_total for e in episodes)

    def check(self, out: Pass) -> list[str]:
        if self.setup_errors is None:
            self.setup_errors = []
            for stats, recorder in self.runs:
                self.setup_errors += _ad_hoc_errors(self.config, self.gdom, stats, recorder)
        errors = list(self.setup_errors)
        with open(self.path_again, "rb") as f:
            if f.read() != self.trace_bytes:
                errors.append("save -> load -> save changed the trace file")
        t0 = cpu()
        for ti, text, answer in out.data["answers"]:
            if not explain.verify_answer(out.data["traces"][ti], answer):
                errors.append(f"answer to {text!r} fails verify_answer")
        out.extra["explain.verify_answer.s"] = cpu() - t0
        errors += checks.failure_errors(out.data["failures"], self.expected_failures)
        return errors


WORKLOADS = {"adhoc-w0": AdhocW0, "offline-learn": OfflineLearn, "explain": Explain}
