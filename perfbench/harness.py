"""Shared pieces of the benchmark: percentiles, memory, set-up timing,
the per-tick recorder, fingerprints and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch files (trace and library round trips) stay inside the checkout.
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

# Imports the package and prints the CPU seconds that took; run in a fresh
# interpreter so that the import is timed every time.
_IMPORT_PROBE = """
import time
t0 = time.process_time()
from fortdefense import explain, loop
print(time.process_time() - t0)
"""


def cpu() -> float:
    """Seconds of CPU time this process has used.

    All timings are CPU time: the benchmark is single-threaded and does not
    wait on I/O, so on an idle machine this equals wall time, while on a
    shared virtual machine it leaves out the time other guests take from
    the CPU, which is not the program's.
    """
    return time.process_time()


class PercentileError(ValueError):
    """Too few samples for the requested percentile to describe a tail."""


def percentile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile (0 < q < 1) of
    ``values``: a mean of all the order statistics, weighted by a beta
    density centred on the quantile.  It moves less with the noise of the
    one or two samples nearest the quantile than a single order statistic
    does.

    Refuses unless at least ten samples lie beyond the quantile, so a
    reported tail is never one or two outliers.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} is outside (0, 1)")
    beyond = round(n * (1.0 - q), 9)
    if beyond < 10:
        raise PercentileError(
            f"{n} samples leave {beyond:.1f} beyond the {q:.2f} quantile; need 10"
        )
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_import() -> float:
    """CPU seconds to import the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Tick:
    """One simulator tick as seen at the ``env.step`` boundary."""

    before: object
    actions: dict
    after: object
    events: list
    assignment: dict


class StepRecorder:
    """Stands in for ``fortdefense.loop.step`` and keeps every tick.

    ``library`` (optional) is the model library the ad hoc controller uses;
    its assignment is copied at each tick, which is the assignment the
    controller's predictions of that tick were made with.
    """

    def __init__(self, step_fn, library=None):
        self._step = step_fn
        self.library = library
        self.ticks: list[Tick] = []

    def __call__(self, state, actions):
        nxt, events = self._step(state, actions)
        assignment = dict(self.library.assignment) if self.library is not None else {}
        self.ticks.append(Tick(state, dict(actions), nxt, list(events), assignment))
        return nxt, events

    def episodes(self) -> list[list[Tick]]:
        """Ticks split into episodes (a tick at step 0 starts a new one)."""
        out: list[list[Tick]] = []
        for tick in self.ticks:
            if tick.before.step_count == 0:
                out.append([])
            out[-1].append(tick)
        return out


class Patch:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self, targets):
        self.targets = list(targets)  # (owner, attribute name, replacement)
        self.saved = []

    def __enter__(self):
        for owner, name, new in self.targets:
            self.saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)
        return self

    def __exit__(self, *exc):
        for owner, name, old in reversed(self.saved):
            setattr(owner, name, old)
        self.saved = []
        return False


def decision_items(records) -> list[str]:
    """Fingerprint items for the ad hoc guard's recorded decisions:
    policy, seed, tick, goal, chosen atom and plan length, then the
    episode outcome."""
    items = []
    for rec in records:
        for s in rec.steps:
            goal = s.goal
            items.append(
                f"{rec.policy}|{rec.seed}|{s.step}|{goal.kind}:{goal.target}"
                f"|{s.chosen}|{len(s.plan_actions)}"
            )
        items.append(f"{rec.policy}|{rec.seed}|outcome|{rec.outcome}|{rec.n_steps}")
    return items


def decision_counts(records) -> dict[str, int]:
    """Replans, plan reuses, fallbacks and belief reconciliations of the
    ad hoc guard, read off its step records."""
    out = Counter()
    for rec in records:
        for s in rec.steps:
            out["loop.act.calls"] += 1
            if s.replanned:
                out["loop.act.replans"] += 1
            elif s.plan_actions:
                out["loop.act.reuses"] += 1
            if s.fallback:
                out["loop.act.fallbacks"] += 1
            out["loop.observe.reconciled"] += int(s.reconciled)
        out["loop.episodes.guard_wins"] += int(rec.guards_win)
    return out


def fingerprint(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()


def info(label: str, payload) -> None:
    """A human-readable line before the result line."""
    print(f"{label} {json.dumps(payload, sort_keys=True)}", flush=True)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
