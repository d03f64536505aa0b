"""Outside-in spans around the public functions of each flexmarket layer.

The tracer replaces module attributes (the bindings the program actually
calls through) with timing wrappers and restores them afterwards.  Nothing
inside ``src/`` is edited: a span covers exactly one call into a layer, and a
layer's self time is its span minus the spans of the calls it made.

Spans stay in memory as ``Span`` objects until :meth:`Tracer.profile` folds
the spans and counters of one operation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: modules whose ``solve`` binding is wrapped, as named in metric names
SOLVE_CALLERS = (
    "agents.producer",
    "agents.retailer",
    "reserve_market",
    "imbalance",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: Span | None
    op: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the layer calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._current: Span | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._current, self.op)
        self._current = span
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._current = span.parent
        if span.parent is not None:
            span.parent.child_s += span.duration

    def reset_stack(self) -> None:
        """Forget open spans, after an operation was aborted mid-call."""
        self._current = None

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(span, args, result)``
        may attach counters once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(span, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self) -> None:
        import scipy.optimize
        from flexmarket import cli, energy_market, imbalance, lp, reserve_market, simulator
        from flexmarket.agents import producer, retailer, tank

        self.patch(simulator, "run", "simulator.run", _count_rounds)
        self.patch(simulator, "optimize_producer", "agents.producer")
        self.patch(simulator, "optimize_retailer", "agents.retailer")
        self.patch(simulator, "make_forecast", "agents.forecast")
        self.patch(simulator, "generate_scenario", "scenario.generate")
        self.patch(simulator, "clear_reserve", "reserve_market.clear", _count_reserve_bids)
        self.patch(energy_market, "clear", "energy_market.clear", _count_offers)
        self.patch(imbalance, "settle", "imbalance.settle")
        self.patch(cli, "write_outputs", "cli.write_outputs", _count_bytes_written)

        # each caller imported ``solve`` by name, so each binding is wrapped
        for caller, module in zip(SOLVE_CALLERS, (producer, retailer, reserve_market, imbalance)):
            self.patch(module, "solve", "lp.solve." + caller, _count_lp)
        self.patch(lp.LinearProgram, "dense_rows", "lp.dense_rows", _count_dense)
        self.patch(lp, "_check_feasible", "lp.check_feasible")
        self.patch(scipy.optimize, "linprog", "lp.linprog", _count_iterations)
        try:  # a private scipy name: report the HiGHS core as missing without it
            from scipy.optimize import _linprog_highs

            self.patch(_linprog_highs, "_highs_wrapper", "lp.highs_core")
        except (ImportError, AttributeError):
            self.missing.add("lp.highs_core.s")

        self.patch(tank, "verify_scenario_coverage", "agents.tank.verify", _count_samples)
        self.patch(tank.TankLoad, "schedule_violations", "agents.tank.schedule_violations")
        self.patch(tank.TankLoad, "energy_trajectory", "agents.tank.energy_trajectory")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def profile(self, op: int) -> dict[str, float | None]:
        """Per-layer metrics of operation ``op`` (times in s, counts exact).

        The operation's spans are dropped once folded: a coverage pass
        records about 80,000 of them."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        spans = [span for span in self.spans if span.op == op]
        self.spans = [span for span in self.spans if span.op != op]
        for span in spans:
            total[span.name] = total.get(span.name, 0.0) + span.duration
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - span.child_s
            calls[span.name] = calls.get(span.name, 0) + 1
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value

        def t(name):
            return total.get(name, 0.0)

        solve_names = ["lp.solve." + c for c in SOLVE_CALLERS]
        out: dict[str, float | None] = {
            "agents.producer.s": t("agents.producer"),
            "agents.producer.calls": calls.get("agents.producer", 0),
            "agents.producer.build_s": self_s.get("agents.producer", 0.0),
            "agents.retailer.s": t("agents.retailer"),
            "agents.retailer.calls": calls.get("agents.retailer", 0),
            "agents.retailer.build_s": self_s.get("agents.retailer", 0.0),
            "lp.solve.s": sum(t(n) for n in solve_names),
            "lp.solve.calls": sum(calls.get(n, 0) for n in solve_names),
        }
        for name in solve_names:
            out[name + ".s"] = t(name)
            out[name + ".calls"] = calls.get(name, 0)
        linprog = t("lp.linprog")
        out["lp.solve.self_s"] = out["lp.solve.s"] - t("lp.dense_rows") - linprog
        out["lp.check_feasible.s"] = t("lp.check_feasible")
        out["lp.dense_rows.s"] = t("lp.dense_rows")
        out["lp.dense_bytes_computed"] = counts.get("dense_bytes", 0)
        out["lp.linprog.s"] = linprog
        if "lp.highs_core.s" in self.missing:
            out["lp.highs_core.s"] = out["lp.scipy_wrapper.s"] = None
        else:
            out["lp.highs_core.s"] = t("lp.highs_core")
            out["lp.scipy_wrapper.s"] = linprog - t("lp.highs_core")
        for key in ("highs_iterations", "variables", "rows", "nonzeros", "non_optimal"):
            out["lp." + key] = counts.get(key, 0)
        out.update({
            "energy_market.clear.s": t("energy_market.clear"),
            "energy_market.offers": counts.get("offers", 0),
            "reserve_market.clear.s": t("reserve_market.clear"),
            "reserve_market.classical_bids": counts.get("classical_bids", 0),
            "reserve_market.band_bids": counts.get("band_bids", 0),
            "imbalance.settle.s": t("imbalance.settle"),
            "agents.tank.verify.s": t("agents.tank.verify"),
            "agents.tank.samples": counts.get("samples", 0),
            "agents.tank.failures": counts.get("failures", 0),
            "agents.tank.schedule_violations.s": t("agents.tank.schedule_violations"),
            "agents.tank.energy_trajectory.s": t("agents.tank.energy_trajectory"),
            "agents.forecast.s": t("agents.forecast"),
            "scenario.generate_s": t("scenario.generate"),
            "cli.write_outputs.s": t("cli.write_outputs"),
            "cli.bytes_written": counts.get("bytes_written", 0),
            "simulator.rounds": counts.get("rounds", 0),
            "simulator.self_s": self_s.get("simulator.run", 0.0),
        })
        return out


# -- counters attached to spans -------------------------------------------


def _count_rounds(span, args, outcome):
    span.counts["rounds"] = len(outcome.rounds)


def _count_reserve_bids(span, args, result):
    span.counts["classical_bids"] = len(args[0])
    span.counts["band_bids"] = len(args[1])


def _count_offers(span, args, result):
    span.counts["offers"] = len(args[0])


def _count_bytes_written(span, args, result):
    span.counts["bytes_written"] = sum(
        p.stat().st_size for p in Path(args[1]).rglob("*") if p.is_file()
    )


def _count_lp(span, args, solution):
    lp = args[0]
    span.counts["variables"] = lp.n_variables
    span.counts["rows"] = lp.n_constraints
    span.counts["non_optimal"] = int(solution.status != "optimal")


def _count_dense(span, args, result):
    a = result[0]
    span.counts["dense_bytes"] = a.size * a.itemsize
    span.counts["nonzeros"] = int(np.count_nonzero(a))


def _count_iterations(span, args, res):
    span.counts["highs_iterations"] = int(getattr(res, "nit", 0) or 0)


def _count_samples(span, args, report):
    span.counts["samples"] = report.samples
    span.counts["failures"] = report.failures
