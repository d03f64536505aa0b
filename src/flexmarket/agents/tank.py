"""Tank model of a flexible load, and the modulation coverage check.

A load consumes bounded power each period and fills an energy tank with
bounded state, conversion efficiency and per-period standing losses.  A
modulation commitment around a baseline schedule is summarized by two
extreme consumption scenarios: one that runs high for the first half of the
block and recovers low, and its mirror image.  If both extremes are
feasible, every energy-neutral dispatch the operator can request inside the
band is feasible too; :func:`verify_scenario_coverage` probes that claim
with random dispatches.

The tank works period-major: a stack of ``k`` schedules is a ``(periods,
k)`` array, and the running sum of the tank state and the bound tests are
row operations down the period axis, each over all schedules at once.  The
coverage check draws, integrates and bound-checks a load's samples as one
``(periods, samples)`` array this way, and a single schedule is a stack of
one column.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

#: the bounds :meth:`TankLoad.schedule_violations` names, in its order
_BOUND_LABELS = ("power bounds", "energy bounds", "total energy bounds")
#: the scenarios :func:`verify_scenario_coverage` checks, in its order
_SCENARIO_LABELS = ("baseline", "up", "down")


@dataclass(frozen=True)
class TankLoad:
    """Flexible load with per-period power bounds and a bounded energy tank.

    ``energy_min``/``energy_max`` have one more entry than the horizon: they
    bound the tank state at the start of every period plus the final state.
    ``total_min``/``total_max`` bound the energy drawn over the whole
    horizon.
    """

    name: str
    power_min: np.ndarray
    power_max: np.ndarray
    energy_min: np.ndarray
    energy_max: np.ndarray
    efficiency: float
    loss: np.ndarray
    total_min: float
    total_max: float
    energy_start: float
    period_hours: float = 1.0

    def __post_init__(self):
        for series in ("power_min", "power_max", "energy_min", "energy_max", "loss"):
            values = np.asarray(getattr(self, series), dtype=float)
            if not values.ndim == 1:
                raise ValueError(f"load {self.name!r}: {series} is not one-dimensional")
            object.__setattr__(self, series, values)
        t = len(self.power_min)
        if len(self.power_max) != t or len(self.loss) != t:
            raise ValueError(f"load {self.name!r}: power/loss series length mismatch")
        if len(self.energy_min) != t + 1 or len(self.energy_max) != t + 1:
            raise ValueError(f"load {self.name!r}: energy bounds must have {t + 1} entries")
        # written as "holds" so that NaN fails too
        for bound in ("power", "energy"):
            low, high = getattr(self, f"{bound}_min"), getattr(self, f"{bound}_max")
            if not np.all((low <= high) & (low < np.inf) & (high > -np.inf)):
                raise ValueError(
                    f"load {self.name!r}: not {bound}_min <= {bound}_max with a finite point between"
                )
        if not np.all(np.isfinite(self.loss)):
            raise ValueError(f"load {self.name!r}: loss not finite")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"load {self.name!r}: efficiency must lie in (0, 1]")
        if not -np.inf < self.total_min <= self.total_max < np.inf:
            raise ValueError(f"load {self.name!r}: not -inf < total_min <= total_max < inf")
        if not abs(self.energy_start) < np.inf:
            raise ValueError(f"load {self.name!r}: energy_start not finite")
        if not self.energy_min[0] - 1e-9 <= self.energy_start <= self.energy_max[0] + 1e-9:
            raise ValueError(f"load {self.name!r}: starting energy outside bounds")
        if not 0.0 < self.period_hours < np.inf:
            raise ValueError(f"load {self.name!r}: not 0 < period_hours < inf")

    @property
    def horizon(self) -> int:
        return len(self.power_min)

    def energy_trajectory(self, schedule: np.ndarray) -> np.ndarray:
        """Tank states induced by one consumption schedule, start included."""
        return self._trajectory(self._schedules(schedule, "schedule")[:, None])[:, 0]

    def schedule_violations(self, schedule: np.ndarray, tol: float = 1e-9) -> list[str]:
        """Human-readable bound violations of one schedule; empty when
        feasible.

        A NaN entry violates every bound it enters.
        """
        schedules = self._schedules(schedule, "schedule")[:, None]
        broken = self._violations(schedules, self._trajectory(schedules), tol)[:, 0]
        return [label for label, bad in zip(_BOUND_LABELS, broken) if bad]

    def _schedules(self, schedule, what: str) -> np.ndarray:
        """``schedule`` as floats, one schedule of ``horizon`` periods."""
        schedule = np.asarray(schedule, dtype=float)
        if schedule.shape != (self.horizon,):
            raise ValueError(
                f"load {self.name!r}: {what} has shape {schedule.shape}, not ({self.horizon},)"
            )
        return schedule

    def _trajectory(self, schedules: np.ndarray) -> np.ndarray:
        """The ``(periods + 1, k)`` tank states of a period-major
        ``(periods, k)`` stack: a running sum down the period axis, one row
        of all schedules at a time (``np.add.accumulate`` would run down
        the axis one column at a time)."""
        states = np.empty((len(schedules) + 1, schedules.shape[1]))
        gain = states[1:]
        np.multiply(self.efficiency, schedules, out=gain)
        gain *= self.period_hours
        gain -= self.loss[:, None]
        for t in range(1, len(gain)):
            gain[t] += gain[t - 1]
        gain += self.energy_start
        states[0] = self.energy_start
        return states

    def _violations(self, schedules: np.ndarray, states: np.ndarray, tol: float) -> np.ndarray:
        """``(3, k)`` booleans: whether each schedule of a period-major
        ``(periods, k)`` stack breaks the power, energy and total bounds
        (``_BOUND_LABELS``).  ``states`` is ``_trajectory(schedules)``.

        Each test is written as "holds", so that NaN breaks it.
        """
        ok = np.empty((3, schedules.shape[1]), dtype=bool)
        power_ok = schedules >= (self.power_min - tol)[:, None]
        power_ok &= schedules <= (self.power_max + tol)[:, None]
        np.logical_and.reduce(power_ok, axis=0, out=ok[0])
        energy_ok = states >= (self.energy_min - tol)[:, None]
        energy_ok &= states <= (self.energy_max + tol)[:, None]
        np.logical_and.reduce(energy_ok, axis=0, out=ok[1])
        # each schedule is summed as one contiguous row, as np.sum sums a
        # single schedule; a sum down the period axis rounds differently
        drawn = np.ascontiguousarray(schedules.T).sum(axis=1) * self.period_hours
        np.greater_equal(drawn, self.total_min - tol, out=ok[2])
        ok[2] &= drawn <= self.total_max + tol
        return np.logical_not(ok, out=ok)


@dataclass
class CoverageReport:
    samples: int
    failures: int
    first_failure: dict | None = field(default=None)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def verify_scenario_coverage(
    load: TankLoad,
    baseline: np.ndarray,
    up_scenario: np.ndarray,
    down_scenario: np.ndarray,
    samples: int = 1000,
    seed: int = 0,
) -> CoverageReport:
    """Probe that the two extreme scenarios cover every dispatch in between.

    Draws ``samples`` random schedules inside the per-half envelopes with
    the same total consumption as the baseline, then checks each against
    the load's power, energy and total-energy limits and the baseline's
    final tank state.  The three scenarios, each one schedule of the load's
    horizon, are checked first in one ``(periods, 3)`` pass, which also
    gives the baseline's final state; the samples are drawn and checked as
    one ``(periods, samples)`` array.  Any failure would expose an
    inconsistency in the scenario construction, so a correct model always
    reports zero.  ``samples`` must be an integer of at least 1.
    """
    n = load.horizon
    if n % 2 != 0:
        raise ValueError("coverage check needs an even number of periods")
    if not isinstance(samples, numbers.Integral) or isinstance(samples, bool):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"coverage check needs at least one sample, got {samples}")
    baseline, up, down = (
        load._schedules(schedule, f"{label} scenario")
        for label, schedule in zip(_SCENARIO_LABELS, (baseline, up_scenario, down_scenario))
    )

    scenarios = np.array([baseline, up, down]).T
    states = load._trajectory(scenarios)
    broken = load._violations(scenarios, states, tol=1e-9)
    for label, scenario_broken in zip(_SCENARIO_LABELS, broken.T):
        if scenario_broken.any():
            problems = [bound for bound, bad in zip(_BOUND_LABELS, scenario_broken) if bad]
            raise ValueError(f"{label} scenario infeasible for {load.name!r}: {problems}")
    baseline_terminal = states[-1, 0]
    half = n // 2
    lo = np.concatenate([down[:half], up[half:]])
    hi = np.concatenate([up[:half], down[half:]])
    if (lo > hi + 1e-9).any():
        raise ValueError("scenario envelopes are not ordered half-by-half")
    target = float(baseline.sum())
    if not lo.sum() - 1e-7 <= target <= hi.sum() + 1e-7:
        raise ValueError("scenarios are not energy neutral around the baseline")

    draws = _random_fixed_sum(np.random.default_rng(seed), lo, hi, target, samples)
    by_period = draws.T
    states = load._trajectory(by_period)
    broken = load._violations(by_period, states, tol=1e-7)
    terminal_ok = np.abs(states[-1] - baseline_terminal) <= 1e-7
    failed = np.logical_or.reduce(broken, axis=0)
    failed |= ~terminal_ok
    failures = int(np.count_nonzero(failed))
    first_failure = None
    if failures:
        k = int(np.argmax(failed))
        problems = [label for label, bad in zip(_BOUND_LABELS, broken[:, k]) if bad]
        if not terminal_ok[k]:
            problems.append("terminal energy differs from baseline")
        first_failure = {"sample": k, "schedule": draws[k].copy(), "problems": problems}
    return CoverageReport(samples=samples, failures=failures, first_failure=first_failure)


def _random_fixed_sum(rng, lo, hi, target, samples):
    """``samples`` uniform-ish draws from a box restricted to a fixed
    coordinate sum, as a ``(samples, periods)`` matrix: the transposed view
    of a period-major ``(periods, samples)`` array, whose rows are filled
    one period at a time.

    Period by period, every sample takes a value from the slice that its
    remaining sum leaves feasible for the later periods.  The uniforms come
    from one ``rng.random((samples, m))`` block, where ``m`` counts the
    periods whose slice can have positive width: those with ``lo < hi`` and
    a tail after them of positive width, which rules out the last period,
    whose tail is empty.  A value is
    ``low + (high - low) * u`` where ``high > low`` (numpy's own
    ``uniform`` formula) and ``low`` otherwise.  So the matrix is bit for
    bit what a loop calling ``rng.uniform(low, high)`` per sample and
    period would draw, with one exception: where a slice collapses by
    rounding part-way through a sample, such a loop skips a draw and shifts
    the rest of its stream, while the block spends that uniform.
    """
    n = len(lo)
    tail_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0.0]])
    tail_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0.0]])
    free = (lo < hi) & (tail_lo[1:] < tail_hi[1:])
    uniforms = rng.random((samples, int(free.sum()))).T
    out = np.empty((n, samples))
    remaining = np.full(samples, target)
    high = np.empty(samples)
    column = 0
    for t in range(n):
        # the slice's low end, replaced by the draw where the slice is wide;
        # lo[t] and hi[t] go first because maximum and minimum return their
        # first argument on a tie between 0.0 and -0.0
        value = out[t]
        np.subtract(remaining, tail_hi[t + 1], out=value)
        np.maximum(lo[t], value, out=value)
        if free[t]:
            np.subtract(remaining, tail_lo[t + 1], out=high)
            np.minimum(hi[t], high, out=high)
            wide = high > value
            high -= value
            high *= uniforms[column]
            high += value
            np.copyto(value, high, where=wide)
            column += 1
        remaining -= value
    return out.T


def random_feasible_modulation(rng: np.random.Generator, periods: int | None = None):
    """A random load together with a feasible (baseline, up, down) triple.

    Construction order guarantees feasibility: draw the three schedules
    first, then wrap bounds around whatever they need.  Used by the
    coverage property tests and the command-line ``verify`` run.
    ``periods``, if given, must be a positive even integer.
    """
    if periods is not None and not (
        isinstance(periods, numbers.Integral) and periods > 0 and periods % 2 == 0
    ):
        raise ValueError(f"periods must be a positive even integer, got {periods!r}")
    n = int(periods if periods is not None else rng.choice([2, 4, 6, 8]))
    half = n // 2
    base = rng.uniform(1.0, 8.0, size=n)
    swing = rng.uniform(0.2, 3.0)
    # equal per-period deviation keeps the halves energy neutral
    delta = np.concatenate([np.full(half, swing), np.full(half, -swing)])
    up = base + delta
    down = base - delta

    efficiency = float(rng.uniform(0.6, 1.0))
    loss = rng.uniform(0.0, 0.5, size=n)
    energy_start = float(rng.uniform(5.0, 15.0))

    def trajectory(schedule):
        gain = efficiency * schedule - loss
        return np.concatenate([[energy_start], energy_start + np.cumsum(gain)])

    states = [trajectory(s) for s in (base, up, down)]
    load = TankLoad(
        name="random-load",
        power_min=np.minimum.reduce([base, up, down]) - rng.uniform(0.0, 1.0, size=n),
        power_max=np.maximum.reduce([base, up, down]) + rng.uniform(0.0, 1.0, size=n),
        energy_min=np.minimum.reduce(states) - rng.uniform(0.0, 0.5, size=n + 1),
        energy_max=np.maximum.reduce(states) + rng.uniform(0.0, 0.5, size=n + 1),
        efficiency=efficiency,
        loss=loss,
        total_min=float(np.sum(base) - 1e-9),
        total_max=float(np.sum(base) + 1e-9),
        energy_start=energy_start,
        period_hours=1.0,
    )
    return load, base, up, down
