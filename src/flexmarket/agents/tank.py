"""Tank model of a flexible load, and the modulation coverage check.

A load consumes bounded power each period and fills an energy tank with
bounded state, conversion efficiency and per-period standing losses.  A
modulation commitment around a baseline schedule is summarized by two
extreme consumption scenarios: one that runs high for the first half of the
block and recovers low, and its mirror image.  If both extremes are
feasible, every energy-neutral dispatch the operator can request inside the
band is feasible too; :func:`verify_scenario_coverage` probes that claim
with random dispatches.  It draws and checks all of a load's samples as one
``(samples, periods)`` array; only the running sum along the horizon is a
loop over periods.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

#: the bounds :meth:`TankLoad.schedule_violations` names, in its order
_BOUND_LABELS = ("power bounds", "energy bounds", "total energy bounds")


@dataclass
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
        self.power_min = np.asarray(self.power_min, dtype=float)
        self.power_max = np.asarray(self.power_max, dtype=float)
        self.energy_min = np.asarray(self.energy_min, dtype=float)
        self.energy_max = np.asarray(self.energy_max, dtype=float)
        self.loss = np.asarray(self.loss, dtype=float)
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
        if not self.period_hours > 0:
            raise ValueError(f"load {self.name!r}: period length not > 0")

    @property
    def horizon(self) -> int:
        return len(self.power_min)

    def energy_trajectory(self, schedule: np.ndarray) -> np.ndarray:
        """Tank states induced by a consumption schedule, start included.

        ``schedule`` may also be a ``(..., periods)`` stack of schedules.
        The running sum goes along the last axis in order, so each row of
        the result is exactly what that row on its own would give.
        """
        schedule = np.asarray(schedule, dtype=float)
        gain = self.efficiency * schedule * self.period_hours - self.loss
        start = np.full(gain.shape[:-1] + (1,), self.energy_start, dtype=float)
        return np.concatenate([start, self.energy_start + np.cumsum(gain, axis=-1)], axis=-1)

    def schedule_violations(self, schedule: np.ndarray, tol: float = 1e-9) -> list[str]:
        """Human-readable bound violations of a schedule; empty when feasible.

        A NaN entry violates every bound it enters.
        """
        schedule = np.asarray(schedule, dtype=float)
        broken = self._bound_violations(schedule, self.energy_trajectory(schedule), tol)
        return [label for label, bad in zip(_BOUND_LABELS, broken) if bad]

    def _bound_violations(
        self, schedules: np.ndarray, states: np.ndarray, tol: float
    ) -> np.ndarray:
        """``(..., 3)`` booleans: whether each schedule of a ``(..., periods)``
        stack breaks the power, energy and total bounds (``_BOUND_LABELS``).
        ``states`` is ``energy_trajectory(schedules)``.

        Each test is written as "holds", so that NaN breaks it.
        """
        power_ok = (schedules >= self.power_min - tol) & (schedules <= self.power_max + tol)
        energy_ok = (states >= self.energy_min - tol) & (states <= self.energy_max + tol)
        drawn = np.sum(schedules, axis=-1) * self.period_hours
        total_ok = (drawn >= self.total_min - tol) & (drawn <= self.total_max + tol)
        return np.stack([~power_ok.all(axis=-1), ~energy_ok.all(axis=-1), ~total_ok], axis=-1)


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
    final tank state.  All samples are drawn and checked as one
    ``(samples, periods)`` array.  Any failure would expose an
    inconsistency in the scenario construction, so a correct model always
    reports zero.  ``samples`` must be at least 1.
    """
    n = load.horizon
    if n % 2 != 0:
        raise ValueError("coverage check needs an even number of periods")
    if samples < 1:
        raise ValueError(f"coverage check needs at least one sample, got {samples}")
    baseline = np.asarray(baseline, dtype=float)
    up = np.asarray(up_scenario, dtype=float)
    down = np.asarray(down_scenario, dtype=float)

    for label, schedule in (("baseline", baseline), ("up", up), ("down", down)):
        problems = load.schedule_violations(schedule)
        if problems:
            raise ValueError(f"{label} scenario infeasible for {load.name!r}: {problems}")
    half = n // 2
    lo = np.concatenate([down[:half], up[half:]])
    hi = np.concatenate([up[:half], down[half:]])
    if np.any(lo > hi + 1e-9):
        raise ValueError("scenario envelopes are not ordered half-by-half")
    target = float(np.sum(baseline))
    if not np.sum(lo) - 1e-7 <= target <= np.sum(hi) + 1e-7:
        raise ValueError("scenarios are not energy neutral around the baseline")

    draws = _random_fixed_sum(np.random.default_rng(seed), lo, hi, target, samples)
    states = load.energy_trajectory(draws)
    terminal_gap = np.abs(states[:, -1] - load.energy_trajectory(baseline)[-1])
    broken = np.column_stack(
        [load._bound_violations(draws, states, tol=1e-7), ~(terminal_gap <= 1e-7)]
    )
    failed = broken.any(axis=1)
    first_failure = None
    if failed.any():
        k = int(np.argmax(failed))
        labels = (*_BOUND_LABELS, "terminal energy differs from baseline")
        first_failure = {
            "sample": k,
            "schedule": draws[k].copy(),
            "problems": [label for label, bad in zip(labels, broken[k]) if bad],
        }
    return CoverageReport(samples=samples, failures=int(failed.sum()), first_failure=first_failure)


def _random_fixed_sum(rng, lo, hi, target, samples):
    """``samples`` uniform-ish draws from a box restricted to a fixed
    coordinate sum, as a ``(samples, periods)`` matrix.

    Period by period, every row takes a value from the slice that its
    remaining sum leaves feasible for the later periods.  The uniforms come
    from one ``rng.random((samples, m))`` block, where ``m`` counts the
    periods whose slice can have positive width: those with ``lo < hi`` and
    a tail after them of positive width, which rules out the last period,
    whose tail is empty.  A value is
    ``low + (high - low) * u`` where ``high > low`` (numpy's own
    ``uniform`` formula) and ``low`` otherwise.  So the matrix is bit for
    bit what a loop calling ``rng.uniform(low, high)`` per row and period
    would draw, with one exception: where a slice collapses by rounding
    part-way through a row, such a loop skips a draw and shifts the rest of
    its stream, while the block spends that uniform.
    """
    n = len(lo)
    tail_lo = np.concatenate([np.cumsum(lo[::-1])[::-1], [0.0]])
    tail_hi = np.concatenate([np.cumsum(hi[::-1])[::-1], [0.0]])
    free = (lo < hi) & (tail_lo[1:] < tail_hi[1:])
    uniforms = rng.random((samples, int(free.sum())))
    out = np.empty((samples, n))
    remaining = np.full(samples, target)
    column = 0
    for t in range(n):
        low = value = np.maximum(lo[t], remaining - tail_hi[t + 1])
        if free[t]:
            high = np.minimum(hi[t], remaining - tail_lo[t + 1])
            value = np.where(high > low, low + (high - low) * uniforms[:, column], low)
            column += 1
        out[:, t] = value
        remaining -= value
    return out


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
