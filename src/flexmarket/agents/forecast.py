"""Price forecasting and threshold learning shared by all actors.

The run records one (3, periods) row of prices per round: the energy price,
the upward and the downward imbalance tariff.  Forecasts are exponentially
weighted means over a trailing window of these rows, with one repair: an
extreme price (an energy price at the cap, a tariff at zero or at the
fallback price) is replaced by the last ordinary one of its row and period.
The fact that an extreme was observed still reaches the optimization
models, through thresholds: an actor that saw the extreme pins the
offending volume slightly below what it submitted, and forgets the pin
after enough quiet rounds.  The pins are learning state of a run: the
simulator owns one :class:`ThresholdTrack` over (actors, pinned quantities,
periods), and the optimization models see only each actor's pin values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..scenario import ScenarioConfig


@dataclass
class PriceForecast:
    """Per-period forecasts of the energy price and the imbalance tariffs."""

    energy: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray


def _ceilings(config: ScenarioConfig) -> np.ndarray:
    """The highest energy price, upward and downward tariff, as a (3, 1)
    column: the cap, then the fallback price twice."""
    fallback = config.non_contracted_price
    return np.array([[config.price_cap], [fallback], [fallback]])


def extreme_prices(prices: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Where a price was extreme, for prices stacked as (..., 3, periods)
    rows of (energy price, upward tariff, downward tariff): an energy price
    at the cap, a tariff at zero or at the fallback price, all within 1e-9."""
    low = np.array([[-np.inf], [1e-9], [1e-9]])
    return (prices <= low) | (prices >= _ceilings(config) - 1e-9)


def exponential_mean(
    history: np.ndarray, invalid: np.ndarray, alpha: float, window: int, seed: np.ndarray
) -> np.ndarray:
    """Columnwise weighted mean of the last ``window`` rows.

    Invalid observations are replaced by the most recent valid one before
    them; entries with no valid predecessor drop out of the mean.  A column
    with no usable entry falls back to its ``seed``.
    """
    rounds, columns = history.shape
    # the row of each column's latest valid observation so far, -1 before the first
    latest = np.maximum.accumulate(np.where(invalid, -1, np.arange(rounds)[:, None]), axis=0)
    usable = latest >= 0
    replaced = history[np.maximum(latest, 0), np.arange(columns)]

    start = max(0, rounds - window)
    out = np.array(seed, dtype=float)
    weights = alpha ** np.arange(rounds - start - 1, -1, -1)  # newest gets weight 1
    # column by column: one matrix product would sum in another order
    for t in range(columns):
        mask = usable[start:, t]
        if not mask.any():
            continue
        w = weights[mask]
        out[t] = float(w @ replaced[start:, t][mask] / w.sum())
    return out


def make_forecast(history: list[np.ndarray], config: ScenarioConfig) -> PriceForecast:
    """Forecasts for the next round from the price record so far, one
    (3, periods) row of (energy price, upward tariff, downward tariff) per
    round, each clipped to its price range."""
    periods = config.periods
    prices = np.reshape(history, (len(history), 3, periods))
    flat = (len(history), 3 * periods)
    tariff_seed = config.tariff_seed_price
    mean = exponential_mean(
        prices.reshape(flat),
        extreme_prices(prices, config).reshape(flat),
        config.forecast_alpha,
        config.forecast_window,
        np.repeat([config.energy_seed_price, tariff_seed, tariff_seed], periods),
    )
    return PriceForecast(*np.clip(mean.reshape(3, periods), 0.0, _ceilings(config)))


@dataclass
class ThresholdTrack:
    """Learned volume pins with forgetting, one per entry of ``shape``.

    After a round whose price hit the watched extreme, a pin moves to
    ``factor`` times the volume the actor submitted in that period; after
    ``forget_after`` rounds without a recurrence it relaxes to infinity.
    The trigger mask of :meth:`update` broadcasts against ``shape``, so one
    (quantities, periods) mask serves every actor of an (actors, quantities,
    periods) track.
    """

    shape: int | tuple[int, ...]
    factor: float = 0.95
    forget_after: int = 10
    value: np.ndarray = field(init=False)
    quiet: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.full(self.shape, np.inf)
        self.quiet = np.zeros(self.shape, dtype=int)

    def update(self, triggered: np.ndarray, own_volume: np.ndarray) -> None:
        triggered = np.asarray(triggered, dtype=bool)
        own_volume = np.asarray(own_volume, dtype=float)
        self.value = np.where(triggered, self.factor * own_volume, self.value)
        self.quiet = np.where(triggered, 0, self.quiet + 1)
        forget = ~triggered & (self.quiet >= self.forget_after) & np.isfinite(self.value)
        self.value[forget] = np.inf
        # the counter only means something while a pin is active
        self.quiet[~np.isfinite(self.value)] = 0

    def state_vector(self) -> np.ndarray:
        """Pin values and quiet counters; equality of these vectors means the
        learning state will evolve identically from here on."""
        encoded = np.where(np.isfinite(self.value), self.value, -1.0)
        return np.concatenate([encoded.ravel(), self.quiet.ravel().astype(float)])
