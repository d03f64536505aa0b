"""Price forecasting and threshold learning shared by all actors.

Forecasts are exponentially weighted means over a trailing window of
realized prices, with two repairs: an energy price that hit the cap is
replaced by the last uncapped one, and an imbalance tariff that came out
zero or at the fallback price is replaced by the last ordinary one.  The
fact that an extreme was observed still reaches the optimization models,
through thresholds: an actor that saw the extreme pins the offending
volume slightly below what it submitted, and forgets the pin after enough
quiet rounds.  The pins are learning state of a run: the simulator owns one
:class:`ThresholdTrack` per actor and pinned quantity, and the optimization
models see only the pin values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ForecastParameters:
    alpha: float = 0.5            # per-round decay of the exponential mean
    window: int = 24              # rounds of history considered
    price_cap: float = 3000.0
    non_contracted_price: float = 500.0
    energy_seed: float = 52.5     # used until a usable observation exists
    tariff_seed: float = 50.0


@dataclass
class PriceForecast:
    """Per-period forecasts of the energy price and the imbalance tariffs."""

    energy: np.ndarray
    imbalance_up: np.ndarray
    imbalance_down: np.ndarray


def extreme_prices(
    energy: np.ndarray,
    tariff_up: np.ndarray,
    tariff_down: np.ndarray,
    price_cap: float,
    non_contracted_price: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the energy price hit the cap, and where each imbalance tariff
    came out zero or at the fallback price, all within 1e-9."""

    def tariff_extreme(tariff):
        return (tariff <= 1e-9) | (tariff >= non_contracted_price - 1e-9)

    return energy >= price_cap - 1e-9, tariff_extreme(tariff_up), tariff_extreme(tariff_down)


def exponential_mean(history: np.ndarray, invalid: np.ndarray, alpha: float, window: int, seed: float) -> np.ndarray:
    """Columnwise weighted mean of the last ``window`` rows.

    Invalid observations are replaced by the most recent valid one before
    them; entries with no valid predecessor drop out of the mean.  An empty
    usable history falls back to ``seed``.
    """
    rounds, periods = history.shape
    replaced = np.empty_like(history)
    usable = np.zeros_like(invalid, dtype=bool)
    last = np.full(periods, np.nan)
    have = np.zeros(periods, dtype=bool)
    for r in range(rounds):
        row = history[r]
        good = ~invalid[r]
        last = np.where(good, row, last)
        have = have | good
        replaced[r] = last
        usable[r] = have

    start = max(0, rounds - window)
    out = np.full(periods, seed)
    weights = alpha ** np.arange(rounds - start - 1, -1, -1)  # newest gets weight 1
    for t in range(periods):
        mask = usable[start:, t]
        if not mask.any():
            continue
        w = weights[mask]
        out[t] = float(w @ replaced[start:, t][mask] / w.sum())
    return out


def forecast(
    energy_history: list[np.ndarray],
    tariff_up_history: list[np.ndarray],
    tariff_down_history: list[np.ndarray],
    params: ForecastParameters,
    periods: int,
) -> PriceForecast:
    """Forecasts for the next round from the full price record so far."""
    if not energy_history:
        return PriceForecast(
            energy=np.full(periods, params.energy_seed),
            imbalance_up=np.full(periods, params.tariff_seed),
            imbalance_down=np.full(periods, params.tariff_seed),
        )

    energy = np.vstack(energy_history)
    up = np.vstack(tariff_up_history)
    down = np.vstack(tariff_down_history)
    capped, up_extreme, down_extreme = extreme_prices(
        energy, up, down, params.price_cap, params.non_contracted_price
    )

    return PriceForecast(
        energy=np.clip(
            exponential_mean(energy, capped, params.alpha, params.window, params.energy_seed),
            0.0,
            params.price_cap,
        ),
        imbalance_up=np.clip(
            exponential_mean(up, up_extreme, params.alpha, params.window, params.tariff_seed),
            0.0,
            params.non_contracted_price,
        ),
        imbalance_down=np.clip(
            exponential_mean(down, down_extreme, params.alpha, params.window, params.tariff_seed),
            0.0,
            params.non_contracted_price,
        ),
    )


@dataclass
class ThresholdTrack:
    """Learned per-period volume pin with forgetting.

    After a round whose price hit the watched extreme, the pin moves to
    ``factor`` times the volume the actor submitted in that period; after
    ``forget_after`` rounds without a recurrence it relaxes to infinity.
    """

    periods: int
    factor: float = 0.95
    forget_after: int = 10
    value: np.ndarray = field(init=False)
    quiet: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.full(self.periods, np.inf)
        self.quiet = np.zeros(self.periods, dtype=int)

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
        return np.concatenate([encoded, self.quiet.astype(float)])
