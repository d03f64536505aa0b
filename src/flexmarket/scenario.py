"""Scenario configuration and seeded portfolio generation.

A scenario fixes the market constants and synthesizes actor portfolios
around a mean total consumption: a two-peak diurnal demand profile split
across retailers, tank loads carrying the configured share of flexible
consumption, and producer fleets of cheap slow-ramping units plus dearer
fast ones.  Generation is fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .agents import GenerationUnit, ProducerPortfolio, RetailerPortfolio, TankLoad
from .agents.retailer import ConfigurationError
from .reserve_market import ReservePrices

# hourly weights of the demand profile (mean exactly 1): a morning and an
# evening peak over a night trough
DEMAND_SHAPE_24 = (
    0.82, 0.78, 0.76, 0.75, 0.77, 0.83,
    0.93, 1.05, 1.13, 1.15, 1.12, 1.08,
    1.05, 1.02, 1.00, 1.01, 1.05, 1.12,
    1.20, 1.22, 1.16, 1.06, 0.96, 0.88,
)

CLOSED = "closed"
OPEN = "open"
#: the two market settings, in the order a sweep runs them
SETTINGS = (CLOSED, OPEN)

#: per declared type of a config field: the values the field may take (a bool
#: is neither an int nor a float, and an int is also a float), their name,
#: and the Python type a value is written and read as
_FIELD_KINDS = {
    "int": (Integral, "an integer", int), "float": (Real, "a number", float), "str": (str, "a string", str),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """The constants of one experiment.  A config checks itself when it is
    made, and again on every ``dataclasses.replace``, and is frozen, so a
    config that exists is valid and stays so for its whole run."""

    seed: int = 1
    mean_consumption: float = 1000.0
    flexibility_rate: float = 0.06
    setting: str = CLOSED
    periods: int = 24
    period_hours: float = 1.0

    producer_count: int = 3
    retailer_count: int = 2
    slow_units_per_producer: int = 4
    fast_units_per_producer: int = 2
    loads_per_retailer: int = 1

    price_cap: float = 3000.0
    non_contracted_price: float = 500.0
    up_capacity_price: float = 45.0
    down_capacity_price: float = 45.0
    modulation_capacity_price: float = 10.0
    modulation_efficiency: float = 0.5
    reserve_valuation: float = 0.005
    reserve_rate: float = 0.02
    bid_block_length: int = 4

    forecast_alpha: float = 0.5
    forecast_window: int = 24
    energy_seed_price: float = 52.5
    tariff_seed_price: float = 50.0
    threshold_factor: float = 0.95
    threshold_forget_rounds: int = 10

    convergence_tolerance: float = 0.01
    state_tolerance: float = 1e-6
    max_rounds: int = 500

    # the slow fleet is sized so the cheap end of the merit order covers
    # peak demand on its own; thin fleets starve the auction whenever the
    # forecast dips, wedging the price at the cap
    slow_capacity_factor: float = 4.2     # of peak demand
    fast_capacity_factor: float = 0.4
    slow_cost_low: float = 45.0
    slow_cost_high: float = 60.0
    fast_cost_low: float = 60.0
    fast_cost_high: float = 80.0
    slow_ramp_fraction: float = 0.3       # of unit capacity, per period
    # units plan output while within this margin above the price forecast;
    # offers stay priced at cost, so the margin only fattens the order book
    # (a too-dear offer is simply not cleared), bridging the gaps between
    # discrete unit costs that would otherwise leave restored demand unserved
    production_bias: float = 8.0
    tank_span_hours: float = 2.0          # energy headroom of a load, in hours of its mean draw
    imbalance_limit_fraction: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, noun, _ = _FIELD_KINDS[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigurationError(f"{f.name} must be {noun}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite")
        if not 0.0 <= self.flexibility_rate <= 1.0:
            raise ConfigurationError(f"flexibility rate {self.flexibility_rate!r} must lie in [0, 1]")
        if self.setting not in SETTINGS:
            raise ConfigurationError(f"setting must be {'/'.join(SETTINGS)}, got {self.setting!r}")
        if self.periods < 1 or self.period_hours <= 0:
            raise ConfigurationError("bad horizon")
        if self.bid_block_length < 2 or self.bid_block_length % 2 != 0:
            raise ConfigurationError("bid block length must be even and at least 2")
        if self.setting == OPEN and self.bid_block_length > self.periods:
            raise ConfigurationError("an open run needs a bid block that fits in the periods")
        for name in (
            "seed", "price_cap", "non_contracted_price", "up_capacity_price", "down_capacity_price",
            "modulation_capacity_price", "reserve_rate", "mean_consumption",
            "imbalance_limit_fraction", "tank_span_hours",
            "slow_units_per_producer", "fast_units_per_producer", "slow_ramp_fraction",
            "slow_capacity_factor", "fast_capacity_factor", "slow_cost_low", "fast_cost_low",
            "convergence_tolerance", "state_tolerance", "threshold_forget_rounds",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not 0.0 < self.modulation_efficiency <= 1.0:
            raise ConfigurationError("modulation efficiency must lie in (0, 1]")
        if not 0.0 <= self.forecast_alpha <= 1.0:
            raise ConfigurationError("forecast_alpha must lie in [0, 1]")
        # a pin sits at this share of the volume it watches, at most all of it
        if not 0.0 < self.threshold_factor <= 1.0:
            raise ConfigurationError("threshold_factor must lie in (0, 1]")
        # unit costs are offer prices, which the auction takes in [0, price_cap]
        for fleet in ("slow", "fast"):
            if getattr(self, f"{fleet}_cost_low") > getattr(self, f"{fleet}_cost_high"):
                raise ConfigurationError(f"{fleet}_cost_low must not exceed {fleet}_cost_high")
            if getattr(self, f"{fleet}_cost_high") > self.price_cap:
                raise ConfigurationError(f"{fleet}_cost_high must not exceed price_cap")
        # the first forecast is the seeds, later ones are clipped to these ranges
        if not 0.0 <= self.energy_seed_price <= self.price_cap:
            raise ConfigurationError("energy_seed_price must lie in [0, price_cap]")
        if not 0.0 <= self.tariff_seed_price <= self.non_contracted_price:
            raise ConfigurationError("tariff_seed_price must lie in [0, non_contracted_price]")
        if self.producer_count < 1 or self.retailer_count < 1:
            raise ConfigurationError("need at least one producer and one retailer")
        if self.slow_units_per_producer + self.fast_units_per_producer < 1:
            raise ConfigurationError("need at least one generation unit per producer")
        if self.flexibility_rate > 0 and self.loads_per_retailer < 1:
            raise ConfigurationError("a positive flexibility rate needs a load per retailer")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be at least 1")
        if self.forecast_window < 1:
            raise ConfigurationError("forecast_window must be at least 1")

    def reserve_prices(self) -> ReservePrices:
        return ReservePrices(
            up_capacity=self.up_capacity_price,
            down_capacity=self.down_capacity_price,
            modulation_capacity=self.modulation_capacity_price,
            non_contracted=self.non_contracted_price,
        )

    def demand_profile(self) -> np.ndarray:
        shape = np.asarray(DEMAND_SHAPE_24)
        if self.periods != len(shape):
            grid = np.linspace(0.0, 1.0, len(shape), endpoint=False)
            target = np.linspace(0.0, 1.0, self.periods, endpoint=False)
            shape = np.interp(target, grid, shape, period=1.0)
        shape = shape / shape.mean()
        return shape * self.mean_consumption

    def bid_windows(self) -> list[tuple[int, int]]:
        length = self.bid_block_length
        return [(start, length) for start in range(0, self.periods - length + 1, length)]


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    producers: list[ProducerPortfolio]
    retailers: list[RetailerPortfolio]


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Deterministic portfolios for one experiment."""
    rng = np.random.default_rng(config.seed)
    t_count = config.periods
    demand = config.demand_profile()
    peak = float(demand.max())

    flexible = config.flexibility_rate * demand
    inelastic = demand - flexible

    retailers = []
    retailer_limit = config.imbalance_limit_fraction * peak / config.retailer_count
    for r in range(config.retailer_count):
        loads = []
        if config.flexibility_rate > 0:
            share = flexible / (config.retailer_count * config.loads_per_retailer)
            for j in range(config.loads_per_retailer):
                loads.append(
                    _make_tank_load(f"load-{r + 1}-{j + 1}", share, config)
                )
        retailers.append(
            RetailerPortfolio(
                name=f"retailer-{r + 1}",
                inelastic=inelastic / config.retailer_count,
                loads=loads,
                imbalance_limit=retailer_limit,
            )
        )

    # per fleet: units per producer, capacity factor, cost range, ramp limit
    # as a share of capacity and the demand its starting outputs cover.
    # Starting outputs follow the overnight merit order at the first period's
    # demand: cheap slow units online, dear ones and fast ones cold, so the
    # equilibrium dispatch needs no infeasible ramps and nobody is forced to
    # overproduce.  Each fleet draws its costs in turn, slow first.
    fleet_table = [
        ("slow", config.slow_units_per_producer, config.slow_capacity_factor,
         config.slow_cost_low, config.slow_cost_high, config.slow_ramp_fraction, float(demand[0])),
        ("fast", config.fast_units_per_producer, config.fast_capacity_factor,
         config.fast_cost_low, config.fast_cost_high, 1.0, 0.0),
    ]
    fleets = []
    for kind, per_producer, factor, cost_low, cost_high, ramp, start_level in fleet_table:
        count = config.producer_count * per_producer
        cap = factor * peak / max(1, count)
        costs = [float(rng.uniform(cost_low, cost_high)) for _ in range(count)]
        starts = _merit_order_dispatch(costs, cap, start_level)
        fleets.append((kind, per_producer, cap, ramp * cap, costs, starts))
    producers = []
    for p in range(config.producer_count):
        units = [
            GenerationUnit(
                name=f"{kind}-{p + 1}-{j + 1}",
                power_min=np.zeros(t_count),
                power_max=np.full(t_count, cap),
                ramp_up=ramp,
                ramp_down=ramp,
                cost=np.full(t_count, costs[p * per_producer + j]),
                initial_output=starts[p * per_producer + j],
            )
            for kind, per_producer, cap, ramp, costs, starts in fleets
            for j in range(per_producer)
        ]
        producers.append(
            ProducerPortfolio(
                name=f"producer-{p + 1}",
                units=units,
                imbalance_limit=config.imbalance_limit_fraction
                * sum(cap * per_producer for _, per_producer, cap, *_ in fleets),
                reserve_valuation=config.reserve_valuation,
                production_bias=config.production_bias,
            )
        )

    return Scenario(config=config, producers=producers, retailers=retailers)


def _merit_order_dispatch(costs: list[float], capacity: float, level: float) -> list[float]:
    """Fill unit capacities in cost order until ``level`` is covered."""
    out = [0.0] * len(costs)
    remaining = level
    for k in sorted(range(len(costs)), key=lambda i: (costs[i], i)):
        take = min(capacity, max(0.0, remaining))
        out[k] = take
        remaining -= take
    return out


def _make_tank_load(name: str, baseline: np.ndarray, config: ScenarioConfig) -> TankLoad:
    """Tank sized so the baseline sits mid-band: the state tracks the
    deviation from the nominal draw because losses absorb the nominal."""
    dt = config.period_hours
    efficiency = 1.0
    span = config.tank_span_hours * float(baseline.mean()) * dt * efficiency
    load = TankLoad(
        name=name,
        power_min=np.zeros_like(baseline),
        power_max=2.0 * baseline,
        energy_min=np.zeros(len(baseline) + 1),
        energy_max=np.full(len(baseline) + 1, 2.0 * span),
        efficiency=efficiency,
        loss=efficiency * baseline * dt,
        total_min=float(np.sum(baseline) * dt),
        total_max=float(np.sum(baseline) * dt),
        energy_start=span,
        period_hours=dt,
    )
    problems = load.schedule_violations(baseline)
    if problems:
        raise ConfigurationError(
            f"generated load {name!r} cannot run its own baseline: {problems}"
        )
    return load


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def config_to_text(config: ScenarioConfig) -> str:
    """One ``key = value`` line per field: the ``repr`` of the value as its
    field's declared type, so an int in a float field (``1000``) is written
    as the float (``1000.0``) that :func:`config_from_text` reads back."""
    return "".join(
        f"{f.name} = {_FIELD_KINDS[f.type][2](getattr(config, f.name))!r}\n"
        for f in fields(ScenarioConfig)
    )


def config_from_text(text: str) -> ScenarioConfig:
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"bad config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in values:
            raise ConfigurationError(f"config key {key!r} given twice")
        values[key] = value
    kwargs = {}
    for key, text_value in values.items():
        kind = _FIELD_TYPES[key]
        try:
            # only a string is written quoted: ``seed = "3"`` is no integer
            kwargs[key] = _FIELD_KINDS[kind][2](_unquoted(text_value) if kind == "str" else text_value)
        except ValueError:
            raise ConfigurationError(f"bad {kind} for {key}: {text_value!r}") from None
    return ScenarioConfig(**kwargs)


def _unquoted(text: str) -> str:
    """``text`` bare or inside one matched pair of quotes, without them;
    any other quote is a ``ValueError``."""
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1]
    if "'" in text or '"' in text:
        raise ValueError(text)
    return text
