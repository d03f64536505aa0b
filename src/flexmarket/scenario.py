"""Scenario configuration and seeded portfolio generation.

A scenario fixes the market constants and synthesizes actor portfolios
around a mean total consumption: a two-peak diurnal demand profile split
across retailers, tank loads carrying the configured share of flexible
consumption, and producer fleets of cheap slow-ramping units plus dearer
fast ones.  Generation is fully determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


@dataclass
class ScenarioConfig:
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

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigurationError(f"{f.name} must be finite")
        if not 0.0 <= self.flexibility_rate <= 1.0:
            raise ConfigurationError("flexibility rate must lie in [0, 1]")
        if self.setting not in (CLOSED, OPEN):
            raise ConfigurationError(f"setting must be closed/open, got {self.setting!r}")
        if self.periods < 1 or self.period_hours <= 0:
            raise ConfigurationError("bad horizon")
        if self.bid_block_length < 2 or self.bid_block_length % 2 != 0:
            raise ConfigurationError("bid block length must be even and at least 2")
        if self.setting == OPEN and self.bid_block_length > self.periods:
            raise ConfigurationError("an open run needs a bid block that fits in the periods")
        for name in (
            "price_cap", "non_contracted_price", "up_capacity_price", "down_capacity_price",
            "modulation_capacity_price", "reserve_rate", "mean_consumption",
            "imbalance_limit_fraction", "tank_span_hours",
            "slow_units_per_producer", "fast_units_per_producer", "slow_ramp_fraction",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not 0.0 < self.modulation_efficiency <= 1.0:
            raise ConfigurationError("modulation efficiency must lie in (0, 1]")
        if not 0.0 <= self.forecast_alpha <= 1.0:
            raise ConfigurationError("forecast_alpha must lie in [0, 1]")
        for fleet in ("slow", "fast"):
            if getattr(self, f"{fleet}_cost_low") > getattr(self, f"{fleet}_cost_high"):
                raise ConfigurationError(f"{fleet}_cost_low must not exceed {fleet}_cost_high")
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


@dataclass
class Scenario:
    config: ScenarioConfig
    producers: list[ProducerPortfolio]
    retailers: list[RetailerPortfolio]
    demand: np.ndarray


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Deterministic portfolios for one experiment."""
    config.validate()
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

    producers = []
    slow_total = config.slow_capacity_factor * peak
    fast_total = config.fast_capacity_factor * peak
    n_slow = config.producer_count * config.slow_units_per_producer
    n_fast = config.producer_count * config.fast_units_per_producer
    slow_cap = slow_total / max(1, n_slow)
    fast_cap = fast_total / max(1, n_fast)
    slow_costs = [
        float(rng.uniform(config.slow_cost_low, config.slow_cost_high)) for _ in range(n_slow)
    ]
    fast_costs = [
        float(rng.uniform(config.fast_cost_low, config.fast_cost_high)) for _ in range(n_fast)
    ]
    # starting outputs follow the overnight merit order at the first period's
    # demand: cheap units online, dear ones cold, so the equilibrium dispatch
    # needs no infeasible ramps and nobody is forced to overproduce
    slow_starts = _merit_order_dispatch(slow_costs, slow_cap, float(demand[0]))
    for p in range(config.producer_count):
        units = []
        for j in range(config.slow_units_per_producer):
            k = p * config.slow_units_per_producer + j
            units.append(
                GenerationUnit(
                    name=f"slow-{p + 1}-{j + 1}",
                    power_min=np.zeros(t_count),
                    power_max=np.full(t_count, slow_cap),
                    ramp_up=config.slow_ramp_fraction * slow_cap,
                    ramp_down=config.slow_ramp_fraction * slow_cap,
                    cost=np.full(t_count, slow_costs[k]),
                    initial_output=slow_starts[k],
                )
            )
        for j in range(config.fast_units_per_producer):
            k = p * config.fast_units_per_producer + j
            units.append(
                GenerationUnit(
                    name=f"fast-{p + 1}-{j + 1}",
                    power_min=np.zeros(t_count),
                    power_max=np.full(t_count, fast_cap),
                    ramp_up=fast_cap,
                    ramp_down=fast_cap,
                    cost=np.full(t_count, fast_costs[k]),
                    initial_output=0.0,
                )
            )
        producers.append(
            ProducerPortfolio(
                name=f"producer-{p + 1}",
                units=units,
                imbalance_limit=config.imbalance_limit_fraction
                * (slow_cap * config.slow_units_per_producer + fast_cap * config.fast_units_per_producer),
                reserve_valuation=config.reserve_valuation,
                production_bias=config.production_bias,
            )
        )

    return Scenario(config=config, producers=producers, retailers=retailers, demand=demand)


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
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {value!r}" if isinstance(value, str) else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


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
        values[key] = value
    kwargs = {}
    for key, text_value in values.items():
        kind = _FIELD_TYPES[key]
        try:
            if kind == "int":
                kwargs[key] = int(text_value)
            elif kind == "float":
                kwargs[key] = float(text_value)
            else:
                kwargs[key] = text_value.strip("'\"")
        except ValueError:
            raise ConfigurationError(f"bad {kind} for {key}: {text_value!r}") from None
    config = ScenarioConfig(**kwargs)
    config.validate()
    return config
