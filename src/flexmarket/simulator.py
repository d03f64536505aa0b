"""Round loop: energy auction, reserve procurement, settlement, learning.

One round is one simulated day.  Actors optimize against forecasts, the
energy market clears, the reserve requirement follows the cleared
consumption, the reserve market clears (producers always; retailers too in
the open setting), everyone repositions against what actually cleared, and
the settlement prices the resulting imbalances.  Actors then learn: price
forecasts absorb the new observations, and threshold pins react to cap or
extreme-tariff events.  Rounds repeat until forecasts match outcomes, the
actors revisit an earlier joint position (a cycle), or the round budget
runs out.

The learned pins belong to the run, not to the scenario: :func:`run` keeps
one :class:`ThresholdTrack` over (actors, 3, periods), retailers then
producers in scenario order, starts it fresh and never changes the
portfolios it is given, so running one scenario twice gives the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import energy_market, imbalance, lp
from .agents import ForecastParameters, ThresholdTrack
from .agents.forecast import extreme_prices, forecast as make_forecast
from .agents.producer import (
    fleet_capacity,
    optimize_producer,
    producer_accepted_reserve,
    producer_energy_offers,
    producer_reserve_bids,
)
from .agents.retailer import (
    optimize_retailer,
    retailer_accepted_amplitudes,
    retailer_band_bids,
    retailer_demand_offers,
)
from .energy_market import EnergyOffer
from .reserve_market import ReserveProcurement, clear_reserve
from .scenario import OPEN, Scenario, ScenarioConfig, generate_scenario


class RoundError(RuntimeError):
    """A module failure, annotated with round, stage and actor."""


@dataclass
class RoundMetrics:
    mean_price: float
    price_variability: float
    total_imbalance: float
    procurement_cost: float
    non_contracted: float

    def as_tuple(self):
        return (
            self.mean_price,
            self.price_variability,
            self.total_imbalance,
            self.procurement_cost,
            self.non_contracted,
        )


@dataclass
class RoundRecord:
    index: int
    energy_price: np.ndarray
    tariff_up: np.ndarray
    tariff_down: np.ndarray
    submitted_demand: dict[str, np.ndarray]
    submitted_sale: dict[str, np.ndarray]
    retailer_positions: dict[str, object]
    producer_positions: dict[str, object]
    offers: list[EnergyOffer]
    clearing: energy_market.ClearingResult
    procurement: ReserveProcurement
    settlement: imbalance.SettlementResult
    fees: dict[str, float]
    metrics: RoundMetrics
    state: np.ndarray = field(repr=False, default=None)


@dataclass
class SimulationOutcome:
    termination: str                     # converged | cycle | max_rounds
    cycle_start: int | None
    cycle_length: int | None
    rounds: list[RoundRecord]
    config: ScenarioConfig

    def terminal_rounds(self) -> list[RoundRecord]:
        if self.termination == "cycle":
            return self.rounds[self.cycle_start : self.cycle_start + self.cycle_length]
        if self.termination == "converged":
            return self.rounds[-1:]
        tail = min(50, len(self.rounds))
        return self.rounds[-tail:]

    @property
    def cycle_metrics(self) -> RoundMetrics:
        """Mean metrics over the terminal window."""
        return aggregate_metrics(self.terminal_rounds())


def run(config: ScenarioConfig, scenario: Scenario | None = None) -> SimulationOutcome:
    """Simulate until convergence, a cycle, or the round budget.

    ``scenario`` is only read; the learned pins live in this run.
    """
    config.validate()
    if scenario is None:
        scenario = generate_scenario(config)
    t_count = config.periods
    params = ForecastParameters(
        alpha=config.forecast_alpha,
        window=config.forecast_window,
        price_cap=config.price_cap,
        non_contracted_price=config.non_contracted_price,
        energy_seed=config.energy_seed_price,
        tariff_seed=config.tariff_seed_price,
    )
    windows = scenario.config.bid_windows() if config.setting == OPEN else None
    # per actor: the pin on its traded volume (retailer demand, producer
    # minimum sale), then on its upward and its downward imbalance
    names = [portfolio.name for portfolio in (*scenario.retailers, *scenario.producers)]
    pins = ThresholdTrack(
        (len(names), 3, t_count),
        factor=config.threshold_factor,
        forget_after=config.threshold_forget_rounds,
    )

    price_history: list[np.ndarray] = []
    up_history: list[np.ndarray] = []
    down_history: list[np.ndarray] = []
    rounds: list[RoundRecord] = []
    states: list[np.ndarray] = []

    termination = "max_rounds"
    cycle_start = cycle_length = None

    for index in range(config.max_rounds):
        fc = make_forecast(price_history, up_history, down_history, params, t_count)
        # symmetric retailers hand HiGHS identical models; the memo solves
        # each once and is dropped with the round, so it holds one round
        with lp.solve_memo():
            record = _play_round(index, scenario, fc, windows, dict(zip(names, pins.value)))
        rounds.append(record)

        _learn(scenario, pins, record, config)
        # recurrence needs positions AND the learned state: a position match
        # while a threshold is still counting down to forgetting is not a
        # genuine cycle, the system will leave it again
        states.append(np.concatenate([record.state, pins.state_vector()]))
        price_history.append(record.energy_price)
        up_history.append(record.tariff_up)
        down_history.append(record.tariff_down)

        eps = config.convergence_tolerance
        if (
            np.max(np.abs(fc.energy - record.energy_price)) <= eps
            and np.max(np.abs(fc.imbalance_up - record.tariff_up)) <= eps
            and np.max(np.abs(fc.imbalance_down - record.tariff_down)) <= eps
        ):
            termination = "converged"
            break
        hit = _match_earlier(states, config.state_tolerance)
        if hit is not None:
            termination = "cycle"
            cycle_start, cycle_length = hit, index - hit
            break

    return SimulationOutcome(
        termination=termination,
        cycle_start=cycle_start,
        cycle_length=cycle_length,
        rounds=rounds,
        config=config,
    )


def _play_round(index, scenario, fc, windows, pins):
    """One round: positions, energy auction, reserve procurement,
    repositioning and settlement.  The agent modules turn positions into
    offers and bids and map accepted reserve back onto units or windows; this
    loop only hands each actor its share of the accepted fractions."""
    config = scenario.config
    t_count = config.periods

    # stage 1: day-ahead positions and the energy auction
    offers: list[EnergyOffer] = []
    retailer_stage1 = {}
    for portfolio in scenario.retailers:
        with _stage_guard(index, "day-ahead", portfolio.name):
            position = optimize_retailer(
                portfolio,
                fc,
                config.price_cap,
                config.non_contracted_price,
                windows=windows,
                modulation_price=config.modulation_capacity_price,
                pins=pins[portfolio.name],
            )
        retailer_stage1[portfolio.name] = position
        offers.extend(retailer_demand_offers(position, portfolio, config.price_cap))
    producer_stage1 = {}
    for portfolio in scenario.producers:
        with _stage_guard(index, "day-ahead", portfolio.name):
            position = optimize_producer(
                portfolio, fc, config.price_cap, config.non_contracted_price,
                pins=pins[portfolio.name],
            )
        producer_stage1[portfolio.name] = position
        offers.extend(producer_energy_offers(position, portfolio, fc))

    with _stage_guard(index, "energy-clearing", "market"):
        clearing = energy_market.clear(offers, t_count, config.price_cap)

    # stage 2: reserve requirement from cleared consumption, then procurement
    cleared_consumption = np.zeros(t_count)
    for portfolio in scenario.retailers:
        cleared_consumption += clearing.demand_of(portfolio.name)
    required = config.reserve_rate * cleared_consumption

    classical = {}
    producer_stage2 = {}
    for portfolio in scenario.producers:
        with _stage_guard(index, "reserve-bidding", portfolio.name):
            position = optimize_producer(
                portfolio,
                fc,
                config.price_cap,
                config.non_contracted_price,
                fixed_sale=clearing.supply_of(portfolio.name),
                pins=pins[portfolio.name],
            )
        producer_stage2[portfolio.name] = position
        classical[portfolio.name] = producer_reserve_bids(position, portfolio)
    modulation = {
        portfolio.name: retailer_band_bids(
            retailer_stage1[portfolio.name], portfolio, config.modulation_efficiency
        )
        for portfolio in scenario.retailers
    }

    with _stage_guard(index, "reserve-clearing", "market"):
        procurement = clear_reserve(
            [bid for bids in classical.values() for bid in bids],
            [bid for bids in modulation.values() for bid in bids],
            required,
            required,
            config.reserve_prices(),
        )
    classical_fraction = _per_actor(procurement.classical_fraction, classical)
    modulation_fraction = _per_actor(procurement.modulation_fraction, modulation)

    # stage 3: reposition against cleared quantities
    producer_final = {}
    for portfolio in scenario.producers:
        with _stage_guard(index, "reposition", portfolio.name):
            producer_final[portfolio.name] = optimize_producer(
                portfolio,
                fc,
                config.price_cap,
                config.non_contracted_price,
                fixed_sale=clearing.supply_of(portfolio.name),
                fixed_reserve=producer_accepted_reserve(
                    producer_stage2[portfolio.name], classical_fraction[portfolio.name]
                ),
                pins=pins[portfolio.name],
            )

    retailer_final = {}
    for portfolio in scenario.retailers:
        with _stage_guard(index, "reposition", portfolio.name):
            retailer_final[portfolio.name] = optimize_retailer(
                portfolio,
                fc,
                config.price_cap,
                config.non_contracted_price,
                windows=windows,
                modulation_price=config.modulation_capacity_price,
                fixed_demand=clearing.demand_of(portfolio.name),
                fixed_amplitudes=retailer_accepted_amplitudes(
                    retailer_stage1[portfolio.name], modulation_fraction[portfolio.name]
                ),
                pins=pins[portfolio.name],
            )

    # settlement of the resulting system imbalance
    system = np.zeros(t_count)
    actor_imbalances = {}
    for name, position in {**retailer_final, **producer_final}.items():
        system += position.imbalance_up - position.imbalance_down
        actor_imbalances[name] = (
            position.imbalance_up * config.period_hours,
            position.imbalance_down * config.period_hours,
        )
    with _stage_guard(index, "settlement", "operator"):
        settlement = imbalance.settle(system, procurement, config.non_contracted_price)
        tariff_up, tariff_down = imbalance.tariffs(settlement, config.non_contracted_price)
    charges = imbalance.fees(tariff_up, tariff_down, actor_imbalances)

    submitted_demand = {n: p.demand for n, p in retailer_stage1.items()}
    submitted_sale = {n: p.sale for n, p in producer_stage1.items()}
    state = _state_vector(
        clearing.price, tariff_up, tariff_down, submitted_demand, submitted_sale,
        retailer_final, producer_final, windows,
    )
    return RoundRecord(
        index=index,
        energy_price=clearing.price,
        tariff_up=tariff_up,
        tariff_down=tariff_down,
        submitted_demand=submitted_demand,
        submitted_sale=submitted_sale,
        retailer_positions=retailer_final,
        producer_positions=producer_final,
        offers=offers,
        clearing=clearing,
        procurement=procurement,
        settlement=settlement,
        fees=charges,
        metrics=_round_metrics(
            clearing.price, procurement, settlement, config.period_hours
        ),
        state=state,
    )


def _per_actor(fractions: np.ndarray, bids: dict[str, list]) -> dict[str, np.ndarray]:
    """The accepted ``fractions`` of the concatenated ``bids``, split back
    into each actor's own bids."""
    ends = np.cumsum([len(group) for group in bids.values()])
    return dict(zip(bids, np.split(fractions, ends[:-1])))


class _stage_guard:
    def __init__(self, round_index, stage, actor):
        self.context = (round_index, stage, actor)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, RoundError):
            round_index, stage, actor = self.context
            raise RoundError(
                f"round {round_index}, stage {stage!r}, actor {actor!r}: {exc}"
            ) from exc
        return False


def _state_vector(price, tariff_up, tariff_down, demand, sale, retailers, producers, windows):
    parts = [price, tariff_up, tariff_down]
    for name, position in retailers.items():
        parts += [demand[name], position.imbalance_up, position.imbalance_down]
        if windows:
            parts.append(position.amplitudes)
    for name, position in producers.items():
        parts += [sale[name], position.imbalance_up, position.imbalance_down]
    return np.concatenate(parts)


def _match_earlier(states: list[np.ndarray], tol: float) -> int | None:
    """Earliest previous round whose state matches the latest one."""
    if len(states) < 2:
        return None
    current = states[-1]
    history = np.vstack(states[:-1])
    gaps = np.max(np.abs(history - current[None, :]), axis=1)
    hits = np.flatnonzero(gaps <= tol)
    return int(hits[0]) if hits.size else None


def _round_metrics(price, procurement, settlement, period_hours) -> RoundMetrics:
    non_contracted = float(
        np.sum(settlement.non_contracted_up + settlement.non_contracted_down) * period_hours
    )
    total = float(
        np.sum(settlement.activated_up + settlement.activated_down) * period_hours
    )
    return RoundMetrics(
        mean_price=float(np.mean(price)),
        price_variability=float(np.max(price) - np.min(price)),
        total_imbalance=total,
        procurement_cost=float(procurement.contracted_cost),
        non_contracted=non_contracted,
    )


def aggregate_metrics(records: list[RoundRecord]) -> RoundMetrics:
    """Plain means of the per-round metrics over a window of rounds."""
    if not records:
        raise ValueError("cannot aggregate an empty set of rounds")
    rows = np.array([r.metrics.as_tuple() for r in records])
    means = rows.mean(axis=0)
    return RoundMetrics(*[float(v) for v in means])


def _learn(scenario: Scenario, pins: ThresholdTrack, record: RoundRecord, config: ScenarioConfig) -> None:
    """One update of the (actors, 3, periods) pins: the round's (3, periods)
    extreme-price mask applies to every actor."""
    triggered = np.array(
        extreme_prices(
            record.energy_price,
            record.tariff_up,
            record.tariff_down,
            config.price_cap,
            config.non_contracted_price,
        )
    )
    # a cap round means the fleet withheld too much at the forecast; the
    # learned floor anchors to what the fleet could deliver, so supply
    # actually returns next round instead of re-pinning the cap
    traded = [
        (record.submitted_demand[p.name], record.retailer_positions[p.name])
        for p in scenario.retailers
    ] + [(fleet_capacity(p), record.producer_positions[p.name]) for p in scenario.producers]
    pins.update(
        triggered,
        np.array([(volume, pos.imbalance_up, pos.imbalance_down) for volume, pos in traded]),
    )
