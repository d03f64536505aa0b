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

Each actor's model is built once, at the top of a round, from the round's
forecast and its pins, and every stage of the round solves it under that
stage's fixed quantities.  Actors equal in everything but their names are
twins (the generated retailers all are).  Twins with equal pins share one
model, and twins whose fixed quantities are equal too share one solve and
its position; nothing is kept from one round to the next.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import energy_market, imbalance
from .agents import ThresholdTrack
from .agents.forecast import extreme_prices, make_forecast
from .agents.producer import (
    ProducerPosition,
    build_producer_model,
    fleet_capacity,
    optimize_producer,
    producer_energy_offers,
    producer_reserve_bids,
)
from .agents.retailer import (
    RetailerPosition,
    accepted_volumes,
    build_retailer_model,
    optimize_retailer,
    retailer_band_bids,
    retailer_demand_offers,
)
from .energy_market import OfferBook
from .reserve_market import ClassicalBook, ModulationBook, ReserveProcurement, clear_reserve
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
    submitted_demand: dict[str, np.ndarray]
    retailer_positions: dict[str, RetailerPosition]
    producer_positions: dict[str, ProducerPosition]
    offers: OfferBook
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

    ``scenario`` is only read, and must have been generated from ``config``;
    the learned pins live in this run.
    """
    config.validate()
    if scenario is None:
        scenario = generate_scenario(config)
    elif scenario.config != config:
        raise ValueError("scenario.config differs from the config of the run")
    windows = config.bid_windows() if config.setting == OPEN else []
    # per actor: the pin on its traded volume (retailer demand, producer
    # minimum sale), then on its upward and its downward imbalance
    actors = [*scenario.retailers, *scenario.producers]
    names = [portfolio.name for portfolio in actors]
    # positions, fees and accepted bids are keyed by actor name
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"actor name {name!r} is used by two actors")
    twins = _twin_groups(actors)
    pins = ThresholdTrack(
        (len(names), 3, config.periods),
        factor=config.threshold_factor,
        forget_after=config.threshold_forget_rounds,
    )

    # per round: the (3, periods) energy price, upward and downward tariff
    history: list[np.ndarray] = []
    rounds: list[RoundRecord] = []
    states: list[np.ndarray] = []

    termination = "max_rounds"
    cycle_start = cycle_length = None

    for index in range(config.max_rounds):
        fc = make_forecast(history, config)
        # twins (the generated retailers are all alike) with equal pins share
        # one model, and one solve per stage, within this round only
        record = _play_round(index, scenario, fc, windows, dict(zip(names, pins.value)), twins)
        rounds.append(record)

        observed = np.array(
            [record.clearing.price, record.settlement.tariff_up, record.settlement.tariff_down]
        )
        history.append(observed)
        _learn(scenario, pins, record, extreme_prices(observed, config))
        # recurrence needs positions AND the learned state: a position match
        # while a threshold is still counting down to forgetting is not a
        # genuine cycle, the system will leave it again
        states.append(np.concatenate([record.state, pins.state_vector()]))

        predicted = np.array([fc.energy, fc.imbalance_up, fc.imbalance_down])
        if np.max(np.abs(predicted - observed)) <= config.convergence_tolerance:
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


def _play_round(index, scenario, fc, windows, pins, twins):
    """One round: positions, energy auction, reserve procurement,
    repositioning and settlement.  The agent modules turn positions into
    offers and bids and map accepted reserve back onto units or windows; this
    loop only hands each actor the accepted fractions of the book entries
    that carry its name.  Each actor's model is built at the top of the
    round; twins share models and positions (see :func:`_share_models` and
    :func:`_stage_positions`)."""
    config = scenario.config
    t_count = config.periods
    prices = (fc, config.price_cap, config.non_contracted_price)
    models = _share_models(
        index, scenario.retailers, twins, pins, build_retailer_model,
        *prices, windows, config.modulation_capacity_price,
    ) | _share_models(index, scenario.producers, twins, pins, build_producer_model, *prices)

    # stage 1: day-ahead positions and the energy auction
    retailer_stage1 = _stage_positions(
        index, "day-ahead", scenario.retailers, optimize_retailer, models, lambda p: {}
    )
    producer_stage1 = _stage_positions(
        index, "day-ahead", scenario.producers, optimize_producer, models, lambda p: {}
    )
    offers = OfferBook.concat(
        [
            retailer_demand_offers(retailer_stage1[p.name], p, config.price_cap)
            for p in scenario.retailers
        ]
        + [producer_energy_offers(producer_stage1[p.name], p, fc) for p in scenario.producers]
    )

    with _stage_guard(index, "energy-clearing", "market"):
        clearing = energy_market.clear(offers, t_count, config.price_cap)

    # stage 2: reserve requirement from cleared consumption, then procurement
    cleared_consumption = np.zeros(t_count)
    for portfolio in scenario.retailers:
        cleared_consumption += clearing.demand_of(portfolio.name)
    required = config.reserve_rate * cleared_consumption

    producer_stage2 = _stage_positions(
        index, "reserve-bidding", scenario.producers, optimize_producer, models,
        lambda p: dict(fixed_sale=clearing.supply_of(p.name)),
    )
    classical = ClassicalBook.concat(
        producer_reserve_bids(producer_stage2[p.name], p) for p in scenario.producers
    )
    modulation = ModulationBook.concat(
        retailer_band_bids(retailer_stage1[p.name], p, config.modulation_efficiency)
        for p in scenario.retailers
    )

    with _stage_guard(index, "reserve-clearing", "market"):
        procurement = clear_reserve(
            classical, modulation, required, required, config.reserve_prices()
        )

    # stage 3: reposition against cleared quantities
    producer_final = _stage_positions(
        index, "reposition", scenario.producers, optimize_producer, models,
        lambda p: dict(
            fixed_sale=clearing.supply_of(p.name),
            fixed_reserve=accepted_volumes(
                producer_stage2[p.name].reserve,
                procurement.classical_fraction[classical.actor == p.name],
            ),
        ),
    )
    retailer_final = _stage_positions(
        index, "reposition", scenario.retailers, optimize_retailer, models,
        lambda p: dict(
            fixed_demand=clearing.demand_of(p.name),
            fixed_amplitudes=accepted_volumes(
                retailer_stage1[p.name].amplitudes,
                procurement.modulation_fraction[modulation.actor == p.name],
            ),
        ),
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
    charges = imbalance.fees(settlement.tariff_up, settlement.tariff_down, actor_imbalances)

    submitted_demand = {n: p.demand for n, p in retailer_stage1.items()}
    submitted_sale = {n: p.sale for n, p in producer_stage1.items()}
    state = _state_vector(
        clearing.price, settlement.tariff_up, settlement.tariff_down,
        submitted_demand, submitted_sale, retailer_final, producer_final, windows,
    )
    return RoundRecord(
        index=index,
        submitted_demand=submitted_demand,
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


def _share_models(index, portfolios, twins, pins, build, *inputs):
    """Each actor's model ``build(portfolio, *inputs, pins)`` for round
    ``index``; twins (equal ``twins`` group) with bit-equal pins share one."""
    built, models = {}, {}
    for portfolio in portfolios:
        name = portfolio.name
        with _stage_guard(index, "day-ahead", name):
            key = (twins[name], pins[name].tobytes())
            if key not in built:
                built[key] = build(portfolio, *inputs, pins[name])
        models[name] = built[key]
    return models


def _stage_positions(index, stage, portfolios, optimize, models, fixed):
    """Each actor's position in one stage of round ``index``:
    ``optimize(models[name], **fixed(portfolio))``, where ``fixed`` gives
    the stage's fixed quantities.  It runs once for actors that share a
    model and whose fixed arrays are equal to the bit; they share its
    position.
    """
    positions, solved = {}, {}
    for portfolio in portfolios:
        name = portfolio.name
        with _stage_guard(index, stage, name):
            arrays = fixed(portfolio)
            key = (id(models[name]), *(value.tobytes() for value in arrays.values()))
            if key not in solved:
                solved[key] = optimize(models[name], **arrays)
        positions[name] = solved[key]
    return positions


def _twin_groups(portfolios) -> dict[str, int]:
    """Each portfolio's group: the index of the first portfolio equal to it
    in every field but the names of it and of its loads or units."""
    first: dict[tuple, int] = {}
    return {
        portfolio.name: first.setdefault(_twin_key(portfolio), k)
        for k, portfolio in enumerate(portfolios)
    }


def _twin_key(value):
    """A key equal for two values exactly when they agree in every dataclass
    field but ``name``, down to the bits of each number."""
    if dataclasses.is_dataclass(value):
        return (type(value).__qualname__,) + tuple(
            _twin_key(getattr(value, f.name)) for f in dataclasses.fields(value) if f.name != "name"
        )
    if isinstance(value, (list, tuple)):
        return tuple(map(_twin_key, value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    # repr tells -0.0 from 0.0 and every float from its neighbours
    return (type(value).__qualname__, repr(value))


@contextmanager
def _stage_guard(round_index, stage, actor):
    """Annotate an error raised inside with its round, stage and actor;
    interrupts such as ``KeyboardInterrupt`` pass through unchanged."""
    try:
        yield
    except RoundError:
        raise
    except Exception as exc:
        raise RoundError(f"round {round_index}, stage {stage!r}, actor {actor!r}: {exc}") from exc


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


def _learn(scenario: Scenario, pins: ThresholdTrack, record: RoundRecord, triggered: np.ndarray) -> None:
    """One update of the (actors, 3, periods) pins: the round's (3, periods)
    extreme-price mask ``triggered`` applies to every actor."""
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
