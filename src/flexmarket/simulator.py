"""Round loop: energy auction, reserve procurement, settlement, learning.

One round is one simulated day, played as the stages of ``_STAGES``: actors
optimize against forecasts (day-ahead), the energy market clears, producers
bid reserve (and retailers bands, in the open setting), the reserve market
clears a requirement that follows the cleared consumption, everyone
repositions against what actually cleared, and the settlement prices the
resulting imbalances.  Actors then learn: price forecasts absorb the new
observations, and threshold pins react to cap or extreme-tariff events.
Rounds repeat until forecasts match outcomes, the actors revisit an earlier
joint position (a cycle), or the round budget runs out.

The learned pins belong to the run, not to the scenario: :func:`run` keeps
one :class:`ThresholdTrack` over (actors, 3, periods), retailers then
producers in scenario order, starts it fresh and never changes the
portfolios it is given, so running one scenario twice gives the same result.
So do each producer's model and bases.  A producer's model is built once
per run, in the first round's day-ahead stage, and every solve of the run
takes its round's forecast as costs and its pins as bounds (see
:mod:`.agents.producer`).  Per stage, the run keeps the HiGHS basis that the
producer's last solve in that stage ended on, and the next round's solve in
that stage starts from it.  Reserve bidding starts from the day-ahead basis
in the first round, and the first round's day-ahead and reposition solves
from the slack basis; this rule lives in :func:`_solve_producer`, through
which every stage solves its producers.  Retailer and market LPs are
dual-degenerate, so where their simplex starts could move their vertex;
they always start cold, presolve included.

Each stage is one function over one round context, run under one guard
that names the round, stage and actor of an error (:class:`RoundError`).
Each retailer's model is built once per round, in the day-ahead stage, from
the round's forecast and its pins; later stages solve it under their fixed
quantities.  Actors equal in everything but their names are twins (the
generated retailers all are).  Twin producers share one model for the run,
twin retailers with equal pins one model for the round, and twins whose
pins and fixed quantities are equal, and whose bases came from one shared
solve, share one solve and its position; the context, retailer models
included, is dropped when the round ends, and only the producer models,
the bases and the pins outlive it.

The ``day-ahead``, ``reserve-bidding`` and ``reposition`` stages solve
their actors' LPs one by one, in actor order, on the calling thread, each
actor's solve followed by what the stage does with its result (its offers
or bids), so an error names the first actor in actor order whose step
failed.  A call twins share is made once per stage (:func:`_shared`).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

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
    # per producer: its model; per (stage, producer): the basis its last
    # solve in that stage ended on
    models, bases = {}, {}

    # per round: the (3, periods) energy price, upward and downward tariff
    history: list[np.ndarray] = []
    rounds: list[RoundRecord] = []
    states: list[np.ndarray] = []

    termination = "max_rounds"
    cycle_start = cycle_length = None

    for index in range(config.max_rounds):
        fc = make_forecast(history, config)
        # twins (the generated retailers are all alike) with equal pins share
        # one solve per stage, within this round only
        record = _play_round(
            index, scenario, fc, windows, dict(zip(names, pins.value)), twins, models, bases
        )
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


def _play_round(index, scenario, fc, windows, pins, twins, models, bases):
    """Round ``index``: the stages of :data:`_STAGES` over one round context.
    The record takes the context's fields of its own names; ``models`` (the
    producers') and ``bases`` are the run's, and the producer stages fill
    and replace their entries."""
    r = SimpleNamespace(
        index=index, config=scenario.config, retailers=scenario.retailers,
        producers=scenario.producers, fc=fc, windows=windows, pins=pins, twins=twins,
        producer_models=models, bases=bases,
    )
    for stage, actor, play in _STAGES:
        r.stage, r.actor = stage, actor
        with _stage_guard(r):
            play(r)
    return RoundRecord(**{f.name: getattr(r, f.name) for f in dataclasses.fields(RoundRecord)})


def _day_ahead(r):
    """Each retailer's model, built from the forecast and its pins, each
    producer's, built in the first round, their positions against the
    forecast and their energy offers."""
    c = r.config
    prices = (r.fc, c.price_cap, c.non_contracted_price)

    def retailer(p):
        model = build_retailer_model(
            p, *prices, r.windows, c.modulation_capacity_price, r.pins[p.name]
        )
        return model, optimize_retailer(model)

    once = _shared(r)
    r.models, r.day_ahead, r.offer_books = {}, {}, []
    for p in r.retailers:
        r.actor = p.name
        r.models[p.name], r.day_ahead[p.name] = once(p.name, retailer, p)
        r.offer_books.append(retailer_demand_offers(r.day_ahead[p.name], p, c.price_cap))
    for p in r.producers:
        r.actor = p.name
        if p.name not in r.producer_models:
            r.producer_models[p.name] = once(
                p.name, build_producer_model, p, c.price_cap, c.non_contracted_price
            )
        r.day_ahead[p.name] = _solve_producer(r, once, p)
        r.offer_books.append(producer_energy_offers(r.day_ahead[p.name], p, r.fc))
    r.submitted_demand = {p.name: r.day_ahead[p.name].demand for p in r.retailers}


def _clear_energy(r):
    """The auction of the actors' offers, in actor order."""
    r.offers = OfferBook.concat(r.offer_books)
    r.clearing = energy_market.clear(r.offers, r.config.periods, r.config.price_cap)


def _bid_reserve(r):
    """Each producer's position with its cleared sale fixed and its reserve
    bids; each retailer's band bids from its day-ahead amplitudes."""
    once = _shared(r)
    r.reserve_bidding, r.classical_books, r.modulation_books = {}, [], []
    for p in r.producers:
        r.actor = p.name
        position = _solve_producer(
            r, once, p, first=r.bases["day-ahead", p.name],
            fixed_sale=r.clearing.supply_of(p.name),
        )
        r.reserve_bidding[p.name] = position
        r.classical_books.append(producer_reserve_bids(position, p))
    for p in r.retailers:
        r.actor = p.name
        r.modulation_books.append(
            retailer_band_bids(r.day_ahead[p.name], p, r.config.modulation_efficiency)
        )


def _clear_reserve(r):
    """Procurement of the reserve requirement, which follows the cleared
    consumption, from the actors' bids."""
    c = r.config
    required = c.reserve_rate * sum(
        (r.clearing.demand_of(p.name) for p in r.retailers), np.zeros(c.periods)
    )
    r.procurement = clear_reserve(
        ClassicalBook.concat(r.classical_books), ModulationBook.concat(r.modulation_books),
        required, required, c.reserve_prices(),
    )


def _reposition(r):
    """Each actor's position against what cleared: its sale or purchase and
    its accepted reserve or amplitudes fixed.  The agent modules map the
    accepted fractions of the book entries that carry its name back onto
    its units or windows.  In the first round, producers start from the
    slack basis: from the reserve-bidding basis, the simplex takes longer
    than from scratch."""
    once = _shared(r)
    r.producer_positions, r.retailer_positions = {}, {}
    for p in r.producers:
        r.actor = p.name
        r.producer_positions[p.name] = _solve_producer(
            r, once, p,
            fixed_sale=r.clearing.supply_of(p.name),
            fixed_reserve=accepted_volumes(
                r.reserve_bidding[p.name].reserve,
                r.procurement.classical_fraction[r.procurement.classical.actor == p.name],
            ),
        )
    for p in r.retailers:
        r.actor = p.name
        r.retailer_positions[p.name] = once(
            p.name, optimize_retailer, r.models[p.name],
            fixed_demand=r.clearing.demand_of(p.name),
            fixed_amplitudes=accepted_volumes(
                r.day_ahead[p.name].amplitudes,
                r.procurement.modulation_fraction[r.procurement.modulation.actor == p.name],
            ),
        )


def _settle(r):
    """Settlement of the resulting system imbalance, each actor's fees, and
    the round's metrics and state."""
    c = r.config
    positions = {**r.retailer_positions, **r.producer_positions}
    system = sum(
        (position.imbalance_up - position.imbalance_down for position in positions.values()),
        np.zeros(c.periods),
    )
    r.settlement = imbalance.settle(system, r.procurement, c.non_contracted_price)
    r.fees = imbalance.fees(
        r.settlement.tariff_up,
        r.settlement.tariff_down,
        {
            name: (position.imbalance_up * c.period_hours, position.imbalance_down * c.period_hours)
            for name, position in positions.items()
        },
    )
    r.metrics = _round_metrics(r.clearing.price, r.procurement, r.settlement, c.period_hours)
    r.state = _state_vector(r)


#: the round, stage by stage: (stage, actor named by an error before the stage
#: reaches an actor of its own, stage function)
_STAGES = (
    ("day-ahead", None, _day_ahead),
    ("energy-clearing", "market", _clear_energy),
    ("reserve-bidding", None, _bid_reserve),
    ("reserve-clearing", "market", _clear_reserve),
    ("reposition", None, _reposition),
    ("settlement", "operator", _settle),
)


def _solve_producer(r, once, p, first=None, **fixed):
    """Producer ``p``'s position in ``r``'s stage under the ``fixed``
    quantities, through the stage memo ``once``.  It starts from the basis
    its stage ended on the round before, else from ``first`` (``None``: the
    slack basis), and keeps the basis it ends on for the next round."""
    position, r.bases[r.stage, p.name] = once(
        p.name, optimize_producer, r.producer_models[p.name], r.fc, r.pins[p.name],
        basis=r.bases.get((r.stage, p.name), first), **fixed,
    )
    return position


def _shared(r):
    """A memo for one stage of round context ``r``: ``once(actor, call,
    *args, **fixed)`` returns ``call(*args, **fixed)``, made for ``actor``.
    Twins (equal ``r.twins`` group) whose pins and ``fixed`` arrays are
    equal to the bit, and whose other ``fixed`` values (bases) are the same
    objects, share one call and its result object: so the model a day-ahead
    call builds, and in each stage one position.  Each stage makes a memo
    of its own, so the stage is not part of the key."""
    memo = {}

    def once(actor, call, *args, **fixed):
        key = (
            call, r.twins[actor], r.pins[actor].tobytes(),
            *(v.tobytes() if isinstance(v, np.ndarray) else v for v in fixed.values()),
        )
        if key not in memo:
            memo[key] = call(*args, **fixed)
        return memo[key]

    return once


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
def _stage_guard(r):
    """Annotate an error raised inside with the round, stage and actor that
    round context ``r`` is at; interrupts such as ``KeyboardInterrupt`` pass
    through unchanged."""
    try:
        yield
    except Exception as exc:
        raise RoundError(f"round {r.index}, stage {r.stage!r}, actor {r.actor!r}: {exc}") from exc


def _state_vector(r):
    parts = [r.clearing.price, r.settlement.tariff_up, r.settlement.tariff_down]
    for name, position in r.retailer_positions.items():
        parts += [
            r.submitted_demand[name], position.imbalance_up, position.imbalance_down,
            position.amplitudes,
        ]
    for name, position in r.producer_positions.items():
        parts += [r.day_ahead[name].sale, position.imbalance_up, position.imbalance_down]
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
    rows = np.array([dataclasses.astuple(r.metrics) for r in records])
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
