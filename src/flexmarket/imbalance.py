"""Imbalance settlement: optimal reserve activation, tariffs and fees.

Once positions are final the operator knows the per-period system imbalance
exactly (the model is deterministic) and activates the contracted reserves
at least cost to restore balance, falling back on non-contracted energy at
its fixed price when they do not suffice.  Each activation is a share in
[0, 1] of a contracted volume in one direction and period: it adds
``+MW * share`` (upward) or ``-MW * share`` (downward) to the balance of its
period, and costs the operator per MW

- for an upward classical bid, its activation price;
- for a downward classical bid, ``penalty - activation price``: the operator
  is paid the price but pays back the over-contract penalty of the period,
  set at clearing 1.1 times the dearest downward price there, so the cost
  is never negative;
- for a band share in either direction, its activation price.  "A load
  modulation in one direction must ... be compensated later by a modulation
  of the same magnitude in the opposite direction", so the upward and
  downward shares of a band move equal energy over its window.

The per-direction tariff of a period is the activation price of the dearest
activation used in that direction, the fallback price when non-contracted
energy was needed, and zero when nothing was activated.  Actors then pay
their own deviations at those tariffs, each direction against its own
tariff even when the system nets out.

Sign convention: system imbalance > 0 is a surplus (absorbed by downward
activation), < 0 a deficit (covered by upward activation).  An actor's
upward imbalance is an upward deviation of its net injection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import EQUAL, LinearProgram, solve
from .reserve_market import UP, ReserveProcurement, band_coverage, ordered_sum

#: activations below this volume (MW) are treated as zero for tariff setting
ACTIVATION_TOL = 1e-9

#: vanishing per-MW cost on every activation; free modulation activations
#: would otherwise admit pointless paired up/down dispatch at zero cost
ACTIVATION_FRICTION = 1e-7


@dataclass
class SettlementResult:
    """Activation plan for one day plus the prices it implies."""

    classical_activation: np.ndarray        # fraction per contracted classical bid
    modulation_up: list[np.ndarray]         # per contracted modulation bid, per covered period
    modulation_down: list[np.ndarray]
    non_contracted_up: np.ndarray           # MW per period
    non_contracted_down: np.ndarray
    activated_up: np.ndarray                # MW per period, contracted + fallback
    activated_down: np.ndarray
    imbalance: np.ndarray                   # the settled system imbalance
    activation_cost: float                  # EUR, the LP objective without the friction
    tariff_up: np.ndarray                   # EUR/MWh per period
    tariff_down: np.ndarray


def settle(
    imbalance: np.ndarray,
    procurement: ReserveProcurement,
    non_contracted_price: float,
) -> SettlementResult:
    """Cheapest activation restoring per-period balance, and its tariffs.
    ``procurement`` gives the contracted volumes and the over-contract
    penalties that price downward classical activations."""
    imbalance = np.asarray(imbalance, dtype=float)
    period_count = len(imbalance)
    penalty = procurement.over_commit_penalty
    if period_count != len(penalty):
        raise ValueError(f"imbalance covers {period_count} periods, the procurement {len(penalty)}")
    # written as "holds" so that NaN fails too
    bad = np.flatnonzero(~(np.abs(imbalance) < np.inf))
    if bad.size:
        raise ValueError(f"imbalance {imbalance[bad[0]].item()!r} in period {bad[0]} is not finite")
    if not 0 <= non_contracted_price < np.inf:
        raise ValueError(
            f"non-contracted price {non_contracted_price!r} is not nonnegative and finite"
        )

    # the activation list in LP column order: the contracted classical bids
    # in book order, then per sold band its upward share of each covered
    # period followed by its downward shares (its halves 2k and 2k + 1)
    classical, held = procurement.classical, procurement.classical_contracted
    bands, sold = procurement.modulation, procurement.modulation_contracted
    n_classical = np.count_nonzero(held)
    twice = np.repeat(np.flatnonzero(sold), 2)
    half, covered = band_coverage(bands.start[twice], bands.length[twice])
    band = twice[half]
    direction = np.concatenate([classical.direction[held] != UP, half % 2])
    period = np.concatenate([classical.period[held].astype(np.intp), covered])
    classical_mw = (classical.volume * procurement.classical_fraction)[held]
    mw = np.concatenate([classical_mw, (bands.amplitude * procurement.modulation_fraction)[band]])
    price = np.concatenate([classical.activation_price[held], bands.activation_price[band]])
    classical_down = (direction == 1) & (np.arange(direction.size) < n_classical)
    cost = np.where(classical_down, penalty[period] - price, price)
    sign = 1.0 - 2.0 * direction

    lp = LinearProgram(sense="min", name="settlement")
    shares = lp.add_variables(direction.size, 0.0, 1.0)
    lp.add_objectives(shares, (cost + ACTIVATION_FRICTION) * mw)
    # a band's upward and downward shares move equal energy over its window
    lp.add_constraints(
        [(half // 2, shares[n_classical:], sign[n_classical:])], EQUAL, np.zeros(twice.size // 2)
    )
    # non-contracted MW, upward in every period and then downward
    y = lp.add_variables(2 * period_count)
    lp.add_objectives(y, non_contracted_price)
    y_period, y_sign = np.tile(np.arange(period_count), 2), np.repeat([1.0, -1.0], period_count)
    lp.add_constraints([(y_period, y, y_sign), (period, shares, sign * mw)], EQUAL, -imbalance)

    sol = solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"settlement unexpectedly {sol.status}")

    share = np.clip(sol.values(shares), 0.0, 1.0)
    nc = sol.values(y).reshape(2, period_count)
    # activated MW per direction (row 0 up, row 1 down) in column order, then
    # the fallback on top; the tariff is the dearest activation price used,
    # and activation prices are nonnegative, so a running maximum from zero
    # leaves zero exactly where nothing was activated
    activated, tariff = np.zeros((2, period_count)), np.zeros((2, period_count))
    used_mw = mw * share
    np.add.at(activated, (direction, period), used_mw)
    used = used_mw > ACTIVATION_TOL
    np.maximum.at(tariff, (direction[used], period[used]), price[used])
    tariff[nc > ACTIVATION_TOL] = non_contracted_price
    activated += nc
    halves = np.split(share[n_classical:], np.cumsum(bands.length[twice].astype(np.intp)))[:-1]

    return SettlementResult(
        classical_activation=share[:n_classical],
        modulation_up=halves[0::2],
        modulation_down=halves[1::2],
        non_contracted_up=nc[0],
        non_contracted_down=nc[1],
        activated_up=activated[0],
        activated_down=activated[1],
        imbalance=imbalance,
        # the true activation cost, without the tie-break friction
        activation_cost=ordered_sum(
            cost * mw * share, [non_contracted_price * np.sum(nc[0] + nc[1])]
        ),
        tariff_up=tariff[0],
        tariff_down=tariff[1],
    )


def fees(
    tariff_up: np.ndarray,
    tariff_down: np.ndarray,
    actor_imbalances: dict[str, tuple[np.ndarray, np.ndarray]],
) -> dict[str, float]:
    """Per-actor settlement charge in EUR.

    ``actor_imbalances`` maps an actor to its (upward, downward) deviation
    energy per period in MWh; each direction is charged at its own tariff,
    regardless of how the system netted out.
    """
    out = {}
    for actor, (up, down) in actor_imbalances.items():
        out[actor] = float(np.asarray(up) @ tariff_up + np.asarray(down) @ tariff_down)
    return out
