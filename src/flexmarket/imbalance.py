"""Imbalance settlement: optimal reserve activation, tariffs and fees.

Once positions are final the operator knows the per-period system imbalance
exactly (the model is deterministic) and computes the cheapest activation
of the contracted reserves that restores balance, falling back on
non-contracted energy when they do not suffice.  The per-direction tariff
of a period is the activation price of the dearest bid used in that
direction, the fallback price when non-contracted reserve was needed, and
zero when nothing was activated.  Actors then pay their own deviations at
those tariffs, each direction against its own tariff even when the system
nets out.

Sign convention: system imbalance > 0 is a surplus (absorbed by downward
activation), < 0 a deficit (covered by upward activation).  An actor's
upward imbalance is an upward deviation of its net injection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import EQUAL, LinearProgram, solve
from .reserve_market import UP, ReserveProcurement, band_coverage

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
    activation_cost: float                  # LP objective
    contracted_classical: list              # (bid, volume) pairs used in the LP
    contracted_modulation: list


def settle(
    imbalance: np.ndarray,
    procurement: ReserveProcurement,
    non_contracted_price: float,
) -> SettlementResult:
    """Cheapest activation restoring per-period balance.

    ``procurement`` supplies both the contracted volumes and the
    over-contract penalty prices fixed at clearing time, which price the
    downward activations here as well.
    """
    imbalance = np.asarray(imbalance, dtype=float)
    period_count = len(imbalance)
    classical = procurement.contracted_classical()
    modulation = procurement.contracted_modulation()
    penalty = procurement.over_commit_penalty

    lp = LinearProgram(sense="min", name="settlement")
    is_up = np.array([bid.direction == UP for bid, _ in classical], dtype=bool)
    contracted_mw = np.array([mw for _, mw in classical], dtype=float)
    price = np.array([bid.activation_price for bid, _ in classical], dtype=float)
    period = np.array([bid.period for bid, _ in classical], dtype=np.intp)
    x = lp.add_variables(len(classical), 0.0, 1.0)
    lp.add_objectives(
        x,
        np.where(is_up, price + ACTIVATION_FRICTION, penalty[period] - price + ACTIVATION_FRICTION)
        * contracted_mw,
    )

    # per band bid, an upward then a downward activation share per covered
    # period; the two must balance over the bid's window
    bands = [bid for bid, _ in modulation]
    band_mw = np.array([mw for _, mw in modulation], dtype=float)
    band_price = np.array([bid.activation_price for bid in bands], dtype=float)
    lengths = np.array([bid.length for bid in bands], dtype=np.intp)
    owner, covered = band_coverage(bands)
    shares = lp.add_variables(2 * owner.size, 0.0, 1.0)
    # bid k's block holds its v then its w shares, so the slot s of k
    # (counted over all bids) is v share s + (slots before k)
    v = shares[np.arange(owner.size) + np.repeat(np.cumsum(lengths) - lengths, lengths)]
    w = v + lengths[owner]
    band_cost = ((band_price + ACTIVATION_FRICTION) * band_mw)[owner]
    lp.add_objectives(v, band_cost)
    lp.add_objectives(w, band_cost)
    lp.add_constraints([(owner, v, 1.0), (owner, w, -1.0)], EQUAL, np.zeros(len(bands)))

    y_up = lp.add_variables(period_count)
    y_dn = lp.add_variables(period_count)
    lp.add_objectives(y_up, non_contracted_price)
    lp.add_objectives(y_dn, non_contracted_price)
    periods = np.arange(period_count)
    lp.add_constraints(
        [
            (periods, y_up, 1.0),
            (periods, y_dn, -1.0),
            (period, x, np.where(is_up, contracted_mw, -contracted_mw)),
            (covered, v, band_mw[owner]),
            (covered, w, -band_mw[owner]),
        ],
        EQUAL,
        -imbalance,
    )

    sol = solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"settlement unexpectedly {sol.status}")

    x_val = np.clip(sol.values(x), 0.0, 1.0)
    splits = np.cumsum(lengths)[:-1]
    v_val = np.split(sol.values(v), splits) if bands else []
    w_val = np.split(sol.values(w), splits) if bands else []

    # report the true activation cost, without the tie-break friction
    cost = 0.0
    for k, (bid, volume) in enumerate(classical):
        if bid.direction == UP:
            cost += bid.activation_price * volume * x_val[k]
        else:
            cost += (penalty[bid.period] - bid.activation_price) * volume * x_val[k]
    for k, (bid, volume) in enumerate(modulation):
        cost += bid.activation_price * volume * float(np.sum(v_val[k] + w_val[k]))
    up = np.zeros(period_count)
    down = np.zeros(period_count)
    for k, (bid, volume) in enumerate(classical):
        if bid.direction == UP:
            up[bid.period] += volume * x_val[k]
        else:
            down[bid.period] += volume * x_val[k]
    for k, (bid, volume) in enumerate(modulation):
        for j, t in enumerate(bid.periods):
            up[t] += volume * v_val[k][j]
            down[t] += volume * w_val[k][j]
    nc_up = sol.values(y_up)
    nc_dn = sol.values(y_dn)
    cost += non_contracted_price * float(np.sum(nc_up + nc_dn))

    return SettlementResult(
        classical_activation=x_val,
        modulation_up=v_val,
        modulation_down=w_val,
        non_contracted_up=nc_up,
        non_contracted_down=nc_dn,
        activated_up=up + nc_up,
        activated_down=down + nc_dn,
        imbalance=imbalance,
        activation_cost=cost,
        contracted_classical=classical,
        contracted_modulation=modulation,
    )


def tariffs(result: SettlementResult, non_contracted_price: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-period imbalance tariffs, one per direction.

    Most expensive activated bid in that direction; the fallback price when
    non-contracted reserve was used; zero when the direction saw no
    activation at all.
    """
    period_count = len(result.imbalance)
    tariff_up = np.zeros(period_count)
    tariff_down = np.zeros(period_count)
    for t in range(period_count):
        up_prices = []
        down_prices = []
        for (bid, volume), x in zip(result.contracted_classical, result.classical_activation):
            if bid.period == t and volume * x > ACTIVATION_TOL:
                (up_prices if bid.direction == UP else down_prices).append(bid.activation_price)
        for (bid, volume), v_k, w_k in zip(
            result.contracted_modulation, result.modulation_up, result.modulation_down
        ):
            if t in bid.periods:
                j = t - bid.start
                if volume * v_k[j] > ACTIVATION_TOL:
                    up_prices.append(bid.activation_price)
                if volume * w_k[j] > ACTIVATION_TOL:
                    down_prices.append(bid.activation_price)
        if result.non_contracted_up[t] > ACTIVATION_TOL:
            tariff_up[t] = non_contracted_price
        elif up_prices:
            tariff_up[t] = max(up_prices)
        if result.non_contracted_down[t] > ACTIVATION_TOL:
            tariff_down[t] = non_contracted_price
        elif down_prices:
            tariff_down[t] = max(down_prices)
    return tariff_up, tariff_down


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
