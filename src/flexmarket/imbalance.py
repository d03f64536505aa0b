"""Imbalance settlement: optimal reserve activation, tariffs and fees.

Once positions are final the operator knows the per-period system imbalance
exactly (the model is deterministic) and computes the cheapest activation
of the contracted reserves that restores balance, falling back on
non-contracted energy when they do not suffice.  :func:`settle` prices that
activation in the same pass: the per-direction tariff of a period is the
activation price of the dearest bid used in that direction, the fallback
price when non-contracted reserve was needed, and zero when nothing was
activated.  Actors then pay their own deviations at those tariffs, each
direction against its own tariff even when the system nets out.

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

    ``procurement`` supplies both the contracted volumes and the
    over-contract penalty prices fixed at clearing time, which price the
    downward activations here as well.  The per-MW prices that weight the
    LP objective also give the reported ``activation_cost``, and the
    activated MW and tariffs are gathered onto the periods of the LP's
    balance rows.
    """
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

    lp = LinearProgram(sense="min", name="settlement")
    # an upward activation costs its price; a downward one saves its price
    # but pays back the over-contract penalty
    classical, contracted = procurement.classical, procurement.classical_contracted
    is_up = classical.direction[contracted] == UP
    contracted_mw = classical.volume[contracted] * procurement.classical_fraction[contracted]
    price = classical.activation_price[contracted]
    period = classical.period[contracted].astype(np.intp)
    unit_cost = np.where(is_up, price, penalty[period] - price)
    x = lp.add_variables(len(contracted_mw), 0.0, 1.0)
    lp.add_objectives(x, (unit_cost + ACTIVATION_FRICTION) * contracted_mw)

    # per band bid, an upward then a downward activation share per covered
    # period; the two must balance over the bid's window
    bands, sold = procurement.modulation, procurement.modulation_contracted
    band_mw = bands.amplitude[sold] * procurement.modulation_fraction[sold]
    band_price = bands.activation_price[sold]
    lengths = bands.length[sold].astype(np.intp)
    owner, covered = band_coverage(bands.start[sold], lengths)
    shares = lp.add_variables(2 * owner.size, 0.0, 1.0)
    # bid k's block holds its v then its w shares, so the slot s of k
    # (counted over all bids) is v share s + (slots before k)
    v = shares[np.arange(owner.size) + np.repeat(np.cumsum(lengths) - lengths, lengths)]
    w = v + lengths[owner]
    band_cost = ((band_price + ACTIVATION_FRICTION) * band_mw)[owner]
    lp.add_objectives(v, band_cost)
    lp.add_objectives(w, band_cost)
    lp.add_constraints([(owner, v, 1.0), (owner, w, -1.0)], EQUAL, np.zeros(len(band_mw)))

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
    v_val, w_val = sol.values(v), sol.values(w)
    nc_up, nc_dn = sol.values(y_up), sol.values(y_dn)
    # activated MW per direction (row 0 up, row 1 down) in bid order, then
    # the fallback on top; the tariff is the dearest activation price used,
    # and activation prices are nonnegative, so a running maximum from zero
    # leaves zero exactly where nothing was activated
    activated, tariff = np.zeros((2, period_count)), np.zeros((2, period_count))
    row = np.where(is_up, 0, 1)
    mw = contracted_mw * x_val
    np.add.at(activated, (row, period), mw)
    used = mw > ACTIVATION_TOL
    np.maximum.at(tariff, (row[used], period[used]), price[used])
    for k, share in enumerate((v_val, w_val)):
        mw = band_mw[owner] * share
        np.add.at(activated[k], covered, mw)
        used = mw > ACTIVATION_TOL
        np.maximum.at(tariff[k], covered[used], band_price[owner][used])
    tariff[0, nc_up > ACTIVATION_TOL] = non_contracted_price
    tariff[1, nc_dn > ACTIVATION_TOL] = non_contracted_price
    splits = np.cumsum(lengths)[:-1]

    return SettlementResult(
        classical_activation=x_val,
        modulation_up=np.split(v_val, splits) if len(band_mw) else [],
        modulation_down=np.split(w_val, splits) if len(band_mw) else [],
        non_contracted_up=nc_up,
        non_contracted_down=nc_dn,
        activated_up=activated[0] + nc_up,
        activated_down=activated[1] + nc_dn,
        imbalance=imbalance,
        # the true activation cost, without the tie-break friction
        activation_cost=ordered_sum(
            unit_cost * contracted_mw * x_val,
            (band_price * band_mw)[owner] * (v_val + w_val),
            [non_contracted_price * np.sum(nc_up + nc_dn)],
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
