"""Imbalance settlement: activation plan, tariffs and actor fees.

The requirement here exceeds what the flexibility band can carry, so the
procurement holds both the band and classical bids.  A swing inside the
block is absorbed by the band for free; pushing past it activates
classical bids whose price becomes the tariff; a sustained one-sided gap
defeats the energy-neutral band entirely and spills onto expensive
non-contracted reserve.
"""

import numpy as np

from flexmarket.imbalance import fees, settle
from flexmarket.reserve_market import (
    ClassicalBook,
    ModulationBook,
    ReservePrices,
    clear_reserve,
)

PI_NC = 500.0
required = np.full(4, 18.0)
classical = ClassicalBook.from_rows(
    ("gen", t, direction, 10.0, price)
    for t in range(4)
    for direction, price in (("up", 58.0), ("down", 48.0))
)
band = ModulationBook.from_rows([("retail", 0, 4, 24.0, 0.0, 0.5)])
procurement = clear_reserve(classical, band, required, required, ReservePrices())
# what was contracted: each accepted bid's MW where its fraction counts as accepted
held_up = procurement.classical_contracted & (classical.direction == "up")
up_held = np.sum(classical.volume[held_up] * procurement.classical_fraction[held_up])
print(
    f"contracted: band {procurement.modulation_fraction[0] * band.amplitude[0]:.0f} MW, "
    f"classical up {up_held:.0f} MW across the day"
)
print()

# a 30 MW gap exceeds the 24 MW band, so classical bids price the tariff
for label, imbalance in (
    ("swing: deficit then surplus", np.array([-30.0, 0.0, 30.0, 0.0])),
    ("sustained deficit", np.array([-30.0, -30.0, -30.0, -30.0])),
):
    result = settle(imbalance, procurement, PI_NC)
    up, down = result.tariff_up, result.tariff_down
    print(label)
    print("  imbalance      ", imbalance)
    print("  activated up   ", result.activated_up.round(2))
    print("  activated down ", result.activated_down.round(2))
    print("  non-contracted ", (result.non_contracted_up + result.non_contracted_down).round(2))
    print("  tariff up/down ", up.round(1), down.round(1))
    # fees hit each actor's own deviation direction, even when the system
    # nets differently: decompose the gap into one actor deviating up by
    # |I| and another deviating down by |I| - I
    long_up = np.abs(imbalance)
    short_down = np.abs(imbalance) - imbalance
    charges = fees(up, down, {"long-actor": (long_up, np.zeros(4)), "short-actor": (np.zeros(4), short_down)})
    print(
        f"  fees: the up-deviating actor pays {charges['long-actor']:.0f} EUR, "
        f"the down-deviating one {charges['short-actor']:.0f} EUR"
    )
    print()
