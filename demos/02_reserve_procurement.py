"""Reserve procurement: classical bids against a flexibility band.

A modulation bid covers both reserve directions in every period of its
block (discounted by its efficiency ratio), so at a low regulated capacity
price it displaces most of the classical book.  Raising that price hands
the volume back.
"""

import numpy as np

from flexmarket.reserve_market import (
    ClassicalBook,
    ModulationBook,
    ReservePrices,
    clear_reserve,
)

# one row per bid: (actor, period, direction, volume MW, activation price)
classical = ClassicalBook.from_rows(
    ("gen", t, direction, 25.0, price)
    for t in range(4)
    for direction, price in (("up", 62.0), ("down", 48.0))
)
# (actor, start, length, amplitude MW, activation price, efficiency)
band = ModulationBook.from_rows([("retail", 0, 4, 50.0, 0.0, 0.5)])
no_band = ModulationBook.from_rows([])
required = np.full(4, 20.0)

for capacity_price in (10.0, 120.0, 400.0):
    prices = ReservePrices(
        up_capacity=45.0, down_capacity=45.0,
        modulation_capacity=capacity_price, non_contracted=500.0,
    )
    result = clear_reserve(classical, band, required, required, prices)
    taken = result.modulation_fraction[0] * band.amplitude[0]
    print(
        f"band capacity price {capacity_price:6.1f}: contracted band {taken:5.1f} MW, "
        f"procurement cost {result.contracted_cost:8.0f} EUR"
    )

print()
print("with no band on offer:")
result = clear_reserve(classical, no_band, required, required, ReservePrices())
print(f"  classical-only cost {result.contracted_cost:8.0f} EUR")
