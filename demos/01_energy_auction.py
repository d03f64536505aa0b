"""Uniform-price energy auction on a tiny order book.

Walks through the three cases the clearing has to get right: a plain
crossing, a marginal offer filled pro rata, and a scarcity period where the
price cap binds and demand is rationed.
"""

from flexmarket.energy_market import DEMAND, SUPPLY, OfferBook, clear

CAP = 3000.0

# one column per field, one entry per offer
offers = OfferBook(
    actor=["gen-a", "gen-b", "retail", "gen-a", "gen-b", "retail", "gen-a", "retail"],
    period=[0, 0, 0, 1, 1, 1, 2, 2],
    side=[SUPPLY, SUPPLY, DEMAND, SUPPLY, SUPPLY, DEMAND, SUPPLY, DEMAND],
    volume=[50.0, 50.0, 75.0, 30.0, 60.0, 45.0, 100.0, 120.0],
    price=[40.0, 60.0, CAP, 50.0, 50.0, CAP, 50.0, CAP],
)
# period 0: plain crossing -- the 60-priced unit sets the price
# period 1: two offers tied at the margin share the fill
# period 2: demand exceeds everything on offer

result = clear(offers, period_count=3, price_cap=CAP)

for t in range(3):
    print(f"period {t}: price {result.price[t]:.2f} EUR/MWh, traded {result.traded_volume[t]:.1f} MW")
print()
for (actor, period, side, volume, price), fraction in zip(offers.rows(), result.fractions):
    print(
        f"  {actor:7s} t={period} {side:6s} "
        f"{volume:6.1f} MW @ {price:7.1f} -> accepted {fraction:.0%}"
    )
print()
print("cleared demand of 'retail':", result.demand_of("retail").round(1))
