"""A retailer turning tank-load slack into reserve-market bands.

The optimizer builds, for every band it sells, the two extreme dispatches
(high-then-low and its mirror) that the operator may request; the random
coverage check then confirms that everything in between is feasible too.
"""

import numpy as np

from flexmarket.agents import (
    RetailerPortfolio,
    TankLoad,
    build_retailer_model,
    optimize_retailer,
    verify_scenario_coverage,
)
from flexmarket.agents.forecast import PriceForecast

T = 8
forecast = PriceForecast(
    energy=np.array([46.0, 46.0, 49.0, 49.0, 52.0, 52.0, 47.0, 47.0]),
    imbalance_up=np.full(T, 200.0),
    imbalance_down=np.full(T, 200.0),
)

# a thermal-style load: losses absorb the nominal draw, so the tank state
# tracks the deviation from its 6 MW setpoint
load = TankLoad(
    name="heat-tank",
    power_min=np.zeros(T),
    power_max=np.full(T, 12.0),
    energy_min=np.zeros(T + 1),
    energy_max=np.full(T + 1, 12.0),
    efficiency=1.0,
    loss=np.full(T, 6.0),
    total_min=48.0,
    total_max=48.0,
    energy_start=6.0,
)
portfolio = RetailerPortfolio(
    name="retail", inelastic=np.full(T, 40.0), loads=[load], imbalance_limit=10.0
)

# one band covering the whole horizon, so the coverage check below can
# probe the full high/low envelope in one go
model = build_retailer_model(
    portfolio, forecast, price_cap=3000.0, non_contracted_price=500.0,
    windows=[(0, 8)], modulation_price=10.0,
)
position = optimize_retailer(model)
print("baseline schedule:", position.scenarios[0, 0].round(2))
print("band amplitudes:  ", position.amplitudes.round(2))
print("high scenario:    ", position.scenarios[1, 0].round(2))
print("low scenario:     ", position.scenarios[2, 0].round(2))

report = verify_scenario_coverage(
    load, *position.scenarios[:, 0],
    samples=2000, seed=0,
)
print(f"coverage check: {report.samples} random dispatches, {report.failures} failures")
