"""flexmarket: agent-based day-ahead energy + reserve market simulation.

The package is organized around the three market stages of one simulated
day (energy auction, reserve procurement, imbalance settlement), the actor
decision models that feed them, and a simulation loop that iterates rounds
until the actors' joint positions recur.

Typical entry points:

* :func:`flexmarket.simulator.run` with a :class:`flexmarket.scenario.ScenarioConfig`
* the market primitives ``energy_market.clear``, ``reserve_market.clear_reserve``,
  ``imbalance.settle``
* the ``flexmarket`` command line (``run``, ``sweep``, ``verify``, ``replay``)
"""

from .lp import INF, LinearProgram, Solution, solve
from .energy_market import ClearingResult, OfferBook, clear
from .reserve_market import (
    ClassicalBook,
    ModulationBook,
    ReservePrices,
    ReserveProcurement,
    clear_reserve,
)
from .imbalance import SettlementResult, fees, settle
from .agents import (
    GenerationUnit,
    ProducerPortfolio,
    RetailerPortfolio,
    TankLoad,
    build_producer_model,
    build_retailer_model,
    optimize_producer,
    optimize_retailer,
    verify_scenario_coverage,
)
from .scenario import Scenario, ScenarioConfig, generate_scenario
from .simulator import RoundRecord, SimulationOutcome, run

__all__ = [
    "INF",
    "LinearProgram",
    "Solution",
    "solve",
    "OfferBook",
    "ClearingResult",
    "clear",
    "ClassicalBook",
    "ModulationBook",
    "ReservePrices",
    "ReserveProcurement",
    "clear_reserve",
    "SettlementResult",
    "fees",
    "settle",
    "GenerationUnit",
    "ProducerPortfolio",
    "RetailerPortfolio",
    "TankLoad",
    "build_producer_model",
    "build_retailer_model",
    "optimize_producer",
    "optimize_retailer",
    "verify_scenario_coverage",
    "Scenario",
    "ScenarioConfig",
    "generate_scenario",
    "RoundRecord",
    "SimulationOutcome",
    "run",
]
