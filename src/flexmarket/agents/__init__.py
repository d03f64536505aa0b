from .tank import CoverageReport, TankLoad, random_feasible_modulation, verify_scenario_coverage
from .forecast import PriceForecast, ThresholdTrack, exponential_mean, make_forecast
from .retailer import RetailerPortfolio, RetailerPosition, build_retailer_model, optimize_retailer
from .producer import (
    GenerationUnit,
    ProducerPortfolio,
    ProducerPosition,
    build_producer_model,
    optimize_producer,
    producer_energy_offers,
    producer_reserve_bids,
)

__all__ = [
    "CoverageReport",
    "TankLoad",
    "random_feasible_modulation",
    "verify_scenario_coverage",
    "PriceForecast",
    "ThresholdTrack",
    "exponential_mean",
    "make_forecast",
    "RetailerPortfolio",
    "RetailerPosition",
    "build_retailer_model",
    "optimize_retailer",
    "GenerationUnit",
    "ProducerPortfolio",
    "ProducerPosition",
    "build_producer_model",
    "optimize_producer",
    "producer_energy_offers",
    "producer_reserve_bids",
]
