"""Command-line front end: single runs, rate sweeps, coverage checks, replays.

Every run writes a ``manifest.txt`` that fully determines it: replaying a
manifest reproduces the original outputs byte for byte.  CSV files are the
canonical results, the SVG figures a convenience.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import energy_market, imbalance, reserve_market
from .agents import random_feasible_modulation, verify_scenario_coverage
from .charts import line_chart
from .scenario import ScenarioConfig, config_from_text, config_to_text
from .simulator import SimulationOutcome, run as run_simulation

METRIC_COLUMNS = [
    "round",
    "mean_price",
    "price_variability",
    "total_imbalance_mwh",
    "procurement_cost_eur",
    "non_contracted_mwh",
]

SWEEP_COLUMNS = [
    "rate",
    "setting",
    "status",
    "rounds",
    "termination",
    "mean_price",
    "price_variability",
    "total_imbalance_mwh",
    "procurement_cost_eur",
    "non_contracted_mwh",
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.entry(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexmarket",
        description="agent-based day-ahead energy and reserve market simulator",
    )
    sub = parser.add_subparsers(required=True)

    run_cmd = sub.add_parser("run", help="simulate one scenario")
    _common_flags(run_cmd)
    run_cmd.add_argument(
        "--round-details",
        choices=["all", "terminal", "none"],
        default="all",
        help="which rounds get per-round CSV detail",
    )
    run_cmd.set_defaults(entry=cmd_run)

    sweep_cmd = sub.add_parser("sweep", help="both settings over a list of flexibility rates")
    _common_flags(sweep_cmd)
    sweep_cmd.add_argument(
        "--rates",
        default="0,0.02,0.04,0.06,0.08,0.10",
        help="comma-separated flexibility rates",
    )
    sweep_cmd.set_defaults(entry=cmd_sweep)

    verify_cmd = sub.add_parser(
        "verify", help="probe modulation scenario coverage on random loads"
    )
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument("--loads", type=int, default=20)
    verify_cmd.add_argument("--samples", type=int, default=1000)
    verify_cmd.set_defaults(entry=cmd_verify)

    replay_cmd = sub.add_parser("replay", help="rerun a simulation from its manifest")
    replay_cmd.add_argument("manifest", type=Path)
    replay_cmd.add_argument("--out-dir", type=Path, required=True)
    replay_cmd.add_argument(
        "--round-details", choices=["all", "terminal", "none"], default="all"
    )
    replay_cmd.set_defaults(entry=cmd_replay)
    return parser


def _common_flags(cmd) -> None:
    cmd.add_argument("--config", type=Path, help="flat key=value scenario file")
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("--rate", type=float, help="flexibility rate")
    cmd.add_argument("--setting", choices=["closed", "open"])
    cmd.add_argument("--max-rounds", type=int)
    cmd.add_argument("--out-dir", type=Path, required=True)


def load_config(args) -> ScenarioConfig:
    if args.config is not None:
        config = config_from_text(args.config.read_text())
    else:
        config = ScenarioConfig()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "rate", None) is not None:
        config.flexibility_rate = args.rate
    if getattr(args, "setting", None) is not None:
        config.setting = args.setting
    if getattr(args, "max_rounds", None) is not None:
        config.max_rounds = args.max_rounds
    config.validate()
    return config


def cmd_run(args) -> int:
    config = load_config(args)
    outcome = run_simulation(config)
    write_outputs(outcome, args.out_dir, args.round_details)
    summary = outcome.cycle_metrics
    print(
        f"{config.setting} rate={config.flexibility_rate:g}: {outcome.termination} "
        f"after {len(outcome.rounds)} rounds"
        + (
            f" (cycle {outcome.cycle_start}+{outcome.cycle_length})"
            if outcome.termination == "cycle"
            else ""
        )
    )
    print(
        f"  mean price {summary.mean_price:.2f} EUR/MWh, procurement "
        f"{summary.procurement_cost:.0f} EUR, non-contracted {summary.non_contracted:.2f} MWh"
    )
    return 0


def cmd_sweep(args) -> int:
    base = load_config(args)
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for rate in rates:
        for setting in ("closed", "open"):
            config = dataclasses.replace(base, flexibility_rate=rate, setting=setting)
            cell_dir = out_dir / f"rate_{round(rate * 100):03d}_{setting}"
            try:
                outcome = run_simulation(config)
                write_outputs(outcome, cell_dir, "terminal")
                m = outcome.cycle_metrics
                rows.append(
                    [
                        repr(rate),
                        setting,
                        "ok",
                        len(outcome.rounds),
                        outcome.termination,
                        repr(m.mean_price),
                        repr(m.price_variability),
                        repr(m.total_imbalance),
                        repr(m.procurement_cost),
                        repr(m.non_contracted),
                    ]
                )
                print(f"rate {rate:g} {setting}: ok ({outcome.termination})")
            except Exception as exc:  # keep sweeping, report the cell
                rows.append([repr(rate), setting, f"error: {exc}", "", "", "", "", "", "", ""])
                print(f"rate {rate:g} {setting}: FAILED ({exc})", file=sys.stderr)
    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    _sweep_figures(rows, out_dir)
    return 0


def _sweep_figures(rows, out_dir) -> None:
    figures = out_dir / "figures"
    figures.mkdir(exist_ok=True)
    panels = [
        ("price_variability", "price variability (EUR/MWh)", 6),
        ("total_imbalance", "total imbalance (MWh)", 7),
        ("procurement_cost", "reserve procurement cost (EUR)", 8),
        ("non_contracted", "non-contracted reserve (MWh)", 9),
    ]
    for name, label, column in panels:
        series = {}
        for setting in ("closed", "open"):
            xs, ys = [], []
            for row in rows:
                if row[1] == setting and row[2] == "ok":
                    xs.append(float(row[0]))
                    ys.append(float(row[column]))
            if xs:
                series[setting] = (xs, ys)
        line_chart(
            figures / f"{name}.svg",
            f"{label} vs flexibility rate",
            "flexibility rate",
            label,
            series,
        )


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    for k in range(args.loads):
        load, base, up, down = random_feasible_modulation(rng)
        report = verify_scenario_coverage(
            load, base, up, down, samples=args.samples, seed=args.seed + k
        )
        status = "ok" if report.passed else f"FAILED ({report.failures} bad samples)"
        print(f"load {k + 1:02d} ({load.horizon} periods): {status}")
        failures += report.failures
    print(f"total failures: {failures} over {args.loads} loads x {args.samples} samples")
    return 0 if failures == 0 else 1


def cmd_replay(args) -> int:
    config = config_from_text(args.manifest.read_text())
    outcome = run_simulation(config)
    write_outputs(outcome, args.out_dir, args.round_details)
    print(f"replayed into {args.out_dir}: {outcome.termination} after {len(outcome.rounds)} rounds")
    return 0


# ---------------------------------------------------------------------------
# output tree
# ---------------------------------------------------------------------------


def write_outputs(outcome: SimulationOutcome, out_dir: Path, round_details: str) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outcome, out_dir / "manifest.txt")
    _write_metrics(outcome, out_dir / "metrics.csv")
    _write_summary(outcome, out_dir / "summary.csv")
    if round_details != "none":
        records = (
            outcome.rounds if round_details == "all" else outcome.terminal_rounds()
        )
        for record in records:
            _write_round(outcome, record, out_dir / "rounds" / str(record.index))
    _run_figures(outcome, out_dir / "figures")


def _write_manifest(outcome: SimulationOutcome, path: Path) -> None:
    lines = [
        "# flexmarket run manifest: the key=value block reproduces this run",
        config_to_text(outcome.config).rstrip("\n"),
        f"# termination = {outcome.termination}",
        f"# rounds = {len(outcome.rounds)}",
    ]
    if outcome.termination == "cycle":
        lines.append(f"# cycle_start = {outcome.cycle_start}")
        lines.append(f"# cycle_length = {outcome.cycle_length}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_metrics(outcome: SimulationOutcome, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRIC_COLUMNS)
        for record in outcome.rounds:
            m = record.metrics
            writer.writerow(
                [
                    record.index,
                    repr(m.mean_price),
                    repr(m.price_variability),
                    repr(m.total_imbalance),
                    repr(m.procurement_cost),
                    repr(m.non_contracted),
                ]
            )


def _write_summary(outcome: SimulationOutcome, path: Path) -> None:
    m = outcome.cycle_metrics
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["termination", "rounds", "cycle_start", "cycle_length"] + METRIC_COLUMNS[1:]
        )
        writer.writerow(
            [
                outcome.termination,
                len(outcome.rounds),
                outcome.cycle_start if outcome.cycle_start is not None else "",
                outcome.cycle_length if outcome.cycle_length is not None else "",
                repr(m.mean_price),
                repr(m.price_variability),
                repr(m.total_imbalance),
                repr(m.procurement_cost),
                repr(m.non_contracted),
            ]
        )


def _write_round(outcome: SimulationOutcome, record, round_dir: Path) -> None:
    round_dir.mkdir(parents=True, exist_ok=True)
    with open(round_dir / "prices.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["period", "mcp", "tariff_up", "tariff_down"])
        for t in range(len(record.energy_price)):
            writer.writerow(
                [
                    t,
                    repr(float(record.energy_price[t])),
                    repr(float(record.tariff_up[t])),
                    repr(float(record.tariff_down[t])),
                ]
            )
    energy_market.write_offers_csv(record.offers, round_dir / "offers.csv")
    energy_market.write_result_csv(record.clearing, record.offers, round_dir / "clearing.csv")
    reserve_market.write_procurement_csv(record.procurement, round_dir / "procurement.csv")
    imbalance.write_settlement_csv(
        record.settlement, record.tariff_up, record.tariff_down, round_dir / "settlement.csv"
    )
    with open(round_dir / "positions.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["actor", "kind", "period", "cleared_volume", "imbalance_up", "imbalance_down", "fee"]
        )
        for name in sorted(record.retailer_positions):
            position = record.retailer_positions[name]
            for t in range(len(position.demand)):
                writer.writerow(
                    [
                        name,
                        "retailer",
                        t,
                        repr(float(position.demand[t])),
                        repr(float(position.imbalance_up[t])),
                        repr(float(position.imbalance_down[t])),
                        repr(record.fees[name]) if t == 0 else "",
                    ]
                )
        for name in sorted(record.producer_positions):
            position = record.producer_positions[name]
            for t in range(len(position.sale)):
                writer.writerow(
                    [
                        name,
                        "producer",
                        t,
                        repr(float(position.sale[t])),
                        repr(float(position.imbalance_up[t])),
                        repr(float(position.imbalance_down[t])),
                        repr(record.fees[name]) if t == 0 else "",
                    ]
                )


def _run_figures(outcome: SimulationOutcome, figures: Path) -> None:
    figures.mkdir(parents=True, exist_ok=True)
    rounds = [r.index for r in outcome.rounds]
    line_chart(
        figures / "mean_price_by_round.svg",
        "mean energy price by round",
        "round",
        "EUR/MWh",
        {"mean MCP": (rounds, [r.metrics.mean_price for r in outcome.rounds])},
    )
    terminal = outcome.terminal_rounds()[0]
    periods = list(range(len(terminal.energy_price)))
    line_chart(
        figures / "terminal_prices.svg",
        f"prices in round {terminal.index}",
        "period",
        "EUR/MWh",
        {
            "MCP": (periods, list(terminal.energy_price)),
            "tariff up": (periods, list(terminal.tariff_up)),
            "tariff down": (periods, list(terminal.tariff_down)),
        },
    )


if __name__ == "__main__":
    raise SystemExit(main())
