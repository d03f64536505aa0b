"""Command-line front end: single runs, rate sweeps, coverage checks, replays.

This module owns the output tree and its format; the market modules only
compute.  Every run writes a ``manifest.txt`` that fully determines it:
``replay`` is ``run`` on a manifest's config, and reproduces the original
outputs byte for byte.  The CSV files (``metrics.csv``, ``summary.csv``,
``rounds/<n>/*.csv`` with the columns of ``ROUND_COLUMNS``, and
``sweep.csv`` for a sweep) are the canonical results, the SVG figures a
convenience.  Floats are written with ``repr``, so they read back exactly,
and a negative zero as ``0.0`` (:func:`_number`), so no output depends on
the sign of a zero a solver returns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from .agents import random_feasible_modulation, verify_scenario_coverage
from .agents.retailer import ConfigurationError
from .charts import line_chart
from .scenario import SETTINGS, ScenarioConfig, config_from_text, config_to_text
from .simulator import RoundMetrics, RoundRecord, SimulationOutcome, run as run_simulation

#: each ``RoundMetrics`` field, in field order: its CSV column and the label
#: of its sweep figure (None: no figure)
METRICS = {
    "mean_price": ("mean_price", None),
    "price_variability": ("price_variability", "price variability (EUR/MWh)"),
    "total_imbalance": ("total_imbalance_mwh", "total imbalance (MWh)"),
    "procurement_cost": ("procurement_cost_eur", "reserve procurement cost (EUR)"),
    "non_contracted": ("non_contracted_mwh", "non-contracted reserve (MWh)"),
}

METRIC_COLUMNS = [column for column, _ in METRICS.values()]

SUMMARY_COLUMNS = ["termination", "rounds", "cycle_start", "cycle_length", *METRIC_COLUMNS]

SWEEP_COLUMNS = ["rate", "setting", "status", "rounds", "termination", *METRIC_COLUMNS]

#: the files of ``rounds/<n>/`` and their columns
ROUND_COLUMNS = {
    "prices.csv": ["period", "mcp", "tariff_up", "tariff_down"],
    "offers.csv": ["actor", "period", "side", "volume_mw", "price_eur_mwh"],
    "clearing.csv": ["period", "mcp", "offer_id", "fraction"],
    "procurement.csv": ["kind", "bid_id", "actor", "fraction", "contracted_mw"],
    "settlement.csv": [
        "period", "imbalance", "activated_up", "activated_down",
        "y_up", "y_down", "tariff_up", "tariff_down",
    ],
    "positions.csv": [
        "actor", "kind", "period", "cleared_volume", "imbalance_up", "imbalance_down", "fee",
    ],
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.read_config is not None:
        # a bad scenario file, flag or sweep cell is a usage error, reported
        # before any run; the entry runs what was validated here
        try:
            args.validated = args.read_config(args)
        except (ConfigurationError, OSError) as exc:
            parser.error(str(exc))
    return args.entry(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexmarket",
        description="agent-based day-ahead energy and reserve market simulator",
    )
    sub = parser.add_subparsers(required=True)

    run_cmd = sub.add_parser("run", help="simulate one scenario")
    _common_flags(run_cmd)
    run_cmd.add_argument("--rate", type=float, help="flexibility rate")
    run_cmd.add_argument("--setting", choices=SETTINGS)
    _round_details_flag(run_cmd)
    run_cmd.set_defaults(entry=cmd_run, read_config=load_config)

    # without abbreviations, so that ``--rate`` is refused, not read as ``--rates``
    sweep_cmd = sub.add_parser(
        "sweep", help="both settings over a list of flexibility rates", allow_abbrev=False
    )
    _common_flags(sweep_cmd)
    sweep_cmd.add_argument(
        "--rates",
        type=_rate_list,
        default="0,0.02,0.04,0.06,0.08,0.10",
        help="comma-separated flexibility rates",
    )
    sweep_cmd.set_defaults(entry=cmd_sweep, read_config=sweep_config)

    verify_cmd = sub.add_parser(
        "verify", help="probe modulation scenario coverage on random loads"
    )
    verify_cmd.add_argument("--seed", type=_int_from(0), default=0)
    verify_cmd.add_argument("--loads", type=_int_from(1), default=20)
    verify_cmd.add_argument("--samples", type=_int_from(1), default=1000)
    verify_cmd.set_defaults(entry=cmd_verify, read_config=None)

    replay_cmd = sub.add_parser("replay", help="rerun a simulation from its manifest")
    replay_cmd.add_argument("manifest", type=Path)
    replay_cmd.add_argument("--out-dir", type=Path, required=True)
    _round_details_flag(replay_cmd)
    replay_cmd.set_defaults(entry=cmd_run, read_config=manifest_config)
    return parser


def _common_flags(cmd) -> None:
    cmd.add_argument("--config", type=Path, help="flat key=value scenario file")
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("--max-rounds", type=int)
    cmd.add_argument("--out-dir", type=Path, required=True)


def _rate_list(text: str) -> list[float]:
    """Comma-separated finite numbers, at least one; blank items are skipped."""
    try:
        rates = [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        rates = []
    if not rates or not all(math.isfinite(rate) for rate in rates):
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")
    return rates


def _int_from(minimum: int):
    """An argparse type for integers of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _round_details_flag(cmd) -> None:
    cmd.add_argument(
        "--round-details",
        choices=["all", "terminal", "none"],
        default="all",
        help="which rounds get per-round CSV detail",
    )


def load_config(args) -> ScenarioConfig:
    """The ``--config`` file, or the defaults, with the flags that were given."""
    config = ScenarioConfig()
    if args.config:
        config = _config_file(args.config)
    flags = {
        "seed": args.seed,
        # ``sweep`` has no --rate or --setting: its cells set both
        "flexibility_rate": getattr(args, "rate", None),
        "setting": getattr(args, "setting", None),
        "max_rounds": args.max_rounds,
    }
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def sweep_config(args) -> list[ScenarioConfig]:
    """The config of every (rate, setting) cell, in sweep order, once each
    is valid and no two rates share a cell directory."""
    base = load_config(args)
    cells, stems = [], {}
    for rate in args.rates:
        stem = _sweep_cell(rate)
        if stem in stems:
            raise ConfigurationError(f"rates {stems[stem]!r} and {rate!r} would both write {stem}_*")
        stems[stem] = rate
        for setting in SETTINGS:
            cells.append(dataclasses.replace(base, flexibility_rate=rate, setting=setting))
    return cells


def _sweep_cell(rate: float) -> str:
    """The stem of the output directories of a sweep's cells at ``rate``."""
    return f"rate_{round(rate * 100):03d}"


def manifest_config(args) -> ScenarioConfig:
    return _config_file(args.manifest)


def _config_file(path: Path) -> ScenarioConfig:
    """The config written in the file at ``path``, which must be UTF-8."""
    try:
        return config_from_text(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 ({exc})") from None


def cmd_run(args) -> int:
    config = args.validated
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
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    # the sweep owns its cells: an earlier sweep's cells must not outlive it
    for setting in SETTINGS:
        for cell in out_dir.glob(f"rate_[0-9][0-9][0-9]_{setting}"):
            shutil.rmtree(cell)
    rows, ok = [], {setting: [] for setting in SETTINGS}
    for config in args.validated:
        rate, setting = config.flexibility_rate, config.setting
        try:
            outcome = run_simulation(config)
            write_outputs(outcome, out_dir / f"{_sweep_cell(rate)}_{setting}", "terminal")
            metrics = outcome.cycle_metrics
            rows.append(
                [repr(rate), setting, "ok", len(outcome.rounds), outcome.termination]
                + _metric_cells(metrics)
            )
            ok[setting].append((rate, metrics))
            print(f"rate {rate:g} {setting}: ok ({outcome.termination})")
        except Exception as exc:  # keep sweeping, report the cell
            row = [repr(rate), setting, f"error: {exc}"]
            rows.append(row + [""] * (len(SWEEP_COLUMNS) - len(row)))
            print(f"rate {rate:g} {setting}: FAILED ({exc})", file=sys.stderr)
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    _sweep_figures(ok, out_dir)
    return 0


def _sweep_figures(ok, out_dir) -> None:
    """One figure per labelled metric over the (rate, cycle metrics) of
    each setting's ok cells."""
    figures = out_dir / "figures"
    figures.mkdir(exist_ok=True)
    for name, (_, label) in METRICS.items():
        if label is None:
            continue
        series = {
            setting: ([rate for rate, _ in cells], [getattr(m, name) for _, m in cells])
            for setting, cells in ok.items()
            if cells
        }
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


# ---------------------------------------------------------------------------
# output tree
# ---------------------------------------------------------------------------


def write_outputs(outcome: SimulationOutcome, out_dir: Path, round_details: str) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outcome, out_dir / "manifest.txt")
    _write_csv(
        out_dir / "metrics.csv",
        ["round", *METRIC_COLUMNS],
        ([record.index, *_metric_cells(record.metrics)] for record in outcome.rounds),
    )
    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_COLUMNS,
        [
            [
                outcome.termination,
                len(outcome.rounds),
                outcome.cycle_start if outcome.cycle_start is not None else "",
                outcome.cycle_length if outcome.cycle_length is not None else "",
                *_metric_cells(outcome.cycle_metrics),
            ]
        ],
    )
    # the tree owns ``rounds/``: an earlier run's rounds must not outlive it
    rounds_dir = out_dir / "rounds"
    if rounds_dir.exists():
        shutil.rmtree(rounds_dir)
    if round_details != "none":
        records = (
            outcome.rounds if round_details == "all" else outcome.terminal_rounds()
        )
        for record in records:
            _write_round(record, rounds_dir / str(record.index))
    _run_figures(outcome, out_dir / "figures")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _number(value) -> str:
    """The CSV cell of a float: its ``repr``, with ``-0.0`` written as
    ``0.0`` (adding 0.0 turns only a negative zero into a positive one)."""
    return repr(float(value) + 0.0)


def _metric_cells(metrics: RoundMetrics) -> list[str]:
    return [_number(getattr(metrics, name)) for name in METRICS]


def _period_rows(*series) -> list[list]:
    """One row per period: the period, then each series' value in it."""
    columns = [[_number(value) for value in values] for values in series]
    return [[t, *cells] for t, cells in enumerate(zip(*columns))]


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


def _write_round(record: RoundRecord, round_dir: Path) -> None:
    round_dir.mkdir(parents=True, exist_ok=True)
    actors = [
        (name, "retailer", position, position.demand)
        for name, position in sorted(record.retailer_positions.items())
    ] + [
        (name, "producer", position, position.sale)
        for name, position in sorted(record.producer_positions.items())
    ]
    positions = []
    for name, kind, position, volume in actors:
        fee = _number(record.fees[name])
        for t, *cells in _period_rows(volume, position.imbalance_up, position.imbalance_down):
            positions.append([name, kind, t, *cells, fee if t == 0 else ""])
    clearing, procurement, settlement = record.clearing, record.procurement, record.settlement
    offers, classical, bands = record.offers, procurement.classical, procurement.modulation
    accepted = [
        ("classical", classical.actor, procurement.classical_fraction, classical.volume),
        ("modulation", bands.actor, procurement.modulation_fraction, bands.amplitude),
    ]
    rows = {
        "prices.csv": _period_rows(clearing.price, settlement.tariff_up, settlement.tariff_down),
        "offers.csv": [
            [actor, t, side, _number(volume), _number(price)]
            for actor, t, side, volume, price in offers.rows()
        ],
        "clearing.csv": [
            [t, _number(mcp), k, _number(fraction)]
            for k, (t, mcp, fraction) in enumerate(
                zip(
                    offers.period.tolist(),
                    clearing.price[offers.period.astype(np.intp)].tolist(),
                    clearing.fractions.tolist(),
                )
            )
        ],
        "procurement.csv": [
            [kind, k, actor, _number(x), _number(volume * x)]
            for kind, actors, fractions, volumes in accepted
            for k, (actor, x, volume) in enumerate(
                zip(actors.tolist(), fractions.tolist(), volumes.tolist())
            )
        ],
        "settlement.csv": _period_rows(
            settlement.imbalance,
            settlement.activated_up,
            settlement.activated_down,
            settlement.non_contracted_up,
            settlement.non_contracted_down,
            settlement.tariff_up,
            settlement.tariff_down,
        ),
        "positions.csv": positions,
    }
    for name, columns in ROUND_COLUMNS.items():
        _write_csv(round_dir / name, columns, rows[name])


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
    price, settlement = terminal.clearing.price, terminal.settlement
    periods = list(range(len(price)))
    line_chart(
        figures / "terminal_prices.svg",
        f"prices in round {terminal.index}",
        "period",
        "EUR/MWh",
        {
            "MCP": (periods, list(price)),
            "tariff up": (periods, list(settlement.tariff_up)),
            "tariff down": (periods, list(settlement.tariff_down)),
        },
    )


if __name__ == "__main__":
    raise SystemExit(main())
