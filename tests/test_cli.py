import csv
import dataclasses
import filecmp
import hashlib

import numpy as np
import pytest

from flexmarket.cli import METRICS, main, write_outputs
from flexmarket.energy_market import DEMAND, SUPPLY, OfferBook, clear
from flexmarket.imbalance import settle
from flexmarket.reserve_market import ClassicalBook, ModulationBook, ReservePrices, clear_reserve
from flexmarket.scenario import (
    SETTINGS,
    ScenarioConfig,
    config_from_text,
    config_to_text,
    generate_scenario,
)
from flexmarket.simulator import RoundMetrics, RoundRecord, SimulationOutcome, _round_metrics, run
from flexmarket.agents.retailer import ConfigurationError

PRICES = ReservePrices(45.0, 45.0, 10.0, 500.0)
PI_NC = 500.0
CAP = 3000.0


def fast_config_file(tmp_path, **overrides):
    config = ScenarioConfig(periods=8, max_rounds=30, forecast_window=8, **overrides)
    path = tmp_path / "scenario.cfg"
    path.write_text(config_to_text(config))
    return path


def read_metrics(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_config_text_round_trip():
    config = ScenarioConfig(seed=7, flexibility_rate=0.04, setting="open", max_rounds=123)
    parsed = config_from_text(config_to_text(config))
    assert parsed == config


def moved_default(f):
    """A valid value of config field ``f``, of its declared type, that is
    not its default."""
    if f.type == "float":
        return float(np.nextafter(f.default, np.inf))
    if f.type == "int":
        return f.default + 2  # a bid block stays even
    return next(setting for setting in SETTINGS if setting != f.default)


@pytest.mark.parametrize("f", dataclasses.fields(ScenarioConfig), ids=lambda f: f.name)
def test_every_config_field_round_trips_through_the_config_text(f):
    config = ScenarioConfig(**{f.name: moved_default(f)})
    assert getattr(config, f.name) != f.default
    text = config_to_text(config)
    assert config_from_text(text) == config
    assert config_to_text(config_from_text(text)) == text


@pytest.mark.parametrize(
    "line", ['seed = "3"', "max_rounds = '40'", 'mean_consumption = "1000.0"', "period_hours = '1'"]
)
def test_a_quoted_number_is_not_read_as_a_number(line):
    # only a string field is written quoted
    with pytest.raises(ConfigurationError, match=f"bad (int|float) for {line.split()[0]}"):
        config_from_text(line + "\n")


@pytest.mark.parametrize(
    "line", ['setting = "open', "setting = open'\"", "setting = 'open\"", "setting = o'pen"]
)
def test_a_string_value_takes_one_matched_pair_of_quotes_or_none(line):
    with pytest.raises(ConfigurationError, match="bad str for setting"):
        config_from_text(line + "\n")


@pytest.mark.parametrize("value", ["open", "'open'", '"open"'])
def test_a_string_value_is_read_bare_or_quoted(value):
    assert config_from_text(f"setting = {value}\n").setting == "open"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigurationError):
        config_from_text("bogus_key = 3\n")
    with pytest.raises(ConfigurationError):
        config_from_text("flexibility_rate = 1.5\n")
    with pytest.raises(ConfigurationError):
        config_from_text("setting = sideways\n")
    with pytest.raises(ConfigurationError, match="seed"):
        config_from_text("seed = abc\n")


@pytest.mark.parametrize(
    "line",
    ["convergence_tolerance = -0.01", "state_tolerance = -1.0", "threshold_forget_rounds = -3"],
)
def test_config_text_rejects_negative_tolerances_and_forget_rounds(line):
    # a negative tolerance never matches, so a run would spin to max_rounds
    with pytest.raises(ConfigurationError, match=f"{line.split()[0]} must be nonnegative"):
        config_from_text(line + "\n")


@pytest.mark.parametrize(
    "overrides",
    [
        dict(max_rounds=0),
        dict(loads_per_retailer=0, flexibility_rate=0.06),
        dict(price_cap=float("nan")),
        dict(slow_units_per_producer=-1),
        dict(slow_units_per_producer=0, fast_units_per_producer=0),
        dict(imbalance_limit_fraction=-0.1),
        dict(tank_span_hours=-1.0),
        dict(forecast_window=0),
        dict(forecast_alpha=-1.0),
        dict(slow_ramp_fraction=-0.5),
        dict(slow_cost_low=70.0, slow_cost_high=50.0),
        dict(fast_cost_low=90.0),
        dict(setting="open", periods=2),
        dict(slow_cost_low=-10.0),
        dict(fast_cost_low=-1.0, fast_cost_high=-0.5),
        dict(price_cap=10.0),
        dict(fast_cost_high=3500.0),
        dict(slow_capacity_factor=-0.1),
        dict(fast_capacity_factor=-1.0),
        dict(energy_seed_price=3500.0),
        dict(tariff_seed_price=-1.0),
        dict(seed=-1),
        dict(threshold_factor=-1.0),
        dict(threshold_factor=0.0),
        dict(threshold_factor=5.0),
    ],
    ids=[
        "no-rounds", "flexibility-without-loads", "non-finite-price", "negative-unit-count",
        "no-units", "negative-imbalance-limit", "negative-tank-span", "no-forecast-window",
        "negative-forecast-alpha", "negative-ramp", "slow-costs-reversed",
        "fast-costs-reversed", "open-without-band-window", "negative-slow-cost",
        "negative-fast-costs", "costs-above-low-price-cap", "fast-cost-above-price-cap",
        "negative-slow-capacity", "negative-fast-capacity", "energy-seed-above-price-cap",
        "negative-tariff-seed", "negative-seed", "negative-threshold-factor",
        "zero-threshold-factor", "threshold-factor-above-1",
    ],
)
def test_config_rejects_settings_that_fail_later(overrides):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(**overrides)


@pytest.mark.parametrize(
    "field, value",
    [
        ("periods", 24.0),
        ("max_rounds", 2.5),
        ("producer_count", 2.0),
        ("seed", True),
        ("flexibility_rate", True),
        ("setting", None),
    ],
)
def test_config_rejects_values_of_the_wrong_type(field, value):
    # before, a float count failed deep in generation or in the round loop
    # with numpy's or Python's own TypeError, and seed=True ran as seed 1
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        ScenarioConfig(**{field: value})


def test_config_allows_no_loads_without_flexibility():
    ScenarioConfig(loads_per_retailer=0, flexibility_rate=0.0)


def test_config_allows_a_threshold_factor_of_one():
    # a pin at all of the volume it watches is the upper end of (0, 1]
    ScenarioConfig(threshold_factor=1.0)


def test_configs_and_reserve_prices_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ScenarioConfig().max_rounds = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        PRICES.up_capacity = -1.0


def test_a_replaced_config_is_checked_like_a_new_one():
    # sweep cells and flag overrides are made this way
    with pytest.raises(ConfigurationError, match="max_rounds must be at least 1"):
        dataclasses.replace(ScenarioConfig(), max_rounds=0)


def test_a_config_with_ints_in_float_fields_replays_byte_for_byte(tmp_path):
    # before, its manifest said ``mean_consumption = 1000`` and the replay's
    # ``mean_consumption = 1000.0``
    config = ScenarioConfig(
        mean_consumption=1000, price_cap=3000, periods=8, forecast_window=8, max_rounds=3
    )
    text = config_to_text(config)
    assert "mean_consumption = 1000.0\n" in text
    assert "price_cap = 3000.0\n" in text
    assert config_to_text(config_from_text(text)) == text
    first, again = tmp_path / "first", tmp_path / "again"
    write_outputs(run(config), first, "all")
    main(["replay", str(first / "manifest.txt"), "--out-dir", str(again)])
    assert tree_contents(again) == tree_contents(first)


def test_generate_scenario_same_seed_identical():
    a = generate_scenario(ScenarioConfig(seed=11))
    b = generate_scenario(ScenarioConfig(seed=11))
    assert all(
        np.array_equal(ua.cost, ub.cost)
        for pa, pb in zip(a.producers, b.producers)
        for ua, ub in zip(pa.units, pb.units)
    )
    c = generate_scenario(ScenarioConfig(seed=12))
    assert any(
        not np.array_equal(ua.cost, uc.cost)
        for pa, pc in zip(a.producers, c.producers)
        for ua, uc in zip(pa.units, pc.units)
    )


def write_one_round(out_dir, offers, periods, classical, reserve_up, imbalance_mw):
    """Clear, procure and settle one day, then write it as a one-round run;
    ``offers`` and ``classical`` are the rows of an offer and a classical bid book."""
    offers = OfferBook.from_rows(offers)
    clearing = clear(offers, periods)
    procurement = clear_reserve(
        ClassicalBook.from_rows(classical), ModulationBook.from_rows([]),
        np.asarray(reserve_up, float), np.zeros(periods), PRICES,
    )
    settlement = settle(np.asarray(imbalance_mw, float), procurement, PI_NC)
    record = RoundRecord(
        index=0,
        submitted_demand={},
        retailer_positions={},
        producer_positions={},
        offers=offers,
        clearing=clearing,
        procurement=procurement,
        settlement=settlement,
        fees={},
        metrics=_round_metrics(clearing.price, procurement, settlement, 1.0),
    )
    outcome = SimulationOutcome("converged", None, None, [record], ScenarioConfig())
    write_outputs(outcome, out_dir, "all")
    return out_dir / "rounds" / "0"


def test_run_emits_reloadable_metrics(tmp_path):
    from flexmarket.simulator import run as run_simulation

    config_path = fast_config_file(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 0
    rows = read_metrics(out / "metrics.csv")
    assert rows, "metrics.csv must not be empty"

    # the file reproduces the in-memory metrics exactly (repr round-trips)
    outcome = run_simulation(config_from_text(config_path.read_text()))
    assert len(rows) == len(outcome.rounds)
    for row, record in zip(rows, outcome.rounds):
        assert float(row["mean_price"]) == record.metrics.mean_price
        assert float(row["price_variability"]) == record.metrics.price_variability
        assert float(row["total_imbalance_mwh"]) == record.metrics.total_imbalance
        assert float(row["procurement_cost_eur"]) == record.metrics.procurement_cost
        assert float(row["non_contracted_mwh"]) == record.metrics.non_contracted
    assert (out / "manifest.txt").exists()
    assert (out / "figures" / "mean_price_by_round.svg").exists()
    assert (out / "rounds" / "0" / "settlement.csv").exists()


def test_replay_reproduces_byte_identical_outputs(tmp_path, capsys):
    config_path = fast_config_file(tmp_path)
    first = tmp_path / "first"
    again = tmp_path / "again"
    main(["run", "--config", str(config_path), "--out-dir", str(first)])
    printed = capsys.readouterr().out
    main(["replay", str(first / "manifest.txt"), "--out-dir", str(again)])
    assert (first / "metrics.csv").read_bytes() == (again / "metrics.csv").read_bytes()
    comparison = filecmp.dircmp(first, again)
    assert not comparison.diff_files
    # replay is run on the manifest's config, summary included
    assert capsys.readouterr().out == printed


def tree_contents(out_dir):
    """Every directory (as None) and file (as its bytes) under ``out_dir``."""
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes() if path.is_file() else None
        for path in out_dir.rglob("*")
    }


@pytest.mark.parametrize("details", ["all", "terminal", "none"])
def test_a_rerun_into_a_used_directory_writes_the_fresh_tree(tmp_path, details):
    # before, the earlier run's rounds/<n>/ outlived it, next to a manifest
    # that named fewer rounds
    config = ["run", "--config", str(fast_config_file(tmp_path))]
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    main(config + ["--max-rounds", "6", "--out-dir", str(used)])
    earlier = sorted(path.name for path in (used / "rounds").iterdir())
    rerun = config + ["--max-rounds", "2", "--round-details", details]
    main(rerun + ["--out-dir", str(used)])
    main(rerun + ["--out-dir", str(fresh)])
    assert len(earlier) > 2
    assert tree_contents(used) == tree_contents(fresh)


def test_flag_overrides_reach_the_manifest(tmp_path):
    out = tmp_path / "out"
    main(
        [
            "run",
            "--config",
            str(fast_config_file(tmp_path)),
            "--out-dir",
            str(out),
            "--seed",
            "5",
            "--rate",
            "0.02",
            "--setting",
            "open",
            "--max-rounds",
            "12",
        ]
    )
    config = config_from_text((out / "manifest.txt").read_text())
    assert config.seed == 5
    assert config.flexibility_rate == 0.02
    assert config.setting == "open"
    assert config.max_rounds == 12


def test_sweep_identical_settings_at_zero_rate(tmp_path):
    out = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep",
                "--config",
                str(fast_config_file(tmp_path)),
                "--out-dir",
                str(out),
                "--rates",
                "0",
            ]
        )
        == 0
    )
    with open(out / "sweep.csv", newline="") as handle:
        rows = {row["setting"]: row for row in csv.DictReader(handle)}
    assert rows["closed"]["status"] == "ok" and rows["open"]["status"] == "ok"
    for column in ("mean_price", "procurement_cost_eur", "total_imbalance_mwh"):
        assert rows["closed"][column] == rows["open"][column]
    for name in ("price_variability", "total_imbalance", "procurement_cost", "non_contracted"):
        assert (out / "figures" / f"{name}.svg").exists()


def test_sweep_survives_failing_cell(tmp_path, monkeypatch):
    from flexmarket import cli

    run_simulation = cli.run_simulation

    def failing_at_rate_2_percent(config):
        if config.flexibility_rate == 0.02:
            raise RuntimeError("solver gave up")
        return run_simulation(config)

    # a cell that fails at run time must fail without aborting the healthy
    # rate-0 cells
    monkeypatch.setattr(cli, "run_simulation", failing_at_rate_2_percent)
    out = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep",
                "--config",
                str(fast_config_file(tmp_path)),
                "--out-dir",
                str(out),
                "--rates",
                "0,0.02",
            ]
        )
        == 0
    )
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    by_rate = {(row["rate"], row["setting"]): row for row in rows}
    assert by_rate[("0.0", "closed")]["status"] == "ok"
    assert by_rate[("0.02", "closed")]["status"] == "error: solver gave up"
    assert by_rate[("0.02", "open")]["status"] == "error: solver gave up"


def test_a_sweep_into_a_used_directory_writes_the_fresh_tree(tmp_path):
    # before, the earlier sweep's rate_002_* cells outlived it, next to a
    # sweep.csv that listed only rate 0
    config = ["sweep", "--config", str(fast_config_file(tmp_path))]
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    main(config + ["--rates", "0,0.02", "--out-dir", str(used)])
    assert (used / "rate_002_closed").is_dir() and (used / "rate_002_open").is_dir()
    main(config + ["--rates", "0", "--out-dir", str(used)])
    main(config + ["--rates", "0", "--out-dir", str(fresh)])
    assert tree_contents(used) == tree_contents(fresh)


@pytest.mark.parametrize(
    "rates, overrides, message",
    [
        ("0.05,1.5", {}, "flexibility rate 1.5 must lie in [0, 1]"),
        # the base config is closed, and only its open cells are invalid
        ("0", {"bid_block_length": 10}, "an open run needs a bid block"),
        ("0.02,0.024", {}, "rates 0.02 and 0.024 would both write rate_002_*"),
    ],
    ids=["rate-above-1", "open-cell-block-too-long", "colliding-rates"],
)
def test_sweep_reports_a_bad_cell_config_as_a_usage_error(tmp_path, capsys, rates, overrides, message):
    # before, the valid cells ran and each bad cell became an error row
    config_path = fast_config_file(tmp_path, **overrides)
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--config", str(config_path), "--out-dir", str(out), "--rates", rates])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--rate", "0.5"), ("--setting", "open")])
def test_sweep_refuses_the_flags_its_cells_set(tmp_path, capsys, flag, value):
    # before, each was accepted and then overwritten in every cell
    out = tmp_path / "sweep"
    args = ["sweep", "--config", str(fast_config_file(tmp_path)), "--out-dir", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(args + ["--rates", "0", "--max-rounds", "1", flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_metric_table_names_every_round_metric_in_order():
    # a metric missing from the table would be missing from every CSV
    assert list(METRICS) == [field.name for field in dataclasses.fields(RoundMetrics)]


def test_verify_runs_clean():
    assert main(["verify", "--loads", "2", "--samples", "100", "--seed", "3"]) == 0


def test_package_runs_as_a_module():
    from test_package import run_python

    result = run_python("-m", "flexmarket", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def test_a_run_prints_its_summary_and_highs_prints_nothing(tmp_path, capsys):
    # HiGHS writes to the file descriptors, which capsys does not see: the
    # subprocess's streams hold its output too
    from test_package import run_python

    given = ["run", "--config", str(fast_config_file(tmp_path)), "--max-rounds", "1"]
    result = run_python("-m", "flexmarket", *given, "--out-dir", str(tmp_path / "child"))
    main(given + ["--out-dir", str(tmp_path / "in_process")])
    summary = capsys.readouterr().out
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == summary
    assert len(summary.splitlines()) == 2


@pytest.mark.parametrize("flag", ["--loads", "--samples"])
@pytest.mark.parametrize("value", ["0", "-5", "many"])
def test_verify_rejects_counts_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", flag, value])
    assert exit_info.value.code == 2
    error = capsys.readouterr()
    assert flag in error.err
    assert "load 01" not in error.out


def test_verify_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_run_reports_a_bad_config_as_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--rate", "2", "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "flexibility rate" in capsys.readouterr().err
    assert not out.exists()


def test_run_reports_a_config_file_that_generation_rejects_as_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = fast_config_file(tmp_path)
    text = config_path.read_text()
    assert "fast_capacity_factor = 0.4\n" in text
    config_path.write_text(
        text.replace("fast_capacity_factor = 0.4\n", "fast_capacity_factor = -1.0\n")
    )
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(config_path), "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "fast_capacity_factor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "replay"])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    # before, reading it ended in a UnicodeDecodeError traceback
    path = tmp_path / "bin.cfg"
    path.write_bytes(b"\xff\xfe\x00bad")
    out = tmp_path / "out"
    given = ["run", "--config", str(path)] if command == "run" else ["replay", str(path)]
    with pytest.raises(SystemExit) as exit_info:
        main(given + ["--out-dir", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err
    assert f"{path} is not UTF-8" in err
    assert not out.exists()


def test_replay_reports_a_bad_manifest_as_a_usage_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(fast_config_file(tmp_path).read_text() + "tariff_model = 3\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["replay", str(manifest), "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "unknown config key 'tariff_model'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "replay"])
def test_a_config_key_given_twice_is_a_usage_error(tmp_path, capsys, command):
    # before, the last value won: a manifest naming seed 1, then seed 7, ran seed 7
    config_path = fast_config_file(tmp_path)
    config_path.write_text(config_path.read_text() + "seed = 7\n")
    out = tmp_path / "out"
    args = ["--config", str(config_path)] if command == "run" else [str(config_path)]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "config key 'seed' given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rates", [",", "0,abc", "nan"], ids=["empty", "not-a-number", "nan"])
def test_sweep_rejects_bad_rate_lists_before_running(tmp_path, capsys, rates):
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--out-dir", str(out), "--rates", rates])
    assert exit_info.value.code == 2
    assert "--rates" in capsys.readouterr().err
    assert not out.exists()


def test_round_details_pick_the_round_directories(tmp_path):
    from flexmarket.simulator import run as run_simulation

    config_path = fast_config_file(tmp_path)
    outcome = run_simulation(config_from_text(config_path.read_text()))
    terminal = sorted(str(record.index) for record in outcome.terminal_rounds())
    assert len(terminal) < len(outcome.rounds)
    args = ["run", "--config", str(config_path), "--round-details"]
    main(args + ["terminal", "--out-dir", str(tmp_path / "terminal")])
    assert sorted(path.name for path in (tmp_path / "terminal" / "rounds").iterdir()) == terminal
    main(args + ["none", "--out-dir", str(tmp_path / "none")])
    assert (tmp_path / "none" / "metrics.csv").exists()
    assert not (tmp_path / "none" / "rounds").exists()


def test_offers_and_clearing_csv(tmp_path):
    offers = [("gen", 0, SUPPLY, 12.5, 47.3), ("ret", 1, DEMAND, 33.125, CAP)]
    round_dir = write_one_round(tmp_path / "out", offers, 2, [], [0.0, 0.0], [0.0, 0.0])
    assert (round_dir / "offers.csv").read_text().strip().splitlines() == [
        "actor,period,side,volume_mw,price_eur_mwh",
        "gen,0,supply,12.5,47.3",
        "ret,1,demand,33.125,3000.0",
    ]
    lines = (round_dir / "clearing.csv").read_text().strip().splitlines()
    assert lines[0] == "period,mcp,offer_id,fraction"
    assert len(lines) == 3


@pytest.mark.parametrize("setting", ["closed", "open"])
def test_every_offer_and_bid_of_a_round_gets_one_csv_row(tmp_path, setting):
    from flexmarket.simulator import run as run_simulation

    config = ScenarioConfig(
        periods=8, forecast_window=8, setting=setting, flexibility_rate=0.1, max_rounds=4
    )
    outcome = run_simulation(config)
    write_outputs(outcome, tmp_path, "all")
    for record in outcome.rounds:
        round_dir = tmp_path / "rounds" / str(record.index)
        offers, clearing, procurement = (
            read_metrics(round_dir / name)
            for name in ("offers.csv", "clearing.csv", "procurement.csv")
        )
        assert len(offers) == len(clearing) == len(record.offers) > 0
        kinds = [row["kind"] for row in procurement]
        assert kinds.count("classical") == len(record.procurement.classical) > 0
        assert kinds.count("modulation") == len(record.procurement.modulation)
    sold = sum(len(record.procurement.modulation) for record in outcome.rounds)
    assert (sold > 0) == (setting == "open")


def test_settlement_csv(tmp_path):
    bid = ("gen", 0, "up", 10.0, 7.0)
    round_dir = write_one_round(tmp_path / "out", [], 1, [bid], [10.0], [-5.0])
    lines = (round_dir / "settlement.csv").read_text().strip().splitlines()
    assert lines[0].startswith("period,imbalance,activated_up")
    assert len(lines) == 2


#: sha256 prefixes of the output trees of ``test_output_trees_match_pinned_digests``,
#: taken with scipy 1.17.1 (HiGHS 1.12.0); a change that moves outputs on
#: purpose updates them and says why
TREE_DIGESTS = {
    "closed": {
        "figures/mean_price_by_round.svg": "4fe049bbca410faa",
        "figures/terminal_prices.svg": "568f36ea48dbf358",
        "manifest.txt": "72b29b52e4a92625",
        "metrics.csv": "450e33e53278d5a8",
        "rounds/*/clearing.csv": "a983105d02b09174",
        "rounds/*/offers.csv": "bb454c9526f26d72",
        "rounds/*/positions.csv": "aae8e8a205a9a67c",
        "rounds/*/prices.csv": "7ce7fdf46f4d2d6a",
        "rounds/*/procurement.csv": "648a119404ceea4e",
        "rounds/*/settlement.csv": "0ed89ac385faf53d",
        "summary.csv": "df43d2ee20260d64",
    },
    "open": {
        "figures/mean_price_by_round.svg": "b10e23e6b0c36beb",
        "figures/terminal_prices.svg": "28c681f6841977ae",
        "manifest.txt": "c2011631fa86aa89",
        "metrics.csv": "1f87513a5ce6155a",
        "rounds/*/clearing.csv": "3acc1a7009b0b8c1",
        "rounds/*/offers.csv": "aa801d0b7245fdcc",
        "rounds/*/positions.csv": "483dcfb766b9d8fb",
        "rounds/*/prices.csv": "8a9d6fcd03385ce1",
        "rounds/*/procurement.csv": "879210d203687b06",
        "rounds/*/settlement.csv": "d27d330562aeb219",
        "summary.csv": "01796186b83c1aab",
    },
    # retailer rows reach |rhs| = 3600 here, where TOL_FEAS * |rhs| is looser
    # than the 3.16e-4 that linprog's own check allows
    "open-rate-0.3": {
        "figures/mean_price_by_round.svg": "b10e23e6b0c36beb",
        "figures/terminal_prices.svg": "28c681f6841977ae",
        "manifest.txt": "bbe61daacec8639f",
        "metrics.csv": "fe5b70b63244981f",
        "rounds/*/clearing.csv": "92933c48fca194f1",
        "rounds/*/offers.csv": "00cf172635214463",
        "rounds/*/positions.csv": "a2f06d6b86f25871",
        "rounds/*/prices.csv": "237388cb5aea82fb",
        "rounds/*/procurement.csv": "e4e3e81f83e41db6",
        "rounds/*/settlement.csv": "ba48caf9f6cff55e",
        "summary.csv": "12b0975eee769e2d",
    },
}


def tree_digests(out_dir):
    """sha256 prefix of every file under ``out_dir``; the files of
    ``rounds/<n>/`` are hashed together in round order as ``rounds/*/<name>``."""
    groups = {}
    for path in out_dir.rglob("*"):
        if path.is_file():
            parts = path.relative_to(out_dir).parts
            order = 0
            if parts[0] == "rounds":
                order, parts = int(parts[1]), ("rounds", "*", *parts[2:])
            groups.setdefault("/".join(parts), []).append((order, path.read_bytes()))
    return {
        name: hashlib.sha256(b"".join(data for _, data in sorted(chunks))).hexdigest()[:16]
        for name, chunks in groups.items()
    }


@pytest.mark.parametrize(
    "case, setting, rate", [("closed", "closed", 0.1), ("open", "open", 0.1), ("open-rate-0.3", "open", 0.3)]
)
def test_output_trees_match_pinned_digests(tmp_path, case, setting, rate):
    from flexmarket.simulator import run as run_simulation

    config = ScenarioConfig(seed=1, setting=setting, flexibility_rate=rate, max_rounds=12)
    outcome = run_simulation(config)
    if setting == "open":
        assert any(record.procurement.modulation_contracted.any() for record in outcome.rounds)
    write_outputs(outcome, tmp_path, "all")
    assert tree_digests(tmp_path) == TREE_DIGESTS[case]


@pytest.mark.parametrize("setting, rate", [("closed", 0.1), ("open", 0.1), ("open", 0.3)])
def test_no_output_csv_holds_a_negative_zero(tmp_path, setting, rate):
    # the trees of test_output_trees_match_pinned_digests, where HiGHS
    # returns negative zeros for positions, fractions and activations
    config = ScenarioConfig(seed=1, setting=setting, flexibility_rate=rate, max_rounds=12)
    write_outputs(run(config), tmp_path, "all")
    cells = [
        cell
        for path in sorted(tmp_path.rglob("*.csv"))
        for row in csv.reader(path.read_text(encoding="utf-8").splitlines())
        for cell in row
    ]
    assert cells and "-0.0" not in cells


#: sha256 prefixes of ``sweep.csv`` and the four sweep figures of
#: ``test_sweep_outputs_match_pinned_digests``, taken as ``TREE_DIGESTS`` were
SWEEP_DIGESTS = {
    "figures/non_contracted.svg": "f1cb194be7e5db49",
    "figures/price_variability.svg": "668b3466b40a48c2",
    "figures/procurement_cost.svg": "1ff7bbdb31df0dfb",
    "figures/total_imbalance.svg": "1c7310882873f345",
    "sweep.csv": "b0091d1d1c1af5eb",
}


def test_sweep_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "sweep"
    args = ["sweep", "--config", str(fast_config_file(tmp_path)), "--out-dir", str(out)]
    assert main(args + ["--rates", "0,0.1"]) == 0
    digests = tree_digests(out)
    assert {name: digests[name] for name in SWEEP_DIGESTS} == SWEEP_DIGESTS
