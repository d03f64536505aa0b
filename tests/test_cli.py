import csv
import filecmp
import hashlib

import numpy as np
import pytest

from flexmarket.cli import main, write_outputs
from flexmarket.energy_market import DEMAND, SUPPLY, EnergyOffer, clear
from flexmarket.imbalance import settle
from flexmarket.reserve_market import ClassicalReserveBid, ReservePrices, clear_reserve
from flexmarket.scenario import (
    ScenarioConfig,
    config_from_text,
    config_to_text,
    generate_scenario,
)
from flexmarket.simulator import RoundRecord, SimulationOutcome, _round_metrics
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
    ],
    ids=[
        "no-rounds", "flexibility-without-loads", "non-finite-price", "negative-unit-count",
        "no-units", "negative-imbalance-limit", "negative-tank-span", "no-forecast-window",
        "negative-forecast-alpha", "negative-ramp", "slow-costs-reversed",
        "fast-costs-reversed", "open-without-band-window", "negative-slow-cost",
        "negative-fast-costs", "costs-above-low-price-cap", "fast-cost-above-price-cap",
        "negative-slow-capacity", "negative-fast-capacity", "energy-seed-above-price-cap",
        "negative-tariff-seed", "negative-seed",
    ],
)
def test_config_rejects_settings_that_fail_later(overrides):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(**overrides).validate()


def test_config_allows_no_loads_without_flexibility():
    ScenarioConfig(loads_per_retailer=0, flexibility_rate=0.0).validate()


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
    """Clear, procure and settle one day, then write it as a one-round run."""
    clearing = clear(offers, periods)
    procurement = clear_reserve(
        classical, [], np.asarray(reserve_up, float), np.zeros(periods), PRICES
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


def test_replay_reproduces_byte_identical_outputs(tmp_path):
    config_path = fast_config_file(tmp_path)
    first = tmp_path / "first"
    again = tmp_path / "again"
    main(["run", "--config", str(config_path), "--out-dir", str(first)])
    main(["replay", str(first / "manifest.txt"), "--out-dir", str(again)])
    assert (first / "metrics.csv").read_bytes() == (again / "metrics.csv").read_bytes()
    comparison = filecmp.dircmp(first, again)
    assert not comparison.diff_files


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


def test_sweep_survives_failing_cell(tmp_path):
    out = tmp_path / "sweep"
    # 2.5 is an illegal flexibility rate; those cells must fail without
    # aborting the healthy rate-0 cells
    assert (
        main(
            [
                "sweep",
                "--config",
                str(fast_config_file(tmp_path)),
                "--out-dir",
                str(out),
                "--rates",
                "0,2.5",
            ]
        )
        == 0
    )
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    by_rate = {(row["rate"], row["setting"]): row for row in rows}
    assert by_rate[("0.0", "closed")]["status"] == "ok"
    assert by_rate[("2.5", "closed")]["status"].startswith("error")
    assert by_rate[("2.5", "open")]["status"].startswith("error")


def test_verify_runs_clean():
    assert main(["verify", "--loads", "2", "--samples", "100", "--seed", "3"]) == 0


def test_package_runs_as_a_module():
    from test_package import run_python

    result = run_python("-m", "flexmarket", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


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
    config_path = fast_config_file(tmp_path, fast_capacity_factor=-1.0)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(config_path), "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "fast_capacity_factor" in capsys.readouterr().err
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


def test_sweep_rejects_rates_sharing_a_cell_directory(tmp_path, capsys):
    out = tmp_path / "sweep"
    args = ["sweep", "--config", str(fast_config_file(tmp_path)), "--out-dir", str(out)]
    assert main(args + ["--rates", "0.02,0.024"]) != 0
    error = capsys.readouterr().err
    assert "0.02 " in error and "0.024" in error
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
    offers = [
        EnergyOffer("gen", 0, SUPPLY, 12.5, 47.3),
        EnergyOffer("ret", 1, DEMAND, 33.125, CAP),
    ]
    round_dir = write_one_round(tmp_path / "out", offers, 2, [], [0.0, 0.0], [0.0, 0.0])
    assert (round_dir / "offers.csv").read_text().strip().splitlines() == [
        "actor,period,side,volume_mw,price_eur_mwh",
        "gen,0,supply,12.5,47.3",
        "ret,1,demand,33.125,3000.0",
    ]
    lines = (round_dir / "clearing.csv").read_text().strip().splitlines()
    assert lines[0] == "period,mcp,offer_id,fraction"
    assert len(lines) == 3


def test_settlement_csv(tmp_path):
    bid = ClassicalReserveBid("gen", 0, "up", 10.0, 7.0)
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
        "metrics.csv": "3f427fc9c7f61b28",
        "rounds/*/clearing.csv": "a983105d02b09174",
        "rounds/*/offers.csv": "506b67138fbf2486",
        "rounds/*/positions.csv": "ee33b2b8bfc8d279",
        "rounds/*/prices.csv": "7ce7fdf46f4d2d6a",
        "rounds/*/procurement.csv": "fd05c28cc0270ef7",
        "rounds/*/settlement.csv": "0ed89ac385faf53d",
        "summary.csv": "df43d2ee20260d64",
    },
    "open": {
        "figures/mean_price_by_round.svg": "b10e23e6b0c36beb",
        "figures/terminal_prices.svg": "28c681f6841977ae",
        "manifest.txt": "c2011631fa86aa89",
        "metrics.csv": "41c1d8f1e1c25147",
        "rounds/*/clearing.csv": "889e58a0bc0f8a5e",
        "rounds/*/offers.csv": "42dab2489a942e4e",
        "rounds/*/positions.csv": "0443d7dad4de81df",
        "rounds/*/prices.csv": "ba7a7f85904269ee",
        "rounds/*/procurement.csv": "ef76b9e4e1d6c91e",
        "rounds/*/settlement.csv": "5b668d9315015527",
        "summary.csv": "715d9b16920a4a48",
    },
    # retailer rows reach |rhs| = 3600 here, where TOL_FEAS * |rhs| is looser
    # than the 3.16e-4 that linprog's own check allows
    "open-rate-0.3": {
        "figures/mean_price_by_round.svg": "b10e23e6b0c36beb",
        "figures/terminal_prices.svg": "28c681f6841977ae",
        "manifest.txt": "bbe61daacec8639f",
        "metrics.csv": "3f6e1154695640f3",
        "rounds/*/clearing.csv": "92933c48fca194f1",
        "rounds/*/offers.csv": "687e29097b2e7f31",
        "rounds/*/positions.csv": "77d547379168b1e9",
        "rounds/*/prices.csv": "370413f7c1b6d5db",
        "rounds/*/procurement.csv": "5cbe3d62cf83c4c4",
        "rounds/*/settlement.csv": "0095fc3d9d1c6c5a",
        "summary.csv": "fb337873ed8bd725",
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
        assert any(record.procurement.contracted_modulation() for record in outcome.rounds)
    write_outputs(outcome, tmp_path, "all")
    assert tree_digests(tmp_path) == TREE_DIGESTS[case]
