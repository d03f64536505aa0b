"""Properties of the package as a whole: what importing it costs, and that
the demo scripts run against the current API."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMOS = [
    "01_energy_auction.py",
    "02_reserve_procurement.py",
    "03_settlement_and_tariffs.py",
    "04_flexible_load_bands.py",
]


def run_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy():
    # scipy is imported only when a model is solved
    probe = (
        "import sys, flexmarket, flexmarket.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_starts_no_thread():
    # nor does a run (test_a_run_starts_no_thread)
    probe = (
        "import sys, threading, flexmarket, flexmarket.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1 False"


def test_a_run_starts_no_thread():
    # each stage solves its actors' LPs in turn on the calling thread
    probe = (
        "import threading; from flexmarket.scenario import ScenarioConfig; "
        "from flexmarket.simulator import run; before = threading.active_count(); "
        "run(ScenarioConfig(seed=1, mean_consumption=1000.0, max_rounds=2)); "
        "print(before, threading.active_count())"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1 1"


def test_only_cli_writes_csv():
    # the output tree's format lives in one module; the others only compute
    importers = []
    for path in sorted((SRC / "flexmarket").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["flexmarket/cli.py"]


def test_benchmark_tracer_finds_every_binding_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps product bindings by name; a refactor that
    # drops one of them must fail here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    from flexmarket import energy_market, imbalance, simulator
    from flexmarket.scenario import ScenarioConfig

    def bindings():
        return (energy_market.clear, simulator.clear_reserve, imbalance.settle, imbalance.solve)

    originals = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert all(wrapped is not original for wrapped, original in zip(bindings(), originals))
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
        # one traced closed round reaches the agents' solves and the check
        simulator.run(ScenarioConfig(max_rounds=1))
        profile = tracer.profile(0)
    finally:
        tracer.uninstall()
    assert bindings() == originals
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    assert profile["lp.solve.agents.producer.calls"] > 0
    assert profile["lp.solve.agents.retailer.calls"] > 0
    assert profile["lp.check_feasible.s"] > 0


@pytest.mark.parametrize("module", ["flexmarket", "flexmarket.agents"])
def test_star_import_resolves_every_exported_name(module):
    # a name deleted from a module but left in ``__all__`` breaks ``import *``
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if name not in namespace] == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda name: name.removesuffix(".py"))
def test_demo_runs(demo, tmp_path):
    result = run_python(str(ROOT / "demos" / demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


#: the ```python blocks of README.md, in order
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def checkout_files():
    """Each file of the checkout outside git's and Python's caches, with its
    size and modification time."""
    files = {}
    for folder, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__", ".pytest_cache")]
        for name in names:
            stat = os.stat(os.path.join(folder, name))
            files[os.path.join(folder, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


@pytest.mark.parametrize("block", README_BLOCKS, ids=["run", "offer-book"])
def test_readme_python_block_runs(block, tmp_path):
    before = checkout_files()
    result = run_python("-c", block, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []
    assert checkout_files() == before
    if "OfferBook" in block:
        assert result.stdout == "[40.]\n"
