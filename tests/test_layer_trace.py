"""The per-layer benchmark's tracer on the cooperation commands.

``bench/run.py --trace 1`` wraps the names that ``secrecylab.cli`` and
``secrecylab.harness`` call (``bench/layer_trace.py``), and it fails a
``bank`` run whose traced passes record no ``cooperation.feasible_set``
calls.  These tests install the same tracer in-process, as
``bench/cmd_shim.py`` does, and run ``pair``, ``pick-prob`` and ``fig4``
through ``secrecylab.cli.main``.  Tracing must leave each report's bytes as
they are, and the counts the benchmark reads must be those the per-record
runners gave, written down here.  ``bench/`` is only read.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from secrecylab import cli, harness

ROOT = Path(__file__).resolve().parent.parent
AGENTS = ROOT / "tests" / "data" / "reports" / "agents.scenario"

#: The counts of each run, from the per-record runners: classify calls,
#: feasible_set calls and members, greedy_pairing calls, agents and agents paired.
EXPECTED = {
    ("pair", "agents"): (1, 0, 0, 1, 6, 4),
    ("pick-prob", "agents"): (1, 6, 12, 0, 0, 0),
    ("fig4", None): (1, 0, 0, 1, 6, 6),
    ("pair", "bank"): (1, 0, 0, 1, 203, 160),
    ("pick-prob", "bank"): (1, 203, 13567, 0, 0, 0),
    ("fig4", "bank"): (1, 0, 0, 1, 203, 160),
}
COUNTS = ("classify.calls", "feasible_set.calls", "feasible_set.members",
          "greedy_pairing.calls", "greedy_pairing.agents", "greedy_pairing.paired")


def bank_doc():
    """300 agents: qualified, dense and sparse helper sets, boundary agents
    (``eaves_snr == main_snr``), tied SNRs and negative ids."""
    rng = random.Random(18)
    channels = []
    for agent_id in rng.sample(range(-500, 2500), 300):
        a = rng.choice([0.5, 1.0, 2.0, 4.0, 8.0]) if rng.random() < 0.4 else rng.uniform(0.2, 40.0)
        kind = rng.random()
        e = a * (rng.uniform(0.2, 0.95) if kind < 0.35 else rng.uniform(1.0, 1.4) if kind < 0.65
                 else rng.uniform(4.0, 20.0) if kind < 0.9 else 1.0)
        channels.append({"type": "agent-snr", "id": agent_id, "main_snr": a, "eaves_snr": e})
    return {"schema_version": 1, "seed": 3, "channels": channels}


@pytest.fixture
def layer_trace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no bytecode caches in bench/
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layer_trace
    return layer_trace


def run(argv, out, layer_trace=None, monkeypatch=None):
    """The report bytes of one ``cli.main`` run and, traced, its aggregated spans."""
    if layer_trace is None:
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        return out.read_bytes(), None
    modules = {"cli": cli, "harness": harness}
    with monkeypatch.context() as patch:
        for site, _layer, name, _counter in layer_trace.WRAPPED:  # unwrapped again on exit
            patch.setattr(modules[site], name, getattr(modules[site], name))
        tracer = layer_trace.Tracer()
        tracer.install(modules)
        assert tracer.wrap("cli.main", cli.main)([*argv, "--out", str(out)]) == cli.EXIT_OK
    return out.read_bytes(), layer_trace.aggregate([tracer.spans])


@pytest.mark.parametrize("command, scenario", list(EXPECTED))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tracing_keeps_reports_and_counts(tmp_path, monkeypatch, layer_trace,
                                          command, scenario, fmt):
    argv = [command, "--format", fmt]
    if scenario == "agents":
        argv += ["--scenario", str(AGENTS)]
    elif scenario == "bank":
        path = tmp_path / "bank.scenario"
        path.write_text(json.dumps(bank_doc()))
        argv += ["--scenario", str(path)]
    plain, _ = run(argv, tmp_path / "plain.out")
    traced, totals = run(argv, tmp_path / "traced.out", layer_trace, monkeypatch)
    assert traced == plain
    assert tuple(totals.get(f"cooperation.{key}", 0) for key in COUNTS) == EXPECTED[
        command, scenario]
    # The benchmark's DOMINANT check: one feasible_set call per disqualified agent.
    if command == "pick-prob":
        rows = plain.decode().splitlines()[1:-1] if fmt == "csv" else json.loads(plain)[:-1]
        assert totals["cooperation.feasible_set.calls"] == len(rows)
    # The traced commands ran, and the tracer left no wrapper behind.
    assert totals["cli.main.calls"] == totals["harness.run.calls"] == 1
    assert not any(getattr(fn, "__name__", "") == "traced"
                   for fn in (harness.feasible_set, harness.classify, cli.run))
