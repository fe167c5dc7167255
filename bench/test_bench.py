"""Tests of the benchmark itself: reference, checker, runner and tracer.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import layer_trace
import reference
import run
import workloads
from secrecylab import cli, discrete, harness

SEED = 7
RNG_SEED = 20121


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(RNG_SEED)
    gauss = workloads._gaussian_bank(rng, 60)
    agents = workloads._agent_bank(rng, 40)
    fading = [{"type": "fading", "a": 5.0, "b": 0.5, "sigma_m_sq": 1.0, "sigma_w_sq": 1.1},
              {"type": "fading", "a": 1.0, "b": 2.5, "sigma_m_sq": 0.9, "sigma_w_sq": 1.0}]
    mats = [workloads._random_discrete(rng, 3) for _ in range(2)]
    disc = [{"type": "discrete", "main": m.tolist(), "eaves": e.tolist()} for m, e in mats]
    return {
        "rate": (gauss, ["--budget", "1.5"], reference.bank("rate", gauss, 1.5)),
        "allocate": (gauss, ["--budget", "5.0"], reference.bank("allocate", gauss, 5.0)),
        "pair": (agents, [], reference.bank("pair", agents, None)),
        "pick-prob": (agents, [], reference.bank("pick-prob", agents, None)),
        "allocate-fading": (fading, ["--samples", "3000", "--budget", "0.7"],
                            reference.fading("allocate-fading", fading, SEED, 3000, 0.7)),
        "ergodic": (fading, ["--samples", "3000", "--budget", "2.0"],
                    reference.fading("ergodic", fading, SEED, 3000, 2.0)),
        "discrete-capacity": (disc, ["--grid-step", "0.02"], reference.discrete(mats, 0.02)),
    }


def write_scenario(tmp_path, channels):
    path = tmp_path / "bench.scenario"
    path.write_text(json.dumps({"schema_version": 1, "seed": SEED, "channels": channels}))
    return str(path)


def make_report(tmp_path, command, fmt, case):
    channels, flags, _expect = case
    out = tmp_path / f"report.{fmt}"
    argv = [command, "--scenario", write_scenario(tmp_path, channels), *flags,
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


#: Output field nudged by a relative 1e-4 to make a wrong number, per command.
NUDGED = {"rate": "rate_bits", "allocate": "power", "pair": "efficiency",
          "pick-prob": "efficiency", "allocate-fading": "power", "ergodic": "rate_bits",
          "discrete-capacity": "rate_bits"}


def nudge(text, fmt, field):
    """The report with the first non-zero ``field`` value off by a relative 1e-4."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index(field)
        row = next(r for r in rows[1:] if r[col] not in ("", "0", "0.0"))
        row[col] = repr(float(row[col]) * (1 + 1e-4))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    recs = json.loads(text)
    if field == "efficiency" and "pick_probability" in recs[-1]["outputs"]:
        field = "pick_probability"
    rec = next(r for r in recs if r["outputs"].get(field))
    rec["outputs"][field] *= 1 + 1e-4
    return json.dumps(recs)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(NUDGED))
def test_report_passes_and_a_wrong_number_fails(tmp_path, inputs, command, fmt):
    case = inputs[command]
    text = make_report(tmp_path, command, fmt, case)
    assert checks.check(command, fmt, text, case[2]) == []
    assert checks.check(command, fmt, nudge(text, fmt, NUDGED[command]), case[2])


def test_truncated_report_fails(tmp_path, inputs):
    case = inputs["allocate"]
    text = make_report(tmp_path, "allocate", "csv", case)
    lines = text.splitlines(keepends=True)
    assert checks.check("allocate", "csv", "".join(lines[:-2] + lines[-1:]), case[2])
    assert checks.check("allocate", "csv", "", case[2])


def test_moved_argmax_fails(tmp_path, inputs):
    case = inputs["discrete-capacity"]
    recs = json.loads(make_report(tmp_path, "discrete-capacity", "json", case))
    pmf = recs[0]["outputs"]["argmax_pmf"]
    i, j = int(np.argmax(pmf)), int(np.argmin(pmf))
    pmf[i], pmf[j] = round(pmf[i] - 0.02, 12), round(pmf[j] + 0.02, 12)
    assert checks.check("discrete-capacity", "json", json.dumps(recs), case[2])


def test_swapped_helper_fails(tmp_path, inputs):
    case = inputs["pair"]
    recs = json.loads(make_report(tmp_path, "pair", "json", case))
    pairs = [r for r in recs if "pair_with" in r["outputs"]]
    assert len(pairs) >= 2
    pairs[0]["outputs"]["pair_with"], pairs[1]["outputs"]["pair_with"] = (
        pairs[1]["outputs"]["pair_with"], pairs[0]["outputs"]["pair_with"])
    assert checks.check("pair", "json", json.dumps(recs), case[2])


def test_dropped_feasible_member_fails(tmp_path, inputs):
    case = inputs["pick-prob"]
    recs = json.loads(make_report(tmp_path, "pick-prob", "json", case))
    rec = next(r for r in recs if r["outputs"].get("feasible_members"))
    rec["outputs"]["feasible_members"].pop()
    assert checks.check("pick-prob", "json", json.dumps(recs), case[2])


def test_reference_grid_is_lexicographic_and_complete():
    comps = reference._compositions(6, 3)
    assert len(comps) == math.comb(6 + 2, 2)
    assert [tuple(c) for c in comps] == sorted(tuple(c) for c in comps)
    assert (comps.sum(axis=1) == 6).all()


def fake_workload(tmp_path, argv_flags, expect):
    scen = write_scenario(tmp_path, [{"type": "gaussian", "sigma_m_sq": 1.0,
                                      "sigma_w_sq": 3.0}])
    out = str(tmp_path / "report.csv")
    cmd = workloads.Command(argv=("allocate", "--scenario", scen, *argv_flags,
                                  "--format", "csv", "--out", out),
                            command="allocate", fmt="csv", out=out, expect=expect)
    return workloads.Workload(commands=(cmd,), working_set_bytes={})


def test_nonzero_exit_counts_as_failure(tmp_path):
    expect = reference.bank("allocate", [{"sigma_m_sq": 1.0, "sigma_w_sq": 3.0}], 2.0)
    ok = run.Runner(fake_workload(tmp_path, ("--budget", "2.0"), expect), tmp_path)
    done = ok.run_pass(traced=False).runs[0]
    assert (done.code, done.errors) == (0, [])
    assert 0 < done.setup_s < done.exited - done.spawned

    # No budget: the CLI exits 2 (usage error) and writes no report.
    bad = run.Runner(fake_workload(tmp_path, (), expect), tmp_path)
    failed = bad.run_pass(traced=False).runs[0]
    assert failed.code == 2
    assert failed.errors and "exit code 2" in failed.errors[0]


def test_traced_pass_records_spans_and_keeps_the_report(tmp_path):
    expect = reference.bank("allocate", [{"sigma_m_sq": 1.0, "sigma_w_sq": 3.0}], 2.0)
    runner = run.Runner(fake_workload(tmp_path, ("--budget", "2.0"), expect), tmp_path)
    plain = Path(runner.workload.commands[0].out)
    runner.run_pass(traced=False)
    untraced = plain.read_bytes()
    done = runner.run_pass(traced=True).runs[0]
    assert done.errors == [] and plain.read_bytes() == untraced
    totals = layer_trace.aggregate([done.timing["spans"]])
    assert totals["allocation.awgn_waterfill.calls"] == 1
    assert totals["allocation.awgn_waterfill.channels"] == 1
    assert totals["cli.self_s"] >= 0 and totals["harness.self_s"] >= 0


def test_tracer_fails_loudly_on_a_missing_name():
    tracer = layer_trace.Tracer()
    cli_ns = types.SimpleNamespace(load_scenario=len, run=len)  # no emit
    with pytest.raises(layer_trace.TraceSetupError, match="emit"):
        tracer.install({"cli": cli_ns, "harness": types.SimpleNamespace()})


def test_tracer_counts_and_self_time():
    tracer = layer_trace.Tracer()
    names = {site: {name for s, _layer, name, _c in layer_trace.WRAPPED if s == site}
             for site in ("cli", "harness")}
    ns = {"cli": types.SimpleNamespace(**{n: getattr(cli, n) for n in names["cli"]}),
          "harness": types.SimpleNamespace(**{n: getattr(harness, n)
                                              for n in names["harness"]})}
    tracer.install(ns)
    ch = discrete.DiscreteWiretapChannel(np.eye(3), np.full((3, 3), 1 / 3))
    rate, _pmf = ns["harness"].max_secrecy_rate_grid(ch, 0.05)
    assert rate > 0
    (span,) = tracer.spans
    assert span[2] == "discrete.max_secrecy_rate_grid"
    assert span[5] == {"grid_points": math.comb(20 + 2, 2)}

    spans = [[1, 0, "cli.main", 0.0, 10.0, None], [2, 1, "harness.run", 1.0, 8.0, None],
             [3, 2, "discrete.max_secrecy_rate_grid", 2.0, 7.0, {"grid_points": 5}]]
    totals = layer_trace.aggregate([spans])
    assert totals["cli.self_s"] == 3.0
    assert totals["harness.self_s"] == 2.0
    assert totals["discrete.max_secrecy_rate_grid.grid_points"] == 5


def test_declared_layer_metrics_name_traced_spans():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spans = {f"{layer}.{name}" for _s, layer, name, _c in layer_trace.WRAPPED} | {"cli.main"}
    derived = set(layer_trace.SELF_TIMES.values()) | set(run.RATIOS) | {"trace.overhead_s"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert name in derived or name.rsplit(".", 1)[0] in spans, name


def test_runs_only_against_a_checkout_with_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(run.BENCH_DIR, bench, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bank", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
