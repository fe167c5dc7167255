"""secrecylab benchmark: the CLI as users run it, one cold process per command.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {fading-mc,discrete-grid,bank,all}
                         --seed N --seconds S --trace {0,1}

A closed loop with one client: the workload's fixed command list runs one
``secrecylab`` process at a time on the checkout's ``src/``, each command
starting after the previous one exits, and the list repeats while
``--seconds`` allows.  Every report is checked against the reference answer
(``checks.py``).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The metric names, units and bounds are those in ``BENCHMARK.json``.  The
last line of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import layer_trace
import workloads
from cmd_shim import EXIT_TRACE_SETUP

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SHIM = BENCH_DIR / "cmd_shim.py"

#: Layers that must record calls on each workload, or the trace is wrong.
DOMINANT = {
    "fading-mc": ("allocation.calibrate_fading_lambda",),
    "discrete-grid": ("discrete.max_secrecy_rate_grid",),
    "bank": ("scenario.emit", "cooperation.feasible_set", "allocation.awgn_waterfill"),
}

#: Per-layer rates derived per pass: metric -> (numerator, denominator).
RATIOS = {
    "allocation.calibrate_fading_lambda.samples_per_s":
        ("allocation.calibrate_fading_lambda.samples", "allocation.calibrate_fading_lambda.busy_s"),
    "discrete.max_secrecy_rate_grid.points_per_s":
        ("discrete.max_secrecy_rate_grid.grid_points", "discrete.max_secrecy_rate_grid.busy_s"),
    "cooperation.greedy_pairing.paired_frac":
        ("cooperation.greedy_pairing.paired", "cooperation.greedy_pairing.agents"),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run or measure; no result is printed."""


@dataclass
class CommandRun:
    index: int
    spawned: float
    exited: float
    code: int
    maxrss_kb: int
    timing: dict
    errors: list

    @property
    def setup_s(self):
        return self.timing["imported"] - self.spawned

    @property
    def cmd_s(self):
        return self.timing["end"] - self.timing["start"]


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list


def child_env():
    # Bytecode is written and reused, as for an installed package.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SECRECY_LAB_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, timing_path, err_path, traced, env):
    """Run one command process to completion; return (spawned, exited, code, maxrss_kb)."""
    with open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(SHIM), str(timing_path), "1" if traced else "0", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, exited, proc.returncode, usage.ru_maxrss


class Runner:
    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.env = child_env()
        self._verdicts = {}     # (command index, report sha256) -> errors

    def paths(self, index):
        return (self.workdir / f"timing-{index}.json", self.workdir / f"stderr-{index}.txt")

    def run_pass(self, traced):
        cmds = self.workload.commands
        for i, cmd in enumerate(cmds):
            for path in (cmd.out, *self.paths(i)):
                Path(path).unlink(missing_ok=True)
        raw = []
        start = time.monotonic()
        for i, cmd in enumerate(cmds):
            raw.append(spawn(cmd.argv, *self.paths(i), traced, self.env))
        wall = time.monotonic() - start
        return Pass(traced=traced, wall_s=wall,
                    runs=[self._collect(i, *r) for i, r in enumerate(raw)])

    def _collect(self, index, spawned, exited, code, maxrss_kb):
        cmd = self.workload.commands[index]
        timing_path, err_path = self.paths(index)
        if code == EXIT_TRACE_SETUP:
            raise BenchError(f"command {index}: {err_path.read_text().strip()}")
        if not timing_path.exists():
            return CommandRun(index, spawned, exited, code, maxrss_kb, None,
                              [f"exit code {code}, no timing: {_tail(err_path)}"])
        timing = json.loads(timing_path.read_text())
        if not Path(timing["secrecylab_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"secrecylab was imported from {timing['secrecylab_file']}, "
                             f"not from {SRC}")
        if code != 0:
            errors = [f"exit code {code}: {_tail(err_path)}"]
        else:
            errors = self.check_report(index, cmd)
        return CommandRun(index, spawned, exited, code, maxrss_kb, timing, errors)

    def check_report(self, index, cmd):
        try:
            data = Path(cmd.out).read_bytes()
        except FileNotFoundError:
            return ["no report written"]
        key = (index, hashlib.sha256(data).hexdigest())
        if key not in self._verdicts:   # identical bytes get an identical verdict
            text = data.decode(errors="replace")
            self._verdicts[key] = checks.check(cmd.command, cmd.fmt, text, cmd.expect)
        return self._verdicts[key]


def _tail(path, limit=300):
    text = path.read_text(errors="replace").strip() if path.exists() else ""
    return text[-limit:] or "(no stderr)"


def measure(runner, seconds, trace):
    """Repeat the command list while ``seconds`` allows; with ``trace``, alternate
    untraced and traced passes and run at least one of each."""
    first = runner.workload.commands[0]     # warm-up: bytecode compiled, files cached
    spawn(first.argv, *runner.paths(0), False, runner.env)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 1))
        elapsed = time.monotonic() - start
        have_both = not trace or any(p.traced for p in passes)
        if have_both and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def end_to_end(passes):
    untraced = [p for p in passes if not p.traced]
    runs = [r for p in untraced for r in p.runs if r.timing is not None]
    if not runs:
        raise BenchError("no command produced timings")
    return {
        "setup_s": statistics.median(r.setup_s for r in runs),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "cmd_p50_s": statistics.median(r.cmd_s for r in runs),
        "peak_rss_mb": max(r.maxrss_kb for p in untraced for r in p.runs) / 1024,
    }, {"processes": len(runs), "passes": len(untraced)}


def per_layer(name, passes, names):
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        totals = layer_trace.aggregate(r.timing["spans"] for r in p.runs if r.timing)
        for metric, (num, den) in RATIOS.items():
            totals[metric] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        per_pass.append(totals)
    for layer in DOMINANT[name]:
        if any(t.get(f"{layer}.calls", 0) == 0 for t in per_pass):
            raise BenchError(f"dominant layer {layer} recorded no calls on {name}")
    values = {m: statistics.median(t.get(m, 0) for t in per_pass) for m in names}
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in passes if not p.traced))
    return values


def environment(workload):
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = size
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "working_set_bytes (computed from inputs)": workload.working_set_bytes}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace):
    e2e_units, layer_units = load_spec()
    workdir = WORK / f"{name}-seed{seed}"
    workdir.mkdir(parents=True)
    workload = workloads.build(name, seed, str(workdir))
    runner = Runner(workload, workdir)
    passes = measure(runner, seconds, trace)

    runs = [r for p in passes for r in p.runs]
    failures = [(r.index, e) for r in runs for e in r.errors[:1]]
    env = environment(workload)
    per_cmd = len(workload.commands)
    print(f"workload {name}, seed {seed}: closed loop, 1 client, one command process "
          f"at a time; {len(passes)} passes of {per_cmd} commands")
    if trace:
        values = per_layer(name, passes, layer_units)
        units = layer_units
        main_busy = values["cli.main.busy_s"] or 1.0
        for metric in layer_units:
            share = (f"  {100 * values[metric] / main_busy:5.1f} % of command time"
                     if metric.endswith(("busy_s", "self_s")) else "")
            print(f"  {metric:52s} {values[metric]:14.6g} {units[metric]}{share}")
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for pi, p in enumerate(passes):
                for r in p.runs:
                    if p.traced and r.timing:
                        fh.write(json.dumps({"request": [pi, r.index],
                                             "spans": r.timing["spans"]}) + "\n")
    else:
        values, counts = end_to_end(passes)
        units = e2e_units
        notes = {
            "setup_s": f"median of {counts['processes']} command processes",
            "wall_s": f"median of {counts['passes']} passes of the {per_cmd}-command list",
            "cmd_p50_s": f"median of {counts['processes']} commands; no tail percentile: "
                         f"too few samples for 10 beyond it",
            "peak_rss_mb": f"largest ru_maxrss of {counts['processes']} command processes",
        }
        for metric in e2e_units:
            print(f"  {metric:12s} {values[metric]:12.6g} {units[metric]:3s}  {notes[metric]}")
    print(f"  {'failed_frac':12s} {len(failures) / len(runs):12.6g} ratio  "
          f"{len(failures)} failed of {len(runs)} commands attempted")
    for index, error in failures[:5]:
        print(f"  FAILED command {index} {workload.commands[index].command}: {error}",
              file=sys.stderr)
    print(f"  env {json.dumps(env)}")

    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    result = {"correct": not failures, "attempted": len(runs), "failed": len(failures),
              "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "env": env, "result": result,
                   "pass_wall_s": [[p.traced, p.wall_s] for p in passes],
                   "commands": [{"pass": pi, "command": r.index, "code": r.code,
                                 "process_s": r.exited - r.spawned, "maxrss_kb": r.maxrss_kb,
                                 "setup_s": r.setup_s if r.timing else None,
                                 "cmd_s": r.cmd_s if r.timing else None, "errors": r.errors}
                                for pi, p in enumerate(passes) for r in p.runs]},
                  fh, indent=1)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "secrecylab" / "__init__.py").is_file():
        print(f"benchmark error: no secrecylab package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)     # keep only this run's files
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
