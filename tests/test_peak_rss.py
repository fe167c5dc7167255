"""``tools/peak_rss.py``: one command's own peak resident memory, by fork and exec."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "peak_rss.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_prints_exit_code_and_peak(tmp_path):
    scenario = tmp_path / "one.scenario"
    scenario.write_text(json.dumps({"schema_version": 1, "channels": [
        {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0}]}))
    out = tmp_path / "report.csv"
    proc = run_tool("rate", "--scenario", str(scenario), "--budget", "1",
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    peak = float(re.fullmatch(r"exit 0  peak_rss_mb (\d+\.\d)", proc.stdout.strip())[1])
    # The command imports numpy, so its peak is well above a bare interpreter's.
    assert 10.0 < peak < 1000.0
    assert out.read_text().startswith("experiment,")


def test_a_failing_command_gives_its_exit_code(tmp_path):
    proc = run_tool("rate", "--scenario", str(tmp_path / "missing.scenario"), "--budget", "1")
    assert proc.returncode == 3
    assert re.fullmatch(r"exit 3  peak_rss_mb \d+\.\d", proc.stdout.strip())
    assert "missing.scenario" in proc.stderr


def test_needs_a_command():
    proc = run_tool()
    assert proc.returncode == 2
    assert "give a command" in proc.stderr


def test_ergodic_peaks_with_calibration(tmp_path):
    """At 10**6 samples the ergodic estimate holds no more than calibration does:
    ``ergodic`` (calibration, then the estimate) peaks within 2 MB of ``allocate-fading``."""
    scenario = tmp_path / "fading.scenario"
    scenario.write_text(json.dumps({"schema_version": 1, "channels": [
        {"type": "fading", "a": 5.0, "b": 0.5, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]}))
    peaks = {}
    for command in ("ergodic", "allocate-fading"):
        proc = run_tool(command, "--scenario", str(scenario), "--samples", "1000000",
                        "--budget", "2", "--seed", "7", "--out", str(tmp_path / f"{command}.csv"))
        assert proc.returncode == 0, proc.stderr
        peaks[command] = float(re.fullmatch(r"exit 0  peak_rss_mb (\d+\.\d)", proc.stdout.strip())[1])
    assert peaks["ergodic"] <= peaks["allocate-fading"] + 2.0, peaks
