"""``tools/report_digest.py``: one digest per benchmark report, the same on every run."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_digest.py"

#: The ``bank`` workload's reports, in command order.
BANK_REPORTS = ("report-0-allocate.csv", "report-1-rate.csv", "report-2-pair.json",
                "report-3-pick-prob.json", "report-4-allocate.json",
                "report-5-pick-prob.csv", "report-6-pair.csv")


def digest_lines(*args):
    proc = subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout.splitlines()


def test_bank_digests_name_every_report_and_repeat():
    lines = digest_lines("--workload", "bank", "--seed", "1")
    assert [line.split("  ")[1] for line in lines] == [f"bank-seed1/{name}"
                                                       for name in BANK_REPORTS]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert len({line.split()[0] for line in lines}) == len(lines)
    assert digest_lines("--workload", "bank", "--seed", "1") == lines
    # Another seed draws other links, so every report changes.
    other = digest_lines("--workload", "bank", "--seed", "2")
    assert not {line.split()[0] for line in lines} & {line.split()[0] for line in other}

