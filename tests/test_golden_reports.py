"""Byte-for-byte report goldens for every deterministic CLI command.

Each case runs ``cli.main`` in-process on a scenario under
``tests/data/reports/`` and compares the report with the stored golden file
of the same name.  The agent scenario uses non-positional ids and covers all
four pairing roles, a boundary agent (``eaves_snr == main_snr``), a fading
entry seen through its SNRs and a contested helper for ``pick-prob``.
Fading commands run only on a link whose eavesdropper always out-hears it
(``a 1e-300, b 1``): no slot activates, so the report holds the documented
zero-secrecy sentinel (``"lambda": "inf"`` beside ``zero_secrecy: true``)
and does not depend on numpy's random stream.  The mixed scenario
interleaves gaussian links with fading and agent-snr entries, with explicit
and default ids, an integer-valued variance, a ``sigma_m_sq`` of 1e-308 and
an equal-noise link, so ``rate`` and ``allocate`` read a bank whose
positions and ids are not its row numbers.

Regenerate the goldens (only when a report change is intended) with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import pathlib
import sys

import pytest

from secrecylab import cli

DATA = pathlib.Path(__file__).parent / "data" / "reports"

#: Golden name -> CLI arguments before ``--format``.
CASES = {
    "rate": ["rate", "--scenario", "gaussian.scenario", "--budget", "2"],
    "allocate": ["allocate", "--scenario", "gaussian.scenario", "--budget", "3"],
    "mixed-rate": ["rate", "--scenario", "mixed.scenario", "--budget", "2"],
    "mixed-allocate": ["allocate", "--scenario", "mixed.scenario", "--budget", "3"],
    "pair": ["pair", "--scenario", "agents.scenario"],
    "fig4": ["fig4"],
    "pick-prob": ["pick-prob", "--scenario", "agents.scenario"],
    "discrete-capacity": ["discrete-capacity", "--scenario", "discrete.scenario",
                          "--grid-step", "0.05"],
    "allocate-fading": ["allocate-fading", "--scenario", "zero-secrecy.scenario"],
    "ergodic": ["ergodic", "--scenario", "zero-secrecy.scenario"],
}


def _argv(name, fmt, out):
    args = [str(DATA / a) if a.endswith(".scenario") else a for a in CASES[name]]
    return args + ["--format", fmt, "--out", str(out)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main(_argv(name, fmt, out)) == 0
    assert out.read_bytes() == (DATA / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    for name in CASES:
        for fmt in ("csv", "json"):
            code = cli.main(_argv(name, fmt, DATA / f"{name}.{fmt}"))
            if code:
                sys.exit(code)
