"""Print one sha256 per report of a benchmark workload, for byte-identity checks.

Builds the workload's scenario files with ``bench/workloads.build`` in a
temporary directory, runs each of its commands in-process through
``secrecylab.cli.main`` on this checkout's ``src/``, and prints one line per
report: its digest and its name, as ``sha256sum`` does.  Two checkouts
write the same reports exactly when their outputs are equal, so byte
identity across them is one ``diff``::

    python tools/report_digest.py --workload bank --seed 1 > a.txt
    (cd ../other && python tools/report_digest.py --workload bank --seed 1) > b.txt
    diff a.txt b.txt

A command that exits non-zero prints its exit code in place of a digest.
``bench/`` is only read.  Uses the standard library beside what
``bench/workloads.py`` needs (numpy).
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode caches in bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/)
from secrecylab import cli  # noqa: E402


def digests(workload, seed):
    """``(report name, sha256 hex or "exit N")`` for each command of one workload run."""
    with tempfile.TemporaryDirectory(prefix="report-digest-") as workdir:
        lines = []
        for command in workloads.build(workload, seed, workdir).commands:
            name = f"{workload}-seed{seed}/{os.path.basename(command.out)}"
            code = cli.main(list(command.argv))
            if code:
                lines.append((name, f"exit {code}"))
            else:
                lines.append((name, hashlib.sha256(Path(command.out).read_bytes()).hexdigest()))
        return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        for name, digest in digests(workload, args.seed):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
