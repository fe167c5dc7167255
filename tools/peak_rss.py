"""Print the peak resident memory of one ``secrecylab`` CLI command, as its own process.

Runs ``python -m secrecylab ARGS...`` on this checkout's ``src/`` by
``fork`` and ``exec`` and prints the command's exit code and the
``ru_maxrss`` that ``wait4`` reports for that process alone; it exits with
the command's exit code::

    python tools/peak_rss.py allocate-fading --scenario single.scenario \\
        --samples 1000000 --budget 2 --out /tmp/report.csv

A process started by ``vfork`` (as ``subprocess`` starts one) shares its
parent's memory until it execs, and the kernel then counts the parent's
high-water mark in the child's ``ru_maxrss``.  A forked child starts from a
copy of this small process instead, so the figure is the command's own peak,
or this tool's resident size (about 10 MB) if that is larger.  The command's
standard output is discarded; its standard error passes through.  Uses the
standard library only.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss(args):
    """``(exit code, ru_maxrss in KiB)`` of one ``python -m secrecylab ARGS`` process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "secrecylab", *args]
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execve(sys.executable, argv, env)
        finally:
            os._exit(127)
    _pid, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("args", nargs=argparse.REMAINDER, help="the command and its options")
    options = parser.parse_args(argv)
    if not options.args:
        parser.error("give a command")
    code, maxrss_kb = peak_rss(options.args)
    print(f"exit {code}  peak_rss_mb {maxrss_kb / 1024:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
