"""Run one ``secrecylab`` CLI command in a fresh process and record its timings.

Usage: ``cmd_shim.py TIMING_PATH TRACE(0|1) COMMAND [OPTIONS...]``

Does what ``python -m secrecylab`` does (import ``secrecylab.cli``, exit
with ``cli.main(argv)``) and writes to TIMING_PATH, as JSON, the monotonic
time at which ``secrecylab.cli`` finished importing, the times around
``cli.main``, its exit code and the ``secrecylab`` file that was imported.
With TRACE 1 it also wraps the layers' call sites and writes the spans.
"""

import json
import sys
import time

EXIT_TRACE_SETUP = 70


def main():
    timing_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import secrecylab
    import secrecylab.cli as cli
    imported = time.monotonic()

    tracer = None
    if trace:
        import secrecylab.harness as harness
        from layer_trace import Tracer, TraceSetupError
        tracer = Tracer()
        try:
            tracer.install({"cli": cli, "harness": harness})
        except TraceSetupError as exc:
            print(f"trace setup failed: {exc}", file=sys.stderr)
            return EXIT_TRACE_SETUP

    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    start = time.monotonic()
    code = main(argv)
    end = time.monotonic()

    record = {"imported": imported, "start": start, "end": end, "code": code,
              "secrecylab_file": secrecylab.__file__,
              "spans": tracer.spans if tracer else None}
    with open(timing_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
