"""Print the statements of ``src/secrecylab`` that no test runs.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``), and every Python process the tests start under the
same tracer: a temporary directory holding a ``sitecustomize`` module is put
first on ``PYTHONPATH``, so each child loads this file at start-up and, at
exit, writes the lines it ran into a temporary directory.  A statement is
the span of one AST statement, from its first decorator, if any, to its
last line; docstrings are not statements.  A statement ran when any line of
its span ran.  Prints ``path:line: source`` for each statement that never
ran, then their count, and exits with pytest's exit code.

A child that ends by ``os._exit`` or a signal, or that is started with
``PYTHONPATH`` unset or ``-S``/``-I``, records nothing.  Under the tracer the
tests run two to three times slower.  Uses the standard library beside
pytest.

The checkout's ``src`` goes first on ``sys.path`` and on the ``PYTHONPATH``
the children inherit, so the tests import this checkout's package without
``PYTHONPATH=src``.

Usage: ``python tools/line_coverage.py [PYTEST_ARGS...]``, from the root of
this checkout, e.g. ``python tools/line_coverage.py -q``.
"""

import ast
import atexit
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secrecylab"
#: The environment variable that hands a child process this file, the
#: package directory and the directory its lines go to.
_ENV = "SECRECYLAB_LINE_COVERAGE"
_SITECUSTOMIZE = f"""\
import importlib.util, json, os
_tool, _package, _out = json.loads(os.environ[{_ENV!r}])
_spec = importlib.util.spec_from_file_location("_line_coverage", _tool)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.trace_process(_package, _out)
"""


def _tracer(package):
    """A trace function that records the lines run in the files under
    ``package``, and the ``{real path: set of line numbers}`` it fills."""
    prefix = os.path.realpath(package) + os.sep
    ran, local_tracers = {}, {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_tracers:
            path = os.path.realpath(name)
            local_tracers[name] = (_line_tracer(ran.setdefault(path, set()).add)
                                   if path.startswith(prefix) else None)
        return local_tracers[name]

    return trace, ran


def _line_tracer(add):
    def trace_lines(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return trace_lines

    return trace_lines


def _start(trace, thread_trace):
    """Set ``trace`` on this thread and ``thread_trace`` on threads started from now on."""
    threading.settrace(thread_trace)
    sys.settrace(trace)


def trace_process(package, out):
    """Trace the rest of this process, and write the lines it ran in
    ``package``'s files to a new JSON file in ``out`` at exit."""
    trace, ran = _tracer(package)
    _start(trace, trace)
    atexit.register(_write_lines, ran, out)


def _write_lines(ran, out):
    fd, path = tempfile.mkstemp(suffix=".json", dir=out)
    with os.fdopen(fd, "w") as fh:
        json.dump({name: sorted(lines) for name, lines in ran.items()}, fh)


def run_traced(package, func):
    """``(func(), ran)``: ``ran`` maps the real path of each file under
    ``package`` that ran to the set of its lines run, in this process and in
    the Python processes it started."""
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "lines")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        saved = {key: os.environ.get(key) for key in ("PYTHONPATH", _ENV)}
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(site), saved["PYTHONPATH"])))
        os.environ[_ENV] = json.dumps([str(Path(__file__).resolve()), str(package), str(out)])
        trace, ran = _tracer(package)
        previous = sys.gettrace(), threading.gettrace()
        _start(trace, trace)
        try:
            result = func()
        finally:
            _start(*previous)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        for child in out.glob("*.json"):
            for name, lines in json.loads(child.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    return result, ran


def statements(source):
    """``(first line, last line)`` of each statement of a module's source."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return sorted((min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]),
                   node.end_lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node not in docstrings)


def unrun(package, ran):
    """``(path, line, source line)`` of each statement of each module in
    ``package`` of which no line is in ``ran``, in file and line order."""
    missed = []
    for path in sorted(Path(package).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, texts = ran.get(os.path.realpath(path), set()), source.splitlines()
        missed += [(path, first, texts[first - 1].strip())
                   for first, last in statements(source)
                   if lines.isdisjoint(range(first, last + 1))]
    return missed


def main(argv):
    import pytest

    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code, ran = run_traced(PACKAGE, lambda: pytest.main(argv))
    missed = unrun(PACKAGE, ran)
    root = PACKAGE.parent.parent
    for path, line, text in missed:
        print(f"{path.relative_to(root)}:{line}: {text}")
    print(f"statements never run: {len(missed)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
