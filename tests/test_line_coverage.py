"""The statement tracer in ``tools/line_coverage.py``."""

import importlib.util
import os
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"

SOURCE = '''"""A module with two functions."""

import functools


@functools.lru_cache
def one(x):
    """Docstring."""
    if x:
        return 1
    return 0


def two():
    return (2
            + 2)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_module(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    (package / "twofuncs.py").write_text(SOURCE)
    return package


def call_in_process(package, body):
    """Import ``twofuncs`` from ``package`` here and run ``body`` on it."""
    sys.path.insert(0, str(package))
    try:
        body(importlib.import_module("twofuncs"))
    finally:
        sys.path.remove(str(package))
        sys.modules.pop("twofuncs", None)


def missed_lines(tool, package, func):
    result, ran = tool.run_traced(package, func)
    assert result is None
    return [(path.name, line, text) for path, line, text in tool.unrun(package, ran)]


def test_statements_start_at_decorators_and_skip_docstrings():
    tool = load_tool()
    # import, the decorated def, if, both returns, def two and its two-line return.
    assert tool.statements(SOURCE) == [(3, 3), (6, 11), (9, 10), (10, 10), (11, 11),
                                       (14, 16), (15, 16)]


def test_lists_the_statements_no_call_ran(tmp_path):
    tool = load_tool()
    package = write_module(tmp_path)
    missed = missed_lines(tool, package, lambda: call_in_process(package, lambda m: m.one(1)))
    assert missed == [("twofuncs.py", 11, "return 0"), ("twofuncs.py", 15, "return (2")]


def test_traces_python_subprocesses(tmp_path):
    tool = load_tool()
    package = write_module(tmp_path)

    def run():
        call_in_process(package, lambda m: m.one(0))
        proc = subprocess.run([sys.executable, "-c", "import twofuncs; twofuncs.two()"],
                              cwd=package, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    missed = missed_lines(tool, package, run)
    assert missed == [("twofuncs.py", 10, "return 1")]


def test_restores_the_tracer_and_environment(tmp_path):
    tool = load_tool()
    package = write_module(tmp_path)
    before = sys.gettrace(), dict(os.environ)
    missed_lines(tool, package, lambda: None)
    assert (sys.gettrace(), dict(os.environ)) == before


def test_runs_the_tests_without_pythonpath():
    """The tool puts the checkout's ``src`` on the path itself, for pytest and its children."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
                           "tests/test_errors.py"],
                          cwd=TOOL.parent.parent, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
