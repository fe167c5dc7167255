"""Helpers shared by the test modules."""

import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

import secrecylab

# Every run draws the same examples and neither reads nor writes the local
# example database, so a result does not depend on what earlier runs stored.
settings.register_profile("deterministic", database=None, derandomize=True)
settings.load_profile("deterministic")

#: Runs code with numpy unimportable and the package's ``__init__`` not run:
#: a stub package whose path is ``sys.argv[1]`` stands in for it.  The code,
#: ``sys.argv[2]``, sets ``result``; prints its repr and the package modules
#: loaded.
NO_NUMPY = """
import json, sys, types
sys.modules["numpy"] = None
package = types.ModuleType("secrecylab")
package.__path__ = [sys.argv[1]]
sys.modules["secrecylab"] = package
namespace = {}
exec(sys.argv[2], namespace)
print(json.dumps([repr(namespace["result"]),
                  sorted(name for name in sys.modules if name.startswith("secrecylab"))]))
"""


def run_without_numpy(code):
    """The package modules that ``code`` loads in a process where numpy cannot be imported.

    Asserts that the ``result`` the code sets there has the repr that it has
    when the code runs here.
    """
    package = pathlib.Path(secrecylab.__file__).parent
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, str(package), code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result, modules = json.loads(proc.stdout)
    namespace = {}
    exec(code, namespace)
    assert result == repr(namespace["result"])
    return modules


@pytest.fixture
def without_numpy():
    """:func:`run_without_numpy`."""
    return run_without_numpy
