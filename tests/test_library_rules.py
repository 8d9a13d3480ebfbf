"""Library code leaves the process alone and stays apart from the benchmark.

Every module under `src/flowsr` is parsed, not imported, and must not touch
the environment (`os.environ`, `os.getenv`, `os.putenv`, `os.unsetenv`),
set BLAS threads through `threadpoolctl`, or import perfbench, whose
tracer (`bench`, `tracing`, `workloads`) wraps the library from outside.
Callers choose threads and environment; a library that sets them would
change every caller's process.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flowsr"
ENVIRONMENT = {"environ", "getenv", "putenv", "unsetenv"}
FORBIDDEN_MODULES = {"threadpoolctl", "perfbench", "bench", "tracing", "workloads"}


def violations(source):
    """(line, what) for each rule broken in Python `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
            if node.module == "os":
                found += [(node.lineno, f"os.{alias.name}") for alias in node.names
                          if alias.name in ENVIRONMENT]
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
            continue
        else:
            continue
        found += [(node.lineno, f"import {module}") for module in modules
                  if module.split(".")[0] in FORBIDDEN_MODULES]
    return found


def test_library_modules_follow_the_rules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    broken = {path.name: violations(path.read_text()) for path in modules}
    assert {name: found for name, found in broken.items() if found} == {}


@pytest.mark.parametrize("source", [
    "import os\nos.environ['OMP_NUM_THREADS'] = '1'",
    "import os\nthreads = os.getenv('OMP_NUM_THREADS')",
    "from os import environ",
    "import threadpoolctl",
    "from threadpoolctl import threadpool_limits",
    "import tracing",
    "from bench import run",
    "from workloads import TRACE_TARGETS",
    "from perfbench.tracing import Tracer",
])
def test_each_rule_is_detected(source):
    assert violations(source)
