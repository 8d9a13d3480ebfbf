"""Library code leaves the process alone and stays apart from the benchmark.

Every module under `src/flowsr` is parsed, not imported, and must not touch
the environment (`os.environ`, `os.getenv`, `os.putenv`, `os.unsetenv`),
set BLAS threads through `threadpoolctl`, or import perfbench, whose
tracer (`bench`, `tracing`, `workloads`) wraps the library from outside.
Callers choose threads and environment; a library that sets them would
change every caller's process.

Some rules have one owner each. Only `tasks.py` calls `prepend_tse_prompt`:
every other module builds a speaker-extraction condition or target through
`tasks.build_condition`, so the prompt rule is written once. Only
`spectral.py` uses numpy's or scipy's FFT, so the transforms, and the
framing and overlap-add that make `istft` invert `stft`, are written once.
Only `training.py` reads or writes `.npz` archives (`numpy.load`,
`numpy.savez`, `numpy.savez_compressed`), so the checkpoint format is one
module's decision.

Only `spectral.py` knows the feature layout (how compressed bins are packed
into real channels): every other module imports from it only the frontend's
two configs (`StftParams`, `CompressionParams`), its two pipeline functions
(`features_from_audio`, `audio_from_features`) and `stft`, and never the
module itself.

No module uses `scipy.signal`: numpy writes the Hann window (`spectral`) and
the windowed-sinc lowpass (`tasks.lowpass_taps`) in scipy's own arithmetic,
and importing `scipy.signal` cost about a second of every command's start.
No module uses `scipy.io` either: the stdlib `wave` reads and writes the
16-bit mono WAVs (`audio`), and `scipy.io` imported `scipy.io.matlab` and
`scipy.sparse` for them. A fresh `import flowsr, flowsr.harness` must leave
both out of `sys.modules`, which also catches an import through another
package.

`vectorfield.py` computes in its parameters' dtype, so every `np.empty`,
`np.zeros` and `np.ones` call there names its dtype: a bare one makes a
float64 array, which silently promotes a float32 field back to float64.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flowsr"
ENVIRONMENT = {"environ", "getenv", "putenv", "unsetenv"}
FORBIDDEN_MODULES = {"threadpoolctl", "perfbench", "bench", "tracing", "workloads"}
FFT_MODULES = {"numpy.fft", "scipy.fft", "scipy.fftpack"}
ARCHIVE_FUNCTIONS = {"numpy.load", "numpy.savez", "numpy.savez_compressed"}
SIGNAL_MODULES = {"scipy.signal"}
UNUSED_MODULES = ["scipy.signal", "scipy.io"]
ALLOCATORS = {"empty", "zeros", "ones"}
SPECTRAL_API = {"StftParams", "CompressionParams", "features_from_audio",
                "audio_from_features", "stft"}


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


def prompt_calls(source):
    """Lines of Python `source` that call `prepend_tse_prompt`, by bare name
    or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "prepend_tse_prompt"]


def module_uses(source, modules):
    """Lines of Python `source` that import one of `modules` of numpy or
    scipy, or reach one as an attribute of numpy or scipy under any name."""
    tree = ast.parse(source)
    packages = {"np": "numpy", "numpy": "numpy", "scipy": "scipy"}
    packages.update((alias.asname, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names
                    if alias.asname and alias.name in ("numpy", "scipy"))
    is_used = lambda module: any(module == m or module.startswith(m + ".")
                                for m in modules)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if is_used(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.lineno for alias in node.names
                      if is_used(node.module) or is_used(f"{node.module}.{alias.name}")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in packages
              and is_used(f"{packages[node.value.id]}.{node.attr}")):
            found.append(node.lineno)
    return found


def untyped_allocations(source):
    """Lines of Python `source` that call `empty`, `zeros` or `ones` of
    numpy, as an attribute of `np` or `numpy`, without a dtype keyword."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ALLOCATORS and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any(keyword.arg == "dtype" for keyword in node.keywords)]


def spectral_imports(source):
    """(line, name) for each name Python `source` imports from the package's
    `spectral` module beyond SPECTRAL_API; importing the module itself is
    named `spectral`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".spectral", "flowsr.spectral"):
                found += [(node.lineno, alias.name) for alias in node.names
                          if alias.name not in SPECTRAL_API]
            elif module in (".", "flowsr"):
                found += [(node.lineno, "spectral") for alias in node.names
                          if alias.name == "spectral"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "spectral") for alias in node.names
                      if alias.name == "flowsr.spectral"]
    return found


def test_library_modules_follow_the_rules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    broken = {path.name: violations(path.read_text()) for path in modules}
    assert {name: found for name, found in broken.items() if found} == {}


def test_only_tasks_prepends_the_extraction_prompt():
    calls = {path.name: prompt_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert calls.pop("tasks.py")
    assert {name: lines for name, lines in calls.items() if lines} == {}


@pytest.mark.parametrize("owner, modules", [("spectral.py", FFT_MODULES),
                                            ("training.py", ARCHIVE_FUNCTIONS)],
                         ids=["spectral-fft", "training-npz"])
def test_only_the_owner_uses(owner, modules):
    uses = {path.name: module_uses(path.read_text(), modules)
            for path in sorted(SRC.glob("*.py"))}
    assert uses.pop(owner)
    assert {name: lines for name, lines in uses.items() if lines} == {}


@pytest.mark.parametrize("module", UNUSED_MODULES)
def test_no_module_uses(module):
    uses = {path.name: module_uses(path.read_text(), {module})
            for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in uses.items() if lines} == {}


@pytest.mark.parametrize("module", UNUSED_MODULES)
def test_importing_the_library_leaves_out(module):
    code = f"import sys, flowsr, flowsr.harness; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_only_spectral_knows_the_feature_layout():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    sources.pop("spectral.py")
    assert sum("from .spectral import" in source for source in sources.values()) >= 5
    imports = {name: spectral_imports(source) for name, source in sources.items()}
    assert {name: found for name, found in imports.items() if found} == {}


@pytest.mark.parametrize("source, found", [
    ("from .spectral import istft", [(1, "istft")]),
    ("from .spectral import StftParams, _compress_in_place", [(1, "_compress_in_place")]),
    ("x = 1\nfrom flowsr.spectral import stft, istft", [(2, "istft")]),
    ("from . import spectral", [(1, "spectral")]),
    ("from flowsr import spectral, tasks", [(1, "spectral")]),
    ("import flowsr.spectral", [(1, "spectral")]),
    ("from .spectral import (CompressionParams, StftParams, audio_from_features,\n"
     "                       features_from_audio, stft)", []),
    ("from .tasks import istft", []),
])
def test_spectral_imports_are_detected(source, found):
    assert spectral_imports(source) == found


def test_vectorfield_allocations_name_their_dtype():
    source = (SRC / "vectorfield.py").read_text()
    assert "np.empty(" in source and "np.zeros(" in source
    assert untyped_allocations(source) == []


@pytest.mark.parametrize("source, lines", [
    ("ctx = np.empty((2, 3))", [1]),
    ("dk = numpy.zeros(shape)", [1]),
    ("a = np.ones(4, np.float32)", [1]),
    ("x = 1\ny = np.zeros(shape, order='F')", [2]),
    ("ctx = np.empty((2, 3), dtype=q.dtype)", []),
    ("dk = np.zeros_like(dq)", []),
    ("ones = np.ones(3, dtype=np.float64)", []),
])
def test_untyped_allocations_are_detected(source, lines):
    assert untyped_allocations(source) == lines


@pytest.mark.parametrize("source", [
    "spec = np.fft.rfft(frames)",
    "spec = numpy.fft.rfft(frames)",
    "import numpy as xp\nspec = xp.fft.rfft(frames)",
    "import scipy as sp\nspec = sp.fftpack.fft(frames)",
    "spec = scipy.fft.rfft(frames)",
    "import numpy.fft",
    "import scipy.fft as sfft",
    "from numpy import fft",
    "from numpy.fft import irfft",
    "from scipy import fft",
    "from scipy.fft import rfft",
    "from scipy.fftpack import fft",
])
def test_fft_uses_are_detected(source):
    assert module_uses(source, FFT_MODULES)


@pytest.mark.parametrize("source", [
    "import scipy.signal",
    "import scipy.signal as ss",
    "from scipy.signal import firwin",
    "from scipy import signal",
    "import scipy\ntaps = scipy.signal.firwin(65, 0.5)",
])
def test_scipy_signal_uses_are_detected(source):
    assert module_uses(source, SIGNAL_MODULES)


@pytest.mark.parametrize("source", [
    "with np.load(path) as data:\n    pass",
    "import numpy as xp\nxp.savez(path, **arrays)",
    "numpy.savez_compressed(path, a=a)",
    "from numpy import load",
])
def test_archive_uses_are_detected(source):
    assert module_uses(source, ARCHIVE_FUNCTIONS)


@pytest.mark.parametrize("source", [
    "from numpy.lib.stride_tricks import sliding_window_view",
    "from scipy.signal import get_window",
    "import numpy as np\nmag = np.abs(spec.fft)",
])
def test_other_numpy_and_scipy_uses_pass(source):
    assert not module_uses(source, FFT_MODULES)


@pytest.mark.parametrize("source", [
    "target = prepend_tse_prompt(clean, reference)",
    "target = tasks.prepend_tse_prompt(clean, reference)",
])
def test_prompt_calls_are_detected(source):
    assert prompt_calls(source)


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
