"""Every name the benchmark's tracer patches still resolves in the package.

``perfbench/tracing.py`` wraps functions by module and attribute name; a
refactor that drops or renames one makes ``perfbench/run.py --trace 1``
crash.  The tracer is loaded from its file, unchanged, and only read.
"""
import importlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracing()
# the spans, the leaves, and the validator hook that install() patches on the class
TRACED = sorted(
    {*_T.SPANS, *(f"{m}.{a}" for m, a in _T.LEAVES.values()), "model.DensityMatrix3.__post_init__"}
)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"lorentzbath.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_tracer_installs_over_lazily_loaded_modules():
    # after `import lorentzbath.cli` most package modules have not run yet;
    # install() must still find every traced function and uninstall() must
    # put each original back
    probe = """
import importlib.util, sys, types
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
T = importlib.util.module_from_spec(spec)
spec.loader.exec_module(T)
import lorentzbath.cli
pending = [m for m, mod in sys.modules.items()
           if m.startswith("lorentzbath.") and type(mod) is not types.ModuleType]
tracer = T.Tracer()
tracer.install()
traced = [*(n.split(".") for n in T.SPANS), *T.LEAVES.values()]
unbound = [f"{m}.{a}" for m, a in traced if f"lorentzbath.{m}.{a}" not in tracer.bindings]
patches = list(tracer._patches)
tracer.uninstall()
restored = all(getattr(owner, key) is original for owner, key, original in patches)
own = all(getattr(sys.modules["lorentzbath." + m], a).__qualname__ == a for m, a in traced)
print(len(pending) > 0, unbound, restored, own)
"""
    proc = subprocess.run([sys.executable, "-c", probe, str(TRACING)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "[]", "True", "True"]


def test_tracer_counts_the_oracle_samples():
    # the tracer reads the sample count off each trajectory and the mode
    # count off the bath handed to multimode.evolve
    probe = """
import importlib.util, sys
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
T = importlib.util.module_from_spec(spec)
spec.loader.exec_module(T)
import lorentzbath.cli  # install() patches cli.main too
from lorentzbath import sweep
tracer = T.Tracer()
tracer.install()
taus = np.linspace(0.0, 2.0, 9)
sweep.evaluate("lindblad", 2.0, taus)
sweep.evaluate("multimode", 2.0, taus, 201, 20.0)
tracer.uninstall()
print(len(taus), tracer.counts["lindblad.samples"], tracer.counts["multimode.mode_samples"])
"""
    proc = subprocess.run([sys.executable, "-c", probe, str(TRACING)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    n, samples, mode_samples = map(int, proc.stdout.split())
    assert samples == n
    assert mode_samples == 201 * n
