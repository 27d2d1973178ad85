"""Every name the benchmark's tracer patches still resolves in the package.

``perfbench/tracing.py`` wraps functions by module and attribute name; a
refactor that drops or renames one makes ``perfbench/run.py --trace 1``
crash.  The tracer is loaded from its file, unchanged, and only read.
"""
import importlib
import importlib.util
import pathlib

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
