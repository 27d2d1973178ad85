"""The package's public surface, each name served from its defining module.

``lorentzbath`` registers its submodules lazily and serves the public names
on first access, so every check runs in a fresh interpreter, where nothing
has run yet.
"""
import json
import pathlib
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# defining module -> public names, in the order of lorentzbath.__all__
EXPORTS = {
    "_version": ("SCHEMA_VERSION", "__version__"),
    "analytic": ("OptimumRecord", "amplitudes", "c_max", "concurrence", "t_opt_formula"),
    "battery": ("CheckResult", "VerificationReport"),
    "entanglement": (),  # registered lazily, with no public name
    "errors": ("DomainError", "IntegrationError", "InvariantError", "TargetNotReachable"),
    "lindblad": ("LindbladTrajectory", "integrate", "rhs"),
    "model": ("DensityMatrix3", "ModelParams", "PureAmplitudes", "params_from_physical",
              "pure_to_density", "tau_from_time", "xstate_concurrence"),
    "multimode": ("DiscretizedBath", "MultimodeTrajectory", "collective_amplitude", "evolve",
                  "sample_bath"),
    "sideband": ("SidebandConfig", "bessel_jn", "effective_coupling", "solve_amplitude"),
    "sweep": ("CmaxCurve", "SweepGrid", "SweepResult", "cmax_curve", "heatmap", "verify"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def _fresh(code: str, *argv: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_binds_each_name_from_its_module():
    probe = """
import importlib, json, sys
ns = {}
exec("from lorentzbath import *", ns)
import lorentzbath
exports = json.loads(sys.argv[1])
foreign = [name for module, names in exports.items() for name in names
           if ns[name] is not getattr(importlib.import_module("lorentzbath." + module), name)]
try:
    lorentzbath.no_such_name
    missing = "served"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({"star": [k for k in ns if k != "__builtins__"], "foreign": foreign,
                  "dir": dir(lorentzbath), "missing": missing}))
"""
    out = json.loads(_fresh(probe, json.dumps(EXPORTS)))
    assert out["star"] == NAMES and len(NAMES) == 38
    assert out["foreign"] == []
    assert set(NAMES) <= set(out["dir"]) and set(EXPORTS) <= set(out["dir"])
    assert out["missing"] == "AttributeError"


def test_readme_library_example_runs():
    text = README.read_text()
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    assert example.startswith(
        "from lorentzbath import ModelParams, analytic, c_max, integrate, params_from_physical\n"
    )
    _fresh(example)
