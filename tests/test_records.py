"""The frozen records: every class built on ``errors._Record``, one valid
instance each.  The expected reprs are those the classes had as frozen
dataclasses; the field names are each class's ``__match_args__``."""
import copy
import pickle

import numpy as np
import pytest

from lorentzbath import analytic, battery, lindblad, model, multimode, sideband, sweep
from lorentzbath.errors import _Record

_ROW = ((1 + 0j, 0j, 0j), (0j, 0j, 0j), (0j, 0j, 0j))

# class, positional arguments, keyword arguments, repr; a field left out takes its default
CASES = [
    (analytic.OptimumRecord, (1.0, 0.5, 0.25), {},
     "OptimumRecord(xi=1.0, tau_opt=0.5, c_max=0.25)"),
    (lindblad.LindbladTrajectory, ((0.0,), (_ROW,)), {"solver": {"propagators": 1}},
     "LindbladTrajectory(taus=(0.0,), rho=((((1+0j), 0j, 0j), (0j, 0j, 0j), (0j, 0j, 0j)),), "
     "solver={'propagators': 1})"),
    (model.ModelParams, (), {"xi": 2.0}, "ModelParams(xi=2.0)"),
    (model.PureAmplitudes, (0.6, 0.8j), {}, "PureAmplitudes(c_e0=0.6, c_g1=0.8j)"),
    (model.DensityMatrix3, (((0.5, 0, 0), (0, 0.5, 0), (0, 0, 0)),), {}, "DensityMatrix3()"),
    (multimode.DiscretizedBath, (np.array([-1.0, 0.0, 1.0]), np.full(3, 0.5)), {},
     "DiscretizedBath(detunings=array([-1.,  0.,  1.]), couplings=array([0.5, 0.5, 0.5]))"),
    (multimode.MultimodeTrajectory,
     (np.zeros(1), np.ones(1, complex), np.zeros(2, complex), {"terms": 3}), {},
     "MultimodeTrajectory(taus=array([0.]), c_e=array([1.+0.j]), c_k=array([0.+0.j, 0.+0.j]), "
     "solver={'terms': 3})"),
    (sideband.SidebandConfig, (), {"g": 1.0, "epsilon": 0.5, "nu": 2.0, "n": 1},
     "SidebandConfig(g=1.0, epsilon=0.5, nu=2.0, n=1)"),
    (sweep.SweepGrid, ((0.5, 2.0), (0.0, 1.0), "analytic"), {},
     "SweepGrid(xi_values=(0.5, 2.0), tau_values=(0.0, 1.0), method='analytic', "
     "xi_spacing='custom', tau_spacing='custom')"),
    (sweep.SweepResult, ((0.25,), {"a": 1}), {}, "SweepResult(concurrence=(0.25,), metadata={'a': 1})"),
    (sweep.CmaxCurve, ((1.0,), (0.5,), (0.25,), (0.125,), (), {"b": 2}), {},
     "CmaxCurve(xi=(1.0,), tau_opt=(0.5,), c_max=(0.25,), derivative=(0.125,), violations=(), "
     "metadata={'b': 2})"),
    (battery.CheckResult, ("row", 1.0, 0.5), {},
     "CheckResult(name='row', budget=1.0, measured=0.5, detail='', floor=False)"),
    (battery.VerificationReport, ((battery.CheckResult("row", 1.0, 0.5, floor=True),), {"c": 3}), {},
     "VerificationReport(checks=(CheckResult(name='row', budget=1.0, measured=0.5, detail='', "
     "floor=True),), metadata={'c': 3})"),
]
HASHABLE = {"OptimumRecord", "DensityMatrix3", "ModelParams", "PureAmplitudes", "SidebandConfig",
            "SweepGrid", "CheckResult"}

records = pytest.mark.parametrize("cls, args, kwargs, text", CASES,
                                  ids=[c[0].__name__ for c in CASES])


class _Unequal:
    """Equal to nothing; numpy defers its comparisons to it."""
    __array_ufunc__ = None
    __hash__ = None

    def __eq__(self, other):
        return False


def test_every_record_class_is_covered():
    def subclasses(cls):
        return {cls, *(s for sub in cls.__subclasses__() for s in subclasses(sub))}
    assert subclasses(_Record) - {_Record} == {c[0] for c in CASES}


@records
def test_frozen(cls, args, kwargs, text):
    rec = cls(*args, **kwargs)
    for name in (*cls.__match_args__, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == text


@records
def test_equality_and_hash_go_by_the_fields(cls, args, kwargs, text):
    rec = cls(*args, **kwargs)
    key = tuple(getattr(rec, n) for n in cls.__match_args__)
    assert rec == copy.copy(rec) and rec.__eq__(key) is NotImplemented
    for name in cls.__match_args__:
        twin = copy.copy(rec)
        object.__setattr__(twin, name, _Unequal())
        assert rec != twin and twin != rec
    if cls.__name__ in HASHABLE:
        assert hash(rec) == hash(copy.copy(rec)) == hash(key)
    else:  # a dict or an array among the fields
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)


@records
def test_repr_survives_pickling(cls, args, kwargs, text):
    assert repr(pickle.loads(pickle.dumps(cls(*args, **kwargs)))) == text


@records
def test_defaults_apply(cls, args, kwargs, text):
    rec = cls(*args, **kwargs)
    omitted = [n for n in cls.__match_args__[len(args):] if n not in kwargs]
    assert all(getattr(rec, n) == getattr(cls, n) for n in omitted)
    if omitted:
        assert cls(*args, **kwargs, **{n: getattr(rec, n) for n in omitted}) == rec


def test_a_default_can_be_overridden():
    assert battery.CheckResult("row", 1.0, 2.0, floor=True).passed
    assert sweep.SweepGrid((1.0,), (0.0,), "analytic", "log").xi_spacing == "log"


@records
def test_bad_arguments_raise_type_error(cls, args, kwargs, text):
    rec = cls(*args, **kwargs)
    everything = [getattr(rec, n) for n in cls.__match_args__]
    first = cls.__match_args__[0]
    with pytest.raises(TypeError):
        cls(*everything, None)  # one positional too many
    with pytest.raises(TypeError):
        cls(*args, **kwargs, unknown=None)
    with pytest.raises(TypeError):
        cls(everything[0], **{first: everything[0]})  # given twice
    with pytest.raises(TypeError):
        cls()  # a field without default is missing


@records
def test_a_post_init_patched_on_the_class_runs(cls, args, kwargs, text, monkeypatch):
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self))
    rec = cls(*args, **kwargs)
    assert len(seen) == 1 and seen[0] is rec


def test_min_eigenvalue_is_derived_not_a_field():
    rho = model.DensityMatrix3(((0.5, 0, 0), (0, 0.5, 0), (0, 0, 0)))
    assert rho.min_eigenvalue == 0.0 and model.DensityMatrix3.__match_args__ == ("matrix",)
    twin = copy.copy(rho)
    object.__setattr__(twin, "min_eigenvalue", -1.0)
    assert twin == rho
