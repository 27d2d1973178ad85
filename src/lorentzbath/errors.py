"""Exception types, and the input guards that raise them, in scalar Python:
the rate, non-negative and order guards, the coupling guard behind
``ModelParams`` and every xi grid, and the time-grid guard behind every oracle
and tau grid.  The grid guards return tuples; an oracle makes one an array
where it needs it.  ``_Record`` is the base of every record type.
"""
import math
from operator import lt

MAX_XI = 1e150  # (xi - 1)*(xi + 1) overflows above ~1.3e154


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class InvariantError(ValueError):
    """A state object violates one of its structural invariants."""


class FormError(InvariantError):
    """A density matrix is outside the structural form a shortcut relies on."""


class IntegrationError(RuntimeError):
    """An oracle produced samples outside its accuracy budget."""


class EigensolverError(RuntimeError):
    """An eigenvalue routine failed; the offending matrix is in the message."""


class TargetNotReachable(ValueError):
    """A requested coupling exceeds what the drive can produce.

    Carries ``max_xi``, the largest coupling ratio achievable for the
    given drive parameters.
    """

    def __init__(self, message: str, max_xi: float):
        super().__init__(message)
        self.max_xi = max_xi

    def __reduce__(self):
        # the default rebuilds from self.args alone, which lacks max_xi; the
        # state dict carries max_xi and any notes across a process pool
        return type(self), (self.args[0], self.max_xi), self.__dict__


class _Record:
    """Base of the frozen records.  A subclass's own annotations, in order, name
    its fields (``__match_args__``), and a class attribute of a field's name is
    its default.  ``__init__`` binds its arguments as a function of the fields
    would, then runs ``self.__post_init__()``, where only ``object.__setattr__``
    can still set an attribute.  Instances compare and hash by their fields;
    the class keyword ``hide`` leaves fields out of the repr."""

    def __init_subclass__(cls, hide=()):
        super().__init_subclass__()
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls._shown = tuple(n for n in names if n not in hide)

    def __init__(self, *args, **kwargs):
        names, rest = self.__match_args__, self.__match_args__[len(args):]
        if len(args) > len(names) or kwargs.keys() - set(rest):
            raise TypeError(f"{type(self).__qualname__} takes the fields {names}, got "
                            f"{len(args)} positional and the keywords {tuple(kwargs)}")
        try:
            args += tuple(kwargs[n] if n in kwargs else self._defaults[n] for n in rest)
        except KeyError as e:
            raise TypeError(f"{type(self).__qualname__} missing the field {e}") from None
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({shown})"


_TEXT = (str, bytes, bytearray)


def _number(value) -> float:
    """``float(value)`` for a number; text and ``bool``, which ``float`` would take, raise."""
    if isinstance(value, (*_TEXT, bool)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _finite(value) -> float:
    """``_number(value)`` if that is finite, else NaN, which fails every comparison."""
    try:
        x = _number(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the float range
        return math.nan
    return x if math.isfinite(x) else math.nan


def _positive(name: str, value) -> None:
    """The rate guard: ``value`` is a finite number above zero."""
    if not _finite(value) > 0:
        raise DomainError(f"{name} must be positive, got {value!r:.200}")


def _non_negative(name: str, value) -> None:
    """The amplitude guard: ``value`` is a finite number not below zero."""
    if not _finite(value) >= 0:
        raise DomainError(f"{name} must be non-negative, got {value!r:.200}")


def _order(name: str, n, top: int) -> None:
    """The order guard: ``n`` is an ``int``, not a ``bool``, in [0, ``top``]."""
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= top:
        raise DomainError(f"{name} must be an integer in [0, {top}], got {n!r}")


def _grid(values, what: str) -> tuple:
    """A finite, non-empty, strictly increasing 1-d sequence of numbers as a tuple of floats."""
    try:
        flat = getattr(values, "ndim", 1) == 1 and not isinstance(values, _TEXT)
        grid = tuple(map(_finite, values)) if flat else ()
    except TypeError:  # not iterable
        grid = ()
    if not grid or not all(map(math.isfinite, grid)):
        raise DomainError(f"{what} must be a finite non-empty 1-d array, got {values!r:.200}")
    if not all(map(lt, grid, grid[1:])):
        raise DomainError(f"{what} must be strictly increasing")
    return grid


def _xi_values(xi_values) -> tuple:
    """The coupling guard: a grid of ratios in (0, MAX_XI]."""
    xi = _grid(xi_values, "xi values")
    if not (xi[0] > 0.0 and xi[-1] <= MAX_XI):
        raise DomainError(f"xi values must lie in (0, {MAX_XI:g}], got {xi[0]} to {xi[-1]}")
    return xi


def _sample_times(taus) -> tuple:
    """The time-grid guard: a grid of times >= 0.  An oracle runs to the last
    sample, so these checks also cover its horizon."""
    samples = _grid(taus, "sample times")
    if samples[0] < 0:
        raise DomainError(f"sample times must be >= 0, got {samples[0]}")
    return samples
