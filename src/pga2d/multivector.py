"""The value base of every module: the tolerance rule, the frozen value class
and the overflow check.  The 8-slot kernel lives in :mod:`pga2d.kernel`; of its
names this module answers only Multivector, loaded on first read, which pickles
made before the kernel moved still name as pga2d.multivector.Multivector."""

import math

from .errors import DomainError

DEFAULT_TOL = 1e-9


def near_zero(value: float, scale: float, tol: float) -> bool:
    """The package's one tolerance rule: value counts as zero when
    |value| <= tol * scale.

    Every zero test and every euclidean/ideal decision goes through here.
    scale is the size of the operands that produced value (for example the
    largest coefficient of each factor of a product, or 1 for a sine of two
    normalized lines), so a decision does not change when a figure is moved
    or uniformly scaled.  With tol = 0 only an exact zero counts.
    """
    return abs(value) <= tol * scale


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in the order of its
    constructor's parameters, and its ``__init__`` sets each one once with
    the slot's own setter, ``getattr(cls, name).__set__`` (Line and Point in
    ``elements._init3``, Motor and OddVersor in ``isometry._init4``).  ``_key()``
    is the tuple of every field in slot order.  Two values are equal when they
    are of the same class and their keys are equal, and then they hash alike.
    Pickle and copy rebuild a value by calling its constructor with its key, so
    a restored value has passed the same checks as the original.  The repr is
    ``Name(f, ...)``, each field formatted with ``g``.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        """The fields that == and hash() compare: all of them, in slot order."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self) -> str:
        fields = ", ".join([format(getattr(self, name), "g") for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


def _finite(values: tuple[float, ...]) -> tuple[float, ...]:
    """values; DomainError unless all are finite.  The one overflow check: every
    constructor calls it on its fields, and the kernel on its products.

    Finite operands yield inf or nan only by overflow (or through a non-finite
    scale factor).  A finite sum proves every value finite, so the one-by-one
    test runs only when the sum is not (Line, Point, Motor and OddVersor test
    it inline in _init3 and _init4): a value overflowed, or only the sum did."""
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise DomainError("result is not finite (coefficient overflow or non-finite factor)")
    return values


def __getattr__(name: str):
    """Multivector, loading the kernel on its first read."""
    if name != "Multivector":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .kernel import Multivector

    globals()[name] = Multivector
    return Multivector
