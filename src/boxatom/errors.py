"""Exception types shared across the package, and the one rule for the numbers and objects it takes.

This module owns the rule for every number a caller passes in (a mass, a
charge, a box size, a coupling, a charge Z, a grid entry, a mode number, an
nmax or a rule size); every other module checks them here. A real number
is anything float() takes except a boolean (Python's or numpy's), a str,
bytes or bytearray, or any other numpy value that is not an integer or a
float (a complex scalar, a string array), so numpy integers and floats are
accepted and a numeric string is not. An integer is a Python or numpy
integer, never a boolean, within the float range. A value that breaks the
rule is a one-line ValidationError.

An argument that must be an instance of a package class (a system, a set
of coefficients, a particle) is checked by `of_type`; a value
of another type is a one-line ValidationError that names both types.

`Record` is the base of the package's immutable records. It declares them
without generated code, so importing the package compiles no method.
"""

import contextlib
import math

import numpy as np


class BoxatomError(Exception):
    """Base class for all package errors."""


class ValidationError(BoxatomError):
    """Invalid user input or violated precondition."""


class UnsupportedModeError(BoxatomError):
    """A sphere mode beyond what `sphere` serves: radial modes for l = 0, zeros and energies for l <= 1."""


class ConvergenceError(BoxatomError):
    """A numerical result failed its internal accuracy check."""


class Record:
    """An immutable record whose fields are the names in its class's `__slots__`.

    `__init__` sets each field once; any later assignment or deletion is an
    AttributeError. Two records of the same class are equal, and hash alike,
    when their fields are, unless the class is declared with ``eq=False`` and
    keeps identity. A `__dict__` slot, for cached properties, is no field.
    The repr reads ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        if name not in self._fields or hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _float(value, must: str) -> float:
    """float(value) under the module's rule; a refused value is a ValidationError that `must` begins."""
    # float() takes a numpy complex (with a warning) and a numpy string; the dtype kind refuses both
    if (not isinstance(value, (bool, str, bytes, bytearray))
            and getattr(getattr(value, "dtype", None), "kind", "f") in "fiu"):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise ValidationError(f"{must}, got {value!r}")


def number(name: str, value) -> float:
    """`value` as a float, maybe not finite; anything else is a ValidationError that names it."""
    return _float(value, f"{name} must be a real number")


def real(name: str, value) -> float:
    """`value` as a finite float; anything else is a ValidationError that names it."""
    out = number(name, value)
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


def reals(name: str, values) -> np.ndarray:
    """A one-dimensional grid as a new float64 array; each entry is a real number, maybe not finite.

    A float or integer ndarray is converted in one step, since it can hold
    no boolean or string; any other iterable is checked value by value. The
    caller checks the range of each entry, in its own order.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "fiu":
        return values.astype(float)
    must = f"{name} must be real numbers"
    with contextlib.suppress(TypeError):  # `values` is not iterable
        return np.fromiter((_float(value, must) for value in values), dtype=float)
    raise ValidationError(f"{must}, got {values!r}")


def integer(name: str, value) -> int:
    """`value` as an int: a Python or numpy integer, not a boolean, that float() takes."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        _float(value, f"{name} must be an integer")  # refuses one beyond the float range
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def of_type(name: str, value, kind: type):
    """`value` itself if it is a `kind`; anything else is a ValidationError that names both."""
    if not isinstance(value, kind):
        from .system import DimensionlessSystem, SystemDefinition  # system imports this module

        hint = ("; nondimensionalize turns a SystemDefinition into one"
                if kind is DimensionlessSystem and isinstance(value, SystemDefinition) else "")
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}{hint}")
    return value
