"""Exception types shared across the package."""


class BoxatomError(Exception):
    """Base class for all package errors."""


class ValidationError(BoxatomError):
    """Invalid user input or violated precondition."""


class UnsupportedModeError(BoxatomError):
    """A mode beyond what is served: s-wave integrals and radial modes, l <= 1 energies, ground occupations."""


class ConvergenceError(BoxatomError):
    """A numerical result failed its internal accuracy check."""
