"""Exception types shared across the package."""


class CstarlabError(Exception):
    """Base class for all errors raised by cstarlab."""


class InputError(CstarlabError):
    """Malformed user input: bad files, bad labels, shape violations."""


class DimensionMismatchError(InputError):
    """Operands have incompatible dimensions."""


class HermitianDefectError(InputError):
    """A matrix fails the self-adjointness check at construction."""


class DomainError(CstarlabError):
    """An eigenvalue falls outside the domain of a scalar function."""

    def __init__(self, eigenvalue, interval, label=""):
        self.eigenvalue = eigenvalue
        self.interval = interval
        msg = f"eigenvalue {eigenvalue!r} outside domain {interval}"
        if label:
            msg += f" of {label!r}"
        super().__init__(msg)


class NonPositiveError(CstarlabError):
    """An operand required to be strictly positive is not."""


class UnboundedIntervalError(CstarlabError):
    """Sampling from an unbounded interval without a scale override."""


class NumericalError(CstarlabError):
    """A numerical routine failed to converge or produced unusable output."""
