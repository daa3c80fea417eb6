"""Exception types shared across the package, and its argument contract.

``_as_count`` and ``_as_fraction`` check each count and probability that a
public function takes and return it as a Python int or float.
"""

import numbers


class BoxError(ValueError):
    """Base class for invalid correlation data."""


class NotNormalized(BoxError):
    """A distribution does not sum to one within tolerance."""


class NegativeProbability(BoxError):
    """A probability entry is below zero beyond tolerance."""


class Signaling(BoxError):
    """A marginal depends on the remote party's input.

    Attributes
    ----------
    party : str
        "alice" or "bob", whichever marginal is input-dependent.
    setting : int
        The local setting whose marginal changes with the remote input.
    """

    def __init__(self, party: str, setting: int, deviation: float):
        self.party = party
        self.setting = setting
        self.deviation = deviation
        super().__init__(
            f"{party} marginal for setting {setting} depends on the remote "
            f"input (max deviation {deviation:.3e})"
        )


class Infeasible(ValueError):
    """A target is not a convex mixture of no-signaling vertices."""


class DomainError(ValueError):
    """An argument lies outside the function's domain."""


class EmptyInput(ValueError):
    """An estimator received no data."""


def _as_count(name: str, value, least: int) -> int:
    """int(value) for an integer (numpy's too, not a bool) of at least ``least``; else DomainError."""
    if type(value) is int and value >= least:  # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} {value!r} must be an integer")
    if value < least:
        raise DomainError(f"{name} {value!r} must be at least {least}")
    return int(value)


def _as_fraction(name: str, value, hi: float = 1.0) -> float:
    """float(value) for a real number (numpy's too, not a bool) in [0, hi], -0 as +0; else DomainError."""
    if type(value) is float and 0.0 <= value <= hi:  # the common case, without the ABC check
        return value + 0.0
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= hi:
        raise DomainError(f"{name} {value!r} outside [0, {hi:g}]")
    return float(value) + 0.0  # -0.0 + 0.0 is +0.0
