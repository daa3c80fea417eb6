"""Exception types shared across the package."""


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
