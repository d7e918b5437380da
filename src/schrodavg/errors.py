"""Exception taxonomy for the package."""


class SchrodavgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SchrodavgError, ValueError):
    """An argument violates a documented precondition."""


class NumericError(SchrodavgError):
    """A linear solve or other numeric kernel failed unexpectedly."""


class IllPosedError(SchrodavgError):
    """Inversion refused: the weight exponent has zero real part."""


class DegenerateModeError(SchrodavgError):
    """Inversion refused: some averaging factors are numerically zero.

    Carries the offending 1-based mode indices in ``modes`` and the magnitude
    threshold that triggered the refusal in ``threshold``.
    """

    def __init__(self, modes, threshold):
        self.modes = [int(k) for k in modes]
        self.threshold = float(threshold)
        listed = ", ".join(str(k) for k in self.modes)
        super().__init__(
            f"|zeta| <= {self.threshold:.3e} for mode(s) {listed}; "
            "division would amplify rounding noise without bound"
        )
