"""Exception types shared across the package."""


class InvalidDynkinSpec(Exception):
    pass


class InvalidParams(Exception):
    pass


class InfiniteDimensional(Exception):
    pass


class Truncated(Exception):
    """A resolution exceeded its length budget; in-scope algebras all have
    finite global dimension, so hitting this indicates a bug or an
    out-of-scope input."""

    def __init__(self, max_len):
        super().__init__("resolution exceeded max_len=%d" % max_len)
        self.max_len = max_len


class NonSchurianVertex(Exception):
    pass


class DecompositionFailed(Exception):
    pass


class BudgetExceeded(Exception):
    pass


class NotHereditary(Exception):
    pass


class NotRepFinite(Exception):
    pass


class NotClusterTilting(Exception):
    pass


class GldimTooBig(Exception):
    pass


class NotComposable(Exception):
    pass


class OrbitDiverges(Exception):
    pass


class NoApproximation(Exception):
    pass
