"""Exception types shared across the package.

All derive from `AusglueError`, and each marks input outside what the
verifier covers or an exceeded limit, never a false claim: the CLI turns
any of them, like `OSError` and `ValueError`, into exit 2.
"""


class AusglueError(Exception):
    """Base class of every exception the package raises on purpose."""


class InvalidDynkinSpec(AusglueError):
    pass


class InvalidParams(AusglueError):
    pass


class InfiniteDimensional(AusglueError):
    pass


class Truncated(AusglueError):
    """A resolution exceeded its length budget.  gldim refuses a category
    that is not directed as NotDirected before building its coresolution
    table, and a directed one has finite global dimension, so hitting this
    indicates a bug or a module or table over an out-of-scope input."""

    def __init__(self, max_len):
        super().__init__("resolution exceeded max_len=%d" % max_len)
        self.max_len = max_len


class NonSchurianVertex(AusglueError):
    pass


class NotHereditary(AusglueError):
    pass


class NotRepFinite(AusglueError):
    pass


class NotDirected(AusglueError):
    pass


class NotClusterTilting(AusglueError):
    pass


class GldimTooBig(AusglueError):
    pass


class OrbitDiverges(AusglueError):
    pass


class NoApproximation(AusglueError):
    pass
