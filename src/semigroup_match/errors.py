"""Exception types shared across the package."""


class SemigroupError(Exception):
    """Base class for every error raised by this package."""


class TableFormatError(SemigroupError):
    """Input text or array does not describe a square multiplication table."""


class EntryRangeError(SemigroupError):
    """A table entry falls outside [0, n)."""


class NotAssociativeError(SemigroupError):
    """The table fails associativity.  Carries the first offending triple."""

    def __init__(self, witness, message=None):
        self.witness = tuple(int(x) for x in witness)
        a, b, c = self.witness
        super().__init__(
            message or f"not associative: (a*b)*c != a*(b*c) for (a,b,c) = ({a},{b},{c})"
        )


class NotRegularMatrixError(SemigroupError):
    """A boolean structure matrix has an all-false row or column."""


class CapExceededError(SemigroupError):
    """A construction or search would exceed the configured size cap."""


class NotRegularError(SemigroupError):
    """The operation needs a regular semigroup; witness is an element with no inverse."""

    def __init__(self, witness=None, message=None):
        self.witness = witness
        if message is None:
            if witness is not None:
                message = f"not regular: element {witness} has no inverse"
            else:
                message = "not regular"
        super().__init__(message)


class NotOrthodoxError(SemigroupError):
    """The operation needs an orthodox semigroup.

    witness is either an element with no inverse or a pair of idempotents
    whose product is not idempotent.
    """

    def __init__(self, witness=None, message=None):
        self.witness = witness
        super().__init__(message or "not orthodox")


class NotRegularDClassError(SemigroupError):
    """The D-class holds no idempotent, so it has no combinatorial band image."""


class LiftFailureError(SemigroupError):
    """Lifting a band matching met an H-class pair without unique inverses."""
