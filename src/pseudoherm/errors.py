"""Exception types raised by the pseudoherm package.

Each class marks a specific way a construction can fail; callers that probe
for structure (e.g. "does a positive metric exist?") catch the specific type.
"""


class PseudohermError(Exception):
    """Base class for all package-specific failures."""


class EigFailure(PseudohermError):
    """The underlying dense eigensolver did not converge."""


class NonDiagonalizableError(PseudohermError):
    """Eigenvector matrix condition number exceeds the diagonalizability cutoff."""


class NotPositiveDefinite(PseudohermError):
    """A matrix required to be positive-definite has an eigenvalue <= tolerance."""


class UnpairedEigenvalue(PseudohermError):
    """An eigenvalue has no complex-conjugate partner in the spectrum."""

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = complex(eigenvalue)
        super().__init__(message or f"eigenvalue {self.eigenvalue} has no conjugate partner")


class NoPositiveMetric(PseudohermError):
    """The spectrum contains complex pairs, so no positive metric exists."""


class NotInvertible(PseudohermError):
    """A matrix required to be invertible is singular within tolerance."""


class NotCommuting(PseudohermError):
    """A symmetry transformation does not commute with the operator."""


class NotAMetric(PseudohermError):
    """The supplied operator fails the intertwining relation for H."""


class EmptyPhysicalSpace(PseudohermError):
    """No eigenvalue is real: the physical subspace would be {0}."""


class InvalidGrid(PseudohermError):
    """Lattice parameters out of range: need N >= 2, L > 0, m > 0 and a float-sized dispersion."""


class GridMismatch(PseudohermError):
    """Two lattice states live on different grids."""


class TimeMismatch(PseudohermError):
    """Two lattice states are held at different times."""


class ParseError(PseudohermError):
    """A matrix file does not parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        super().__init__(message)
