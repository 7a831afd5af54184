"""Exception types shared across the package."""


class DivisionByZero(ZeroDivisionError):
    """Division of a scalar by the zero scalar."""


class IndexOutOfRange(IndexError):
    """A variable index outside 1..n."""


class DegreeOverflow(ValueError):
    """A monomial whose total degree exceeds the packed-exponent limit."""


class ArityMismatch(ValueError):
    """A form was evaluated on the wrong number of derivations."""


class ArityError(ValueError):
    """The higher-Jacobi oracle was asked beyond the structure's arity bound."""


class OrderMismatch(ValueError):
    """Two sections of different order p were combined."""


class TwistArityError(ValueError):
    """A twist form with the wrong degree, or a twist where none is allowed."""


class NotClosed(ValueError):
    """An operation that requires a closed form received a non-closed one."""


class NotHamiltonian(ValueError):
    """No derivation matches the differential of the given form inside the subbundle."""


class ZeroScale(ValueError):
    """Rescaling by zero is not invertible."""


class Degenerate(ValueError):
    """A construction that needs a nondegenerate form received a degenerate one."""


class NonInvertible(ValueError):
    """A gauge transformation whose defining bundle map has zero determinant."""
