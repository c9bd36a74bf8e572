"""Exception hierarchy shared by every module, and :class:`Record`, the base of
the package's immutable value classes.

Everything algebraic raises a subclass of :class:`AlgebraError`, so callers
(and the CLI) can distinguish "the verification failed" from "the inputs were
malformed" with a single except clause.
"""


class Record:
    """Immutable value with its ``__slots__`` set positionally. Equal when
    identical (tested first: a field spec meets itself in every polynomial
    operation) or of one class with equal ``_key()``: the leading slots that
    are fields, where later slots hold values derived from them."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self is other or (self._key() == other._key() if type(other) is type(self)
                                 else NotImplemented)

    def __ne__(self, other):  # the inherited one would add a call to __eq__
        return self is not other and (self._key() != other._key() if type(other) is type(self)
                                      else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


class AlgebraError(Exception):
    """Base class for all structured errors raised by this package; keyword
    details, such as a failed congruence's residual, become attributes."""

    def __init__(self, *args, **details):
        super().__init__(*args)
        self.__dict__.update(details)


class FieldMismatch(AlgebraError):
    """Two elements (or polynomials) from different coefficient fields."""


class DivisionByZero(AlgebraError):
    """Division or inversion of a zero field element."""


class BadFieldSpec(AlgebraError):
    """Rejected field description (composite modulus, reducible or oversized
    minimal polynomial, ...)."""


class VarTableMismatch(AlgebraError):
    """Operands built over incompatible variable tables."""


class NegativePowerOfNonMonomial(AlgebraError):
    """Raising a polynomial with more than one term to a negative power."""


class NotDivisible(AlgebraError):
    """divide_exact: the divisor does not divide the dividend."""


class NonInvertibleImageForLaurentVariable(AlgebraError):
    """substitute: a variable occurring with a negative exponent was assigned
    an image that is not a single invertible term."""


class UnexpectedVariable(AlgebraError):
    """A polynomial involves a variable the operation does not allow."""


class NegativeExponentAtZero(AlgebraError):
    """evaluate put 0 for a variable occurring with a negative exponent."""


class ExprSyntaxError(AlgebraError):
    """Expression parse error; carries the 0-based offset in ``position``."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ExprSyntaxError):
    """Expression references a name outside the variable table."""


class NegativeExponentNotAllowed(ExprSyntaxError):
    """Negative exponent on a variable the table does not mark as Laurent."""


class InvalidGenerator(AlgebraError):
    """An elementary map generator violates its shape invariants."""


class CongruenceFailed(AlgebraError):
    """A required congruence (mod a^m style) fails; a block sets ``residual`` to what is left."""

    residual = None


class JacobianNotUnit(AlgebraError):
    """Certificate normalization: Jacobian is not a unit of the expected
    Laurent subring."""


class MembershipError(AlgebraError):
    """A map component lies outside the required ring; carries the component
    name and one offending term."""

    component = term = None


class ShapeError(AlgebraError):
    """A composite map does not have the required shape (e.g. not
    (x, y + f(x)))."""


class PreconditionViolated(AlgebraError):
    """Operation preconditions not met (degree bounds, characteristic, ...)."""


class CharTwoField(PreconditionViolated):
    """The construction requires 2 to be invertible in the field."""


class DegreeNotOne(AlgebraError):
    """The constant-chart slice P(0,0,x) is not of degree one."""


class NoPolynomialSInRange(AlgebraError):
    """The derived stability exponent s exceeds the bound s_max."""
