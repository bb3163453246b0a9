"""Exception types shared across the package."""


class FiverankError(Exception):
    """Base class for all package-specific errors."""


class BadReductionError(FiverankError):
    """A residue computation hit a denominator divisible by the modulus."""


class PoleError(FiverankError):
    """A rational function was evaluated at a pole."""


class FactorizationIncompleteError(FiverankError):
    """Trial division ran out of budget before settling the question."""


class DegenerateParameterError(FiverankError):
    """A family parameter produces a singular curve."""


class UnsupportedReductionError(FiverankError):
    """Additive reduction, which this pipeline never needs and does not classify."""

    def __init__(self, prime, delta_valuation):
        self.prime = prime
        self.delta_valuation = delta_valuation
        super().__init__(f"additive reduction at p={prime} (v_p(disc)={delta_valuation})")


class NoSingularPointError(FiverankError):
    """Reduction at the prime is good, so there is no singular point."""


class NoRationalKernelError(FiverankError):
    """The 5-division polynomial has no rational kernel factor."""


class InvalidKernelError(FiverankError):
    """The proposed kernel polynomial does not cut out a rational 5-subgroup."""


class NoIsomorphismError(FiverankError):
    """Two curves are not related by a rational Weierstrass isomorphism."""


class DegenerateAbscissaError(FiverankError):
    """The preimage polynomial dropped degree for this abscissa."""


class FieldCollapseError(FiverankError):
    """The radicand is a rational square, so no quadratic field arises."""


class RamifiedPrimeError(FiverankError):
    """The test prime divides the discriminant of the defining polynomial."""


class ProtocolViolationError(FiverankError):
    """A factorization profile that the Galois structure rules out appeared."""


class IdentityCheckError(FiverankError):
    """An exact identity that the computation relies on does not hold."""


class InvalidCertificateError(FiverankError):
    """A splitting pattern violates its structural invariants."""


class OutOfBudgetError(FiverankError):
    """A configured enumeration bound was exceeded."""
