"""Exception types and the validation report shared across the library.

Every error that a caller is expected to catch has its own class; generic
misuse (wrong types, dimension mismatches at construction time) raises
ValueError.  A certificate that reports rather than raises returns a
ValidationReport, one ``check_row`` per check.
"""


def json_pointer(pointer, *tokens):
    """``pointer`` extended by ``tokens``, escaped as RFC 6901 asks."""
    return pointer + "".join("/" + str(t).replace("~", "~0").replace("/", "~1") for t in tokens)


class ValidationReport:
    """Outcome of a reporting certificate: (check, ok, witness) rows."""

    def __init__(self, checks):
        self.checks = checks

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(c, w) for c, ok, w in self.checks if not ok]

    def __repr__(self):
        return "<ValidationReport passed=%s failures=%r>" % (self.passed, self.failures())


def check_row(name, failures):
    """The report row of one check: its first failure witness, if any.

    ``failures`` yields a witness for each failing case in the check's walk
    order; nothing after the first witness is read.
    """
    for witness in failures:
        return (name, False, witness)
    return (name, True, None)


class DglaError(Exception):
    """Base class for library-specific errors."""


class WindowTooNarrow(DglaError):
    """A degree window does not contain the data needed for a computation.

    ``required`` (when set) is the window that would have sufficed.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NotAComplex(DglaError):
    """d squared is nonzero somewhere it was required to vanish."""


class InhomogeneousExpression(DglaError):
    """An expression mixes degrees where a homogeneous one is required."""


class UnknownGenerator(DglaError):
    """An expression refers to a generator absent from the presentation."""


class IncompatibleSubs(DglaError):
    """Designated subalgebras cannot be matched (degree/differential)."""


class UnsupportedSub(DglaError):
    """An operation does not support this kind of designated subalgebra."""


class NotInvertibleLinearPart(DglaError):
    """The linear part of a morphism is singular on indecomposables."""


class NonMinimalAmbient(DglaError):
    """An operation requires a minimal relative presentation."""


class SubMismatch(DglaError):
    """Derivations or gluing data disagree about the relative subalgebra."""


class NotQuasiIso(DglaError):
    """A map failed the homology rank check over the requested window."""


class NotUnimodular(DglaError):
    """A graded symplectic pairing is singular."""


class OmegaNotClosed(DglaError):
    """delta(omega) is nonzero for a candidate manifold model."""


class NotMinimal(DglaError):
    """A differential has a nonzero linear part where minimality is required."""


class BadPontryaginDegrees(DglaError):
    """Pontryagin functionals supported outside degrees 4i-1."""


class RhoNotChainMap(DglaError):
    """rho does not annihilate the differential on generators."""


class AxiomFailure(DglaError):
    """A dg Lie or outer-action axiom fails on a basis pair or triple."""


class ClassExceeded(DglaError):
    """Iterated brackets do not vanish at the stated nilpotency class."""


class NotNilpotent(DglaError):
    """An action claimed to be nilpotent fails to terminate."""


class SemisimplicityNotAsserted(DglaError):
    """A gluing pipeline was invoked without the semisimplicity flag."""


class DimensionMismatch(DglaError):
    """Boundary connected sum of manifolds of different dimensions."""


class GrammarError(DglaError):
    """A Lie expression string is malformed; ``offset`` is the byte offset."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class SchemaError(DglaError):
    """Input data violates the schema; ``pointer`` is an RFC 6901 JSON pointer to it.

    The pointer addresses the offending value in the input's JSON form, also
    when the check lives in the library (a pairing entry, a generator degree).
    An error that no document position explains (a command-line argument, an
    unreadable file) has the pointer None.
    """

    def __init__(self, message, pointer=None):
        where = "" if pointer is None else " (at %s)" % (pointer or "the document root")
        super().__init__(message + where)
        self.message = message
        self.pointer = pointer
