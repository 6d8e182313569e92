"""Exception hierarchy for the package.

Everything raised on purpose derives from HvlabError so callers (in
particular the CLI) can distinguish expected failures from bugs.
"""


class HvlabError(Exception):
    """Base class for all errors raised by hvlab."""


class MalformedScalar(HvlabError):
    """A scalar string does not match the number grammar."""


class OversizedScalar(HvlabError):
    """A scalar has more digits than the interpreter converts to text."""


class ZeroDenominator(HvlabError):
    """A rational token has denominator zero."""


class DivisionByZero(HvlabError):
    """Exact division by the zero scalar."""


class UnknownSetting(HvlabError):
    """A referenced measurement setting is not in the label set."""


class UnknownOutcome(HvlabError):
    """A referenced outcome is not in the label set."""


class InvalidBehavior(HvlabError):
    """A behavior violates nonnegativity or normalization."""


class WeightSumMismatch(HvlabError):
    """Mixture weights are negative or do not sum to one."""


class SpaceMismatch(HvlabError):
    """Two objects do not share setting/outcome label sets."""


class InvalidJointTable(HvlabError):
    """A joint table is not an exact probability distribution."""


class BadPartition(HvlabError):
    """The requested variable split is not a partition."""


class InvalidModel(HvlabError):
    """A hidden-variable model violates its invariants."""


class NotLocal(HvlabError):
    """Operation requires a model whose kernels are all no-signalling."""


class InvalidDistribution(HvlabError):
    """A supplied weight vector is not a probability distribution."""


class DimensionMismatch(HvlabError):
    """Linear program data with inconsistent dimensions."""


class IrrationalMatrix(HvlabError):
    """An LP constraint matrix entry is not an integer: it has a fraction
    or a nonzero sqrt2 part.  A row of fractions is made integer by
    scaling it, and its right-hand side, by the lcm of its denominators."""


class LpFailure(HvlabError):
    """An LP was not solved: the simplex refused a negative right-hand
    side, since it starts from the slack basis, or an LP that must be
    optimal ended otherwise or failed its certificate check."""


class SignallingInput(HvlabError):
    """A signalling box was given where a no-signalling one is required."""


class InvalidDecomposition(HvlabError):
    """A local decomposition violates its invariants."""


class FileFormatError(HvlabError):
    """A box/model/expression file does not match its schema."""


class SizeBudgetExceeded(HvlabError):
    """An enumeration would exceed its fixed size budget."""
