"""Exception hierarchy for the rank-aware relational engine."""


class RankrelError(Exception):
    """Base class for all errors raised by this package."""


class ChainError(RankrelError):
    """A score violates its chain's carrier (out of bounds, unknown level)."""


class IncompatibleChainError(RankrelError):
    """Two scores or tables from different chains were combined."""


class SchemeError(RankrelError):
    """Scheme mismatch, unknown attribute, or attribute collision."""


class NotCrispError(RankrelError):
    """A table with intermediate scores was used where {0, 1} is required."""


class MapDomainError(RankrelError):
    """A score fell outside an order map's declared domain."""


class MapPropertyError(RankrelError):
    """A declared order-map property failed verification, or f(0) != 0."""


class QuantizationError(RankrelError):
    """Grid quantization of an analytic map collapsed distinct scores."""


class NotIncludedError(RankrelError):
    """Ordinal inclusion required but absent."""


class NotEquivalentError(RankrelError):
    """Ordinal equivalence required but absent."""


class EvalError(RankrelError):
    """A restriction-condition or map expression failed to evaluate."""


class ParseError(RankrelError):
    """Syntax error in a query, formula, expression, or config file."""

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownNameError(RankrelError):
    """A query referenced a table, condition, or map missing from the catalog."""


class UnsupportedOperationError(RankrelError):
    """Operation not available for this carrier or expression fragment."""
