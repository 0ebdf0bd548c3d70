"""Exception types shared across the toolkit."""


class RankfairError(Exception):
    """Base class for all toolkit errors.

    Errors raised while reading an input stream carry the 1-based number of
    the offending line in ``.line``; elsewhere ``line`` is ``None``.
    """

    def __init__(self, message: str = "", *, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- weight vectors and distributions ---------------------------------------


class ZeroMass(RankfairError):
    """A weight vector with no mass cannot be normalized."""


class LengthMismatch(RankfairError):
    """Vector lengths disagree with each other or with the scheme size."""


class NotADistribution(RankfairError):
    """Input vector is not a probability distribution."""


# --- membership lookup -------------------------------------------------------


class MissingDocument(RankfairError):
    """Document has no stored membership vector and the policy forbids a fallback."""


class NoUnknownGroup(RankfairError):
    """The all-unknown fallback needs a scheme with an unknown group."""


class UnknownScheme(RankfairError):
    """Scheme name is not registered."""


class UnknownLabel(RankfairError):
    """Group label does not belong to the scheme."""


# --- stream parsing ----------------------------------------------------------


class MalformedLine(RankfairError):
    """Line does not match the expected field layout."""


class DuplicateDocument(RankfairError):
    """Document appears twice where uniqueness is required."""


class NonNumericRank(RankfairError):
    """Rank field is not an integer."""


class NonNumericScore(RankfairError):
    """Score field is not a number."""


class NegativeGrade(RankfairError):
    """Relevance grades must be non-negative."""


class DuplicateJudgment(RankfairError):
    """A (query, document) pair was judged twice."""


# --- sampling ----------------------------------------------------------------


class InsufficientDocuments(RankfairError):
    """A group does not hold enough documents to satisfy a sample plan."""

    def __init__(self, group: str, have: int, need: int):
        super().__init__(f"group {group!r}: need {need} documents, have {have}")
        self.group = group
        self.have = have
        self.need = need


# --- exposure and metrics ------------------------------------------------------


class InvalidPatience(RankfairError):
    """Geometric attention needs patience strictly between 0 and 1."""


class NoRelevantDocuments(RankfairError):
    """Query has no document with positive relevance grade."""


class NoJudgedDocuments(RankfairError):
    """Query has no relevance judgments at all."""


class ConfigError(RankfairError):
    """Invalid or inconsistent evaluation configuration."""


class OutputError(RankfairError, OSError):
    """The output directory cannot be created or written."""


# --- simulation ----------------------------------------------------------------


class AccuracyOutOfRange(RankfairError):
    """Target accuracy must lie in [1/k, 1]."""


# --- statistics ------------------------------------------------------------------


class ConstantInput(RankfairError):
    """Correlation of a constant vector is undefined."""


class NonFiniteInput(RankfairError):
    """Correlation of scores holding NaN or an infinity is undefined."""


class TooFewSamples(RankfairError):
    """Correlation needs at least three paired samples."""


class SystemSetMismatch(RankfairError):
    """The two report sets cover different systems."""


class QuerySetMismatch(RankfairError):
    """The two report sets cover different queries."""
