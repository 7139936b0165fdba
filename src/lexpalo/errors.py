"""Exception types raised across the package.

Every error the library raises derives from :class:`LexpaloError`, so CLI and
embedding code can catch one base class. Names describe the condition they
signal, not the module that raises them; ``exit_code`` is the documented exit
status the CLI reports for each.
"""


class LexpaloError(Exception):
    """Base class for all errors raised by lexpalo."""
    exit_code = 1


class CorpusIoError(LexpaloError):
    """A corpus file could not be read or written."""
    exit_code = 3


class FormatError(LexpaloError):
    """A record or file does not match the documented schema.

    Carries the 1-based line number when known.
    """
    exit_code = 4

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateIdError(LexpaloError):
    """Two records share the same id."""
    exit_code = 5


class EmptyCorpusError(LexpaloError):
    """An operation produced or received a corpus with no records."""
    exit_code = 6


class StratumTooSmallError(LexpaloError):
    """A palo has too few records to be split into train and validation."""
    exit_code = 7


class EmptyDocumentError(LexpaloError):
    """A statistic was requested for a document or corpus with no tokens."""
    exit_code = 8


class DegenerateFitError(LexpaloError):
    """A power-law fit has no information to fit (e.g. all counts equal)."""
    exit_code = 10


class VocabularyMismatchError(LexpaloError):
    """A vector or matrix is not indexed by the expected vocabulary."""
    exit_code = 11


class AlphaNonPositiveError(LexpaloError):
    """The smoothing parameter is not finite and strictly positive, or the
    smoothing mass alpha * |V| it adds overflows."""
    exit_code = 12


class LabelMismatchError(LexpaloError):
    """Labels do not align with the rows of the matrix being fitted."""
    exit_code = 13


class InconsistentClassesError(LexpaloError):
    """Training runs being aggregated disagree on the class set."""
    exit_code = 15


class NoThresholdError(LexpaloError):
    """No word was ever flagged at the smoothing floor, so no essential-word
    threshold exists."""
    exit_code = 16


class NormError(LexpaloError):
    """A vector expected to be L2-normalized is not."""
    exit_code = 17


class ZeroDistanceError(LexpaloError):
    """Two distinct genres have distance zero, so closeness centrality is
    undefined."""
    exit_code = 18


class ModelFormatError(LexpaloError):
    """A persisted model file has an unknown version or invalid content."""
    exit_code = 19
