"""Typed exceptions shared across the pipeline; each carries the CLI's exit code for it."""

#: What decoding a malformed record raises: a value, type or missing key
#: that does not fit, or an attribute a wrongly shaped value lacks.
MALFORMED = (ValueError, TypeError, KeyError, AttributeError)


class RecauditError(Exception):
    """Base class for every error raised by this package; unless a subclass
    says otherwise, a data or invariant error."""

    exit_code = 2


class ConfigError(RecauditError):
    """Bad or unresolvable configuration value."""

    exit_code = 1


class FetchError(RecauditError):
    """A source could not serve one channel or video; a crawl skips that item."""

    exit_code = 3


class ChannelNotFoundError(FetchError):
    """The source has no channel under this key."""


class ChannelStalledError(FetchError):
    """The channel exists but has never published a video."""


class VideoNotFoundError(FetchError):
    """The source has no video under this key."""


class CommentsDisabledError(FetchError):
    """Comments are turned off for this video; the modality is absent."""


class TransientFetchError(FetchError):
    """A fetch failed in a way that is worth retrying."""


class DegenerateTrainingError(RecauditError):
    """Training input cannot produce a usable model (single class, too few examples)."""


class UnclassifiableVideoError(RecauditError):
    """All four scoring modalities are absent for this video."""


class UndefinedModularityError(RecauditError):
    """Modularity is undefined on a graph with no edges."""


class HarvestExistsError(RecauditError):
    """A snapshot for this date already exists and overwrite was not requested."""


class CorpusViolationError(RecauditError):
    """Corpus validation found invariant violations."""


class ArtifactVersionError(RecauditError):
    """Persisted artifact uses an unsupported schema version."""


class ArtifactCorruptError(RecauditError):
    """Persisted artifact is truncated or fails its digest check."""
