"""Typed exceptions shared across the pipeline."""


class RecauditError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RecauditError):
    """Bad or unresolvable configuration value."""


class ChannelNotFoundError(RecauditError):
    """The source has no channel under this key."""


class ChannelStalledError(RecauditError):
    """The channel exists but has never published a video."""


class VideoNotFoundError(RecauditError):
    """The source has no video under this key."""


class CommentsDisabledError(RecauditError):
    """Comments are turned off for this video; the modality is absent."""


class TransientFetchError(RecauditError):
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
