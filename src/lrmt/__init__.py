"""Corpus construction and evaluation toolkit for low-resource machine translation."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Corpus,
    LanguageTag,
    Origin,
    SentencePair,
    normalize_text,
)
from .errors import (  # noqa: F401
    IngestError,
    LrmtError,
    ProviderError,
    ValidationError,
)
