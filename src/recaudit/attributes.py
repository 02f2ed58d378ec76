"""Comment-attribute scoring: the seven-property scorer abstraction.

The offline stand-in scores each property with a keyword lexicon (capped sum
of matched-token weights), shipped as data files so CI needs no network.
"""

from __future__ import annotations

from importlib import resources
from typing import Protocol

from .corpus import ATTRIBUTE_NAMES, Comment
from .textmodel import tokenize


class AttributeScorer(Protocol):
    """Scores one comment on the fixed seven attributes, each in [0, 1]."""

    def score(self, comment: Comment) -> tuple[float, ...]: ...


def score_comment_attributes(scorer: AttributeScorer, comment: Comment) -> Comment:
    """``comment`` carrying the scorer's scores. The ``Comment`` constructor
    holds them to the range contract: seven values, each in [0, 1]."""
    return Comment(text=comment.text, attribute_scores=scorer.score(comment))


def _parse_lexicon(text: str) -> dict[str, float]:
    lexicon: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        token, weight = line.split()
        lexicon[token.lower()] = float(weight)
    return lexicon


class LexiconAttributeScorer:
    """Deterministic offline scorer: per attribute, the capped sum of weights
    of lexicon tokens found in the comment. Empty text scores all zeros."""

    def __init__(self, lexicons: dict[str, dict[str, float]]):
        missing = set(ATTRIBUTE_NAMES) - set(lexicons)
        if missing:
            raise ValueError(f"missing lexicons for {sorted(missing)}")
        ordered = [lexicons[name] for name in ATTRIBUTE_NAMES]
        # One row of weights per lexicon token, an attribute per column.
        self._weights = {
            token: tuple(lexicon.get(token, 0.0) for lexicon in ordered) for token in set().union(*ordered)
        }
        self._unknown = (0.0,) * len(ordered)
        self._caps = (1.0,) * len(ordered)

    @classmethod
    def bundled(cls) -> "LexiconAttributeScorer":
        """Load the lexicon files shipped with the package."""
        root = resources.files("recaudit").joinpath("data/lexicons")
        lexicons = {
            name: _parse_lexicon(root.joinpath(f"{name}.txt").read_text(encoding="utf-8"))
            for name in ATTRIBUTE_NAMES
        }
        return cls(lexicons)

    def score(self, comment: Comment) -> tuple[float, ...]:
        return self.score_tokens(tokenize(comment.text))

    def score_tokens(self, tokens: list[str]) -> tuple[float, ...]:
        """The scores of a comment with these tokens: per attribute, the
        built-in ``sum`` of each token's weight in token order (0.0 for a
        token its lexicon lacks), capped at 1."""
        rows = [self._weights.get(token, self._unknown) for token in tokens]
        if not rows:
            return (min(1.0, 0),) * len(self._caps)  # the sum of no weights is the int 0
        return tuple(map(min, self._caps, map(sum, zip(*rows))))
