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
        self._lexicons = [lexicons[name] for name in ATTRIBUTE_NAMES]

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
        tokens = tokenize(comment.text)
        out = []
        for lexicon in self._lexicons:
            total = sum(lexicon.get(tok, 0.0) for tok in tokens)
            out.append(min(1.0, total))
        return tuple(out)
