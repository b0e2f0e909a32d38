"""Token classification and the semantic density score.

The score of a prompt is (S/W) * (1 - R) * C where W counts all
non-punctuation tokens, S the semantic tokens (not lexicon noise, not
closed-class function words), R the fraction of semantic tokens repeating
an earlier semantic stem, and C the fraction of semantic tokens that are
concrete (numbers, math symbols, units, named entities, or specific
non-nominalized words). Scores map onto four density classes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import wordlists
from .errors import EmptyPromptError, PromptDensityError
from .lexicon import Category, Lexicon, default_lexicon, match_phrases
from .tokens import Token, TokenKind, TokenSequence, tokenize


class LabelKind(Enum):
    FILLER = "filler"
    HEDGE = "hedge"
    META = "meta"
    TRANSITIONAL = "transitional"
    FUNCTION = "function"
    SEMANTIC = "semantic"


_CATEGORY_LABELS = {
    Category.FILLER: LabelKind.FILLER,
    Category.HEDGE: LabelKind.HEDGE,
    Category.META: LabelKind.META,
    Category.TRANSITIONAL: LabelKind.TRANSITIONAL,
}


@dataclass(frozen=True)
class TokenLabel:
    """Classification of one token; flags only apply to SEMANTIC tokens."""

    kind: LabelKind
    redundant: bool = False
    concrete: bool = False


# Every possible label, built once; classify_tokens hands these out.
_LABELS = {
    (kind, redundant, concrete): TokenLabel(kind, redundant, concrete)
    for kind in LabelKind
    for redundant in (False, True)
    for concrete in (False, True)
}
_FUNCTION_LABEL = _LABELS[LabelKind.FUNCTION, False, False]


class DensityClass(Enum):
    DILUTED = "diluted"
    STANDARD = "standard"
    DENSE = "dense"
    ULTRA_DENSE = "ultra_dense"


@dataclass(frozen=True)
class ScoreConfig:
    """Shipped classification defaults; all lists are extensible."""

    function_words: frozenset[str] = wordlists.FUNCTION_WORDS
    abstract_words: frozenset[str] = wordlists.ABSTRACT_WORDS
    nominalization_words: frozenset[str] = frozenset(wordlists.NOMINALIZATION_VERBS)
    redundancy_min_len: int = 2
    diluted_below: float = 0.40
    dense_from: float = 0.65
    ultra_above: float = 0.80


DEFAULT_CONFIG = ScoreConfig()


@dataclass(frozen=True)
class PromptAnalysis:
    """Component scores and density class for one prompt."""

    sde: float
    klass: DensityClass
    word_count: int
    semantic_count: int
    redundancy: float
    concreteness: float
    labels: tuple[TokenLabel, ...]
    seq: TokenSequence = field(repr=False)

    def to_report(self) -> dict:
        return {
            "sde": round(self.sde, 4),
            "class": self.klass.value,
            "W": self.word_count,
            "S": self.semantic_count,
            "R": round(self.redundancy, 4),
            "C": round(self.concreteness, 4),
            "labels": [
                {
                    "text": tok.text,
                    "span": [tok.start, tok.end],
                    "kind": tok.kind.value,
                    "label": lab.kind.value,
                    "redundant": lab.redundant,
                    "concrete": lab.concrete,
                }
                for tok, lab in zip(self.seq.tokens, self.labels)
            ],
        }


def stem(word: str) -> str:
    """Cheap suffix stripper (ing/ed/es/s) used by the redundancy rule."""
    w = word.lower()
    for suffix in ("ing", "ed", "es", "s"):
        if w.endswith(suffix) and len(w) - len(suffix) >= 3:
            return w[: -len(suffix)]
    return w


def _sentence_initial(tokens: tuple[Token, ...], idx: int) -> bool:
    if idx == 0:
        return True
    prev = tokens[idx - 1]
    return prev.kind is TokenKind.PUNCTUATION and prev.text[-1] in ".?!:;"


def _is_enum_label(tokens: tuple[Token, ...], idx: int) -> bool:
    """A single capital letter directly followed by ``.``/``)``/``:`` is an
    enumeration label (multiple-choice option), not the article or pronoun."""
    tok = tokens[idx]
    if len(tok.text) != 1 or not tok.text.isupper() or tok.text == "I":
        return False
    if idx + 1 >= len(tokens):
        return False
    nxt = tokens[idx + 1]
    return nxt.kind is TokenKind.PUNCTUATION and nxt.text[0] in ".):" and nxt.start == tok.end


def classify_tokens(
    seq: TokenSequence,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
) -> tuple[TokenLabel, ...]:
    """Label every token.

    Pipeline: lexicon phrase matches claim their tokens first, then the
    closed-class function-word list, and the rest is semantic. Semantic
    tokens are then flagged for redundancy (stem repeats an earlier
    semantic stem; only words of at least ``redundancy_min_len`` letters
    participate, so unit digits, operators, and single-letter symbols such
    as option labels never self-penalize) and for concreteness. Redundant
    repeats contribute no new content and are never concrete.
    """
    lex = lex if lex is not None else default_lexicon()
    tokens = seq.tokens
    by_match: dict[int, TokenLabel] = {}
    for m in match_phrases(seq, lex):
        label = _LABELS[_CATEGORY_LABELS[m.category], False, False]
        for i in range(m.start, m.end):
            by_match[i] = label

    units = lex.phrases(Category.UNIT)
    suffixes = lex.phrases(Category.NOMINALIZATION_SUFFIX)
    seen_stems: set[str] = set()
    labels: list[TokenLabel] = []
    for idx, (tok, lower) in enumerate(zip(tokens, seq.lowered)):
        if lower is None:
            labels.append(_FUNCTION_LABEL)
            continue
        matched = by_match.get(idx)
        if matched is not None:
            labels.append(matched)
            continue
        if (
            tok.kind is TokenKind.WORD
            and lower in config.function_words
            and not _is_enum_label(tokens, idx)
        ):
            labels.append(_FUNCTION_LABEL)
            continue

        redundant = False
        if tok.kind is TokenKind.WORD and len(tok.text) >= config.redundancy_min_len:
            s = stem(tok.text)
            redundant = s in seen_stems
            seen_stems.add(s)

        concrete = not redundant and _is_concrete(
            tok, idx, tokens, lower, units, suffixes, config
        )
        labels.append(_LABELS[LabelKind.SEMANTIC, redundant, concrete])
    return tuple(labels)


def _is_concrete(
    tok: Token,
    idx: int,
    tokens: tuple[Token, ...],
    lower: str,
    units: frozenset[str],
    suffixes: frozenset[str],
    config: ScoreConfig,
) -> bool:
    if tok.kind in (TokenKind.NUMBER, TokenKind.MATH_SYMBOL):
        return True
    if lower in units:
        return True
    if tok.text[0].isupper() and not _sentence_initial(tokens, idx):
        return True
    if lower in config.abstract_words:
        return False
    word_stem = stem(lower)
    if lower in config.nominalization_words or word_stem in config.nominalization_words:
        return False
    # The suffix must hang off a real stem ("density", not "city").
    if any(
        word_stem.endswith(suffix) and len(word_stem) >= len(suffix) + 3
        for suffix in suffixes
    ):
        return False
    return True


def component_scores(labels: tuple[TokenLabel, ...], w: int) -> tuple[int, float, float]:
    """Return (S, R, C) for a labelled sequence of word count ``w``."""
    if w <= 0:
        raise EmptyPromptError("empty prompt")
    semantic = [lab for lab in labels if lab.kind is LabelKind.SEMANTIC]
    s = len(semantic)
    denom = max(s, 1)
    r = sum(1 for lab in semantic if lab.redundant) / denom
    c = sum(1 for lab in semantic if lab.concrete) / denom
    return s, r, c


def density_score(s: int, w: int, r: float, c: float) -> float:
    """Evaluate (S/W) * (1-R) * C with precondition checks."""
    if w <= 0:
        raise PromptDensityError("word count must be positive")
    if s < 0 or s > w:
        raise PromptDensityError("semantic count must satisfy 0 <= S <= W")
    if not (0.0 <= r <= 1.0 and 0.0 <= c <= 1.0):
        raise PromptDensityError("R and C must lie in [0, 1]")
    return (s / w) * (1.0 - r) * c


def density_class(sde: float, config: ScoreConfig = DEFAULT_CONFIG) -> DensityClass:
    """Map a score in [0, 1] onto its density class."""
    if not (0.0 <= sde <= 1.0):
        raise PromptDensityError(f"score {sde!r} outside [0, 1]")
    if sde < config.diluted_below:
        return DensityClass.DILUTED
    if sde < config.dense_from:
        return DensityClass.STANDARD
    if sde <= config.ultra_above:
        return DensityClass.DENSE
    return DensityClass.ULTRA_DENSE


def analyze(
    text: str,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
) -> PromptAnalysis:
    """Tokenize, classify, and score one prompt."""
    seq = tokenize(text)
    w = seq.word_count
    if w == 0:
        raise EmptyPromptError("empty prompt")
    labels = classify_tokens(seq, lex, config)
    s, r, c = component_scores(labels, w)
    sde = density_score(s, w, r, c)
    return PromptAnalysis(
        sde=sde,
        klass=density_class(sde, config),
        word_count=w,
        semantic_count=s,
        redundancy=r,
        concreteness=c,
        labels=labels,
        seq=seq,
    )
