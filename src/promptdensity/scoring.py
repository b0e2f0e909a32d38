"""Token classification and the semantic density score.

The score of a prompt is (S/W) * (1 - R) * C where W counts all
non-punctuation tokens, S the semantic tokens (not lexicon noise, not
closed-class function words), R the fraction of semantic tokens repeating
an earlier semantic stem, and C the fraction of semantic tokens that are
concrete (numbers, math symbols, units, named entities, or specific
non-nominalized words). Scores map onto four density classes.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from . import wordlists
from .errors import EmptyPromptError, PromptDensityError
from .lexicon import (
    MAX_PHRASE_WORDS,
    NOISE_CATEGORIES,
    Category,
    Lexicon,
    PhraseMatch,
    default_lexicon,
    match_phrases,
    scan_phrases,
)
from .tokens import MEMO_MAX_CHARS, TokenKind, TokenSequence, insert_at, tokenize


class LabelKind(Enum):
    FILLER = "filler"
    HEDGE = "hedge"
    META = "meta"
    TRANSITIONAL = "transitional"
    FUNCTION = "function"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class TokenLabel:
    """Classification of one token; flags only apply to SEMANTIC tokens."""

    kind: LabelKind
    redundant: bool = False
    concrete: bool = False


# Every label that can occur, built once; classify_tokens hands these out.
# A redundant word is never concrete, so three semantic labels exist.
_CATEGORY_LABELS = {c: TokenLabel(LabelKind[c.name]) for c in NOISE_CATEGORIES}
_FUNCTION_LABEL = TokenLabel(LabelKind.FUNCTION)
_SEMANTIC_LABELS = {
    (redundant, concrete): TokenLabel(LabelKind.SEMANTIC, redundant, concrete)
    for redundant, concrete in ((False, False), (False, True), (True, False))
}


class DensityClass(Enum):
    DILUTED = "diluted"
    STANDARD = "standard"
    DENSE = "dense"
    ULTRA_DENSE = "ultra_dense"


@dataclass(frozen=True)
class ScoreConfig:
    """Word lists and thresholds of the scorer; the defaults are shipped.

    ``function_words`` are never semantic and ``abstract_words`` never
    concrete; a config file extends both. A word of fewer than
    ``redundancy_min_len`` characters never counts as a repeat. The three
    thresholds bound the density classes (see ``density_class``).
    """

    function_words: frozenset[str] = wordlists.FUNCTION_WORDS
    abstract_words: frozenset[str] = wordlists.ABSTRACT_WORDS
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
    matches: tuple[PhraseMatch, ...] = field(compare=False, repr=False)

    def to_report(self) -> dict:
        seq = self.seq
        return {
            "sde": round(self.sde, 4),
            "class": self.klass.value,
            "W": self.word_count,
            "S": self.semantic_count,
            "R": round(self.redundancy, 4),
            "C": round(self.concreteness, 4),
            "labels": [
                {
                    "text": text,
                    "span": [start, end],
                    "kind": kind.value,
                    "label": lab.kind.value,
                    "redundant": lab.redundant,
                    "concrete": lab.concrete,
                }
                for text, kind, start, end, lab in zip(
                    seq.texts, seq.kinds, seq.starts, seq.ends, self.labels
                )
            ],
        }


# Distinct (lowered word, suffix set) pairs whose stems ``_stem_verdict``
# remembers; like the chunks of ``tokenize``, the words of prompts repeat.
STEM_MEMO_SIZE = 4096


@lru_cache(maxsize=STEM_MEMO_SIZE)
def _stem_verdict(lower: str, suffixes: frozenset[str]) -> tuple[str, bool]:
    """The stem of a lowercase word (ing/ed/es/s stripped), and whether the
    stem ends in one of ``suffixes`` that hangs off a real stem ("density",
    not "city")."""
    word_stem = lower
    for suffix in ("ing", "ed", "es", "s"):
        if lower.endswith(suffix) and len(lower) - len(suffix) >= 3:
            word_stem = lower[: -len(suffix)]
            break
    return word_stem, any(word_stem.endswith(suffix) and len(word_stem) >= len(suffix) + 3
                          for suffix in suffixes)


def stem(word: str) -> str:
    """Cheap suffix stripper (ing/ed/es/s) used by the redundancy rule."""
    return _stem_verdict.__wrapped__(word.lower(), frozenset())[0]  # leaves the memo alone


def classify_tokens(
    seq: TokenSequence,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
    *,
    matches: Sequence[PhraseMatch] | None = None,
) -> tuple[TokenLabel, ...]:
    """Label every token.

    Pipeline: lexicon phrase matches (``matches`` if given, in order) claim their
    tokens first, then the closed-class function-word list, and the rest is
    semantic. Semantic tokens are then flagged for redundancy (stem repeats
    an earlier semantic stem; only words of at least ``redundancy_min_len``
    letters participate, so unit digits, operators, and single-letter
    symbols such as option labels never self-penalize) and for
    concreteness. Redundant repeats contribute no new content and are never
    concrete. ``insert_word`` relabels a span with the same rules.
    """
    lex = lex if lex is not None else default_lexicon()
    matches = matches if matches is not None else match_phrases(seq, lex)
    return tuple(_label_span(seq, 0, len(seq), matches, lex, config))


def _label_span(seq: TokenSequence, lo: int, hi: int, matches: Sequence[PhraseMatch],
                lex: Lexicon, config: ScoreConfig) -> list[TokenLabel]:
    """Labels of tokens [lo, hi); a word is redundant when its stem repeats
    one earlier in the span."""
    texts, kinds, starts, ends, lowered = seq.texts, seq.kinds, seq.starts, seq.ends, seq.lowered
    by_match: dict[int, TokenLabel] = {}
    # Matches are in order: start from the first that ends past lo.
    for m in matches[bisect_right(matches, lo, key=lambda m: m.end) :]:
        if m.start >= hi:
            break
        label = _CATEGORY_LABELS[m.category]
        for i in range(m.start, m.end):
            by_match[i] = label

    units = lex.phrases(Category.UNIT)
    suffixes = lex.phrases(Category.NOMINALIZATION_SUFFIX)
    nominalizations = wordlists.NOMINALIZATION_VERBS
    seen_stems: set[str] = set()
    labels: list[TokenLabel] = []
    for idx in range(lo, hi):
        lower = lowered[idx]
        if lower is None:
            labels.append(_FUNCTION_LABEL)
            continue
        matched = by_match.get(idx)
        if matched is not None:
            labels.append(matched)
            continue
        text = texts[idx]
        word = kinds[idx] is TokenKind.WORD
        if word and lower in config.function_words:
            # A lone capital directly before "."/")"/":" is a multiple-choice
            # option label, not the article or pronoun.
            nxt = idx + 1
            if not (len(text) == 1 and text.isupper() and text != "I"
                    and nxt < len(texts) and texts[nxt][0] in ".):"
                    and starts[nxt] == ends[idx]):
                labels.append(_FUNCTION_LABEL)
                continue

        verdict = _stem_verdict if len(lower) <= MEMO_MAX_CHARS else _stem_verdict.__wrapped__
        word_stem, nominal_suffix = verdict(lower, suffixes)
        redundant = False
        if word and len(text) >= config.redundancy_min_len:
            redundant = word_stem in seen_stems
            seen_stems.add(word_stem)
        if redundant:
            concrete = False
        elif not word or lower in units:  # numbers, math symbols and units
            concrete = True
        elif text[0].isupper() and idx > 0 and (
            lowered[idx - 1] is not None or texts[idx - 1][-1] not in ".?!:;"
        ):  # a capital away from a sentence start names something
            concrete = True
        else:
            concrete = not (
                lower in config.abstract_words
                or lower in nominalizations
                or word_stem in nominalizations
                or nominal_suffix
            )
        labels.append(_SEMANTIC_LABELS[redundant, concrete])
    return labels


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
    lex = lex if lex is not None else default_lexicon()
    matches = tuple(match_phrases(seq, lex))
    labels = classify_tokens(seq, lex, config, matches=matches)
    s, r, c = component_scores(labels, w)
    sde = density_score(s, w, r, c)
    return PromptAnalysis(sde, density_class(sde, config), w, s, r, c, labels, seq, matches)


def insert_word(
    analysis: PromptAnalysis,
    k: int,
    word: str,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
) -> PromptAnalysis | None:
    """``analyze`` of the text with ``word + " "`` inserted at the start of
    WORD token ``k``, rescored from ``analysis`` (of the same ``lex`` and
    ``config``); None, for the caller to ``analyze``, if ``word`` is not all
    letters or a token turns semantic or not, which moves the stem order.

    Phrase matching restarts at a position the old scan stood on, at least
    ``MAX_PHRASE_WORDS`` before ``k``, and stops where it meets the old scan
    past ``k``. Only those tokens and token ``k + 1``, whose sentence start
    moved, are relabelled; the redundancy flags stay.
    """
    seq = analysis.seq
    if not word.isalpha() or seq.kinds[k] is not TokenKind.WORD:
        return None
    lex = lex if lex is not None else default_lexicon()
    pos, shift = seq.starts[k], len(word.encode("utf-8")) + 1
    new_seq = TokenSequence(
        insert_at(seq.source, pos, word),
        seq.texts[:k] + (word,) + seq.texts[k:],
        seq.kinds[:k] + (TokenKind.WORD,) + seq.kinds[k:],
        seq.starts[:k] + (pos,) + tuple(map(shift.__add__, seq.starts[k:])),
        seq.ends[:k] + (pos + shift - 1,) + tuple(map(shift.__add__, seq.ends[k:])),
    )
    new_seq.__dict__["lowered"] = seq.lowered[:k] + (word.lower(),) + seq.lowered[k:]

    old = analysis.matches
    start = max(k - MAX_PHRASE_WORDS, 0)
    first = bisect_right(old, start, key=lambda m: m.end)  # the first to end past start
    if first < len(old) and old[first].start < start:
        start = old[first].start
    # Past k the new scan agrees with the old from any position both stand on.
    inside = {j + 1 for m in old[first:] for j in range(m.start + 1, m.end)}
    found, stop = scan_phrases(new_seq, lex, start, k + 1, inside)
    tail = [PhraseMatch(m.category, m.start + 1, m.end + 1, m.phrase)
            for m in old[first:] if m.start >= stop - 1]
    matches = (*old[:first], *found, *tail)

    labels = list(analysis.labels)
    labels.insert(k, _FUNCTION_LABEL)  # so that a semantic new word falls back
    # With no token turning semantic or not, S and the redundancy flags
    # stay: a repeat within the span was a repeat before, and the old flags
    # are the whole text's. Only the concrete count moves.
    s, denom = analysis.semantic_count, max(analysis.semantic_count, 1)
    concrete = round(analysis.concreteness * denom)
    end = min(max(stop, k + 2), len(new_seq))
    span = _label_span(new_seq, start, end, matches, lex, config)
    for idx, label in enumerate(span, start):
        before = labels[idx]
        if (label.kind is LabelKind.SEMANTIC) != (before.kind is LabelKind.SEMANTIC):
            return None
        if not before.redundant:
            labels[idx] = label
            concrete += label.concrete - before.concrete
    w, r, c = analysis.word_count + 1, analysis.redundancy, concrete / denom
    sde = density_score(s, w, r, c)
    return PromptAnalysis(sde, density_class(sde, config), w, s, r, c, tuple(labels), new_seq,
                          matches)
