"""Categorized phrase lexicon and leftmost-longest phrase matching.

The lexicon file format is plain UTF-8 text, one entry per line:

    CATEGORY<TAB>phrase

``#`` starts a comment line and blank lines are ignored. Categories are
FILLER, HEDGE, META, TRANSITIONAL, NOMINALIZATION_SUFFIX, and UNIT. A
phrase may not appear under two categories. Phrases are stored lowercase
with single-space word separators; suffix entries are bare letter runs.

The dilution template bank shares the format with its own categories;
``read_data_file`` and ``tagged_lines`` read and split both files.
"""
from __future__ import annotations

from collections.abc import Container, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from importlib import resources

from .errors import LexiconFormatError
from .tokens import TokenSequence


class Category(Enum):
    FILLER = "FILLER"
    HEDGE = "HEDGE"
    META = "META"
    TRANSITIONAL = "TRANSITIONAL"
    NOMINALIZATION_SUFFIX = "NOMINALIZATION_SUFFIX"
    UNIT = "UNIT"


# Categories whose matches mark tokens as removable noise.
NOISE_CATEGORIES = (
    Category.FILLER,
    Category.HEDGE,
    Category.META,
    Category.TRANSITIONAL,
)

MAX_PHRASE_WORDS = 8


@dataclass(frozen=True)
class PhraseMatch:
    """One lexicon hit over token indices [start, end) of a TokenSequence."""

    category: Category
    start: int
    end: int
    phrase: str


@dataclass(frozen=True)
class Lexicon:
    """Immutable phrase sets keyed by category."""

    entries: dict[Category, frozenset[str]] = field(default_factory=dict)

    def phrases(self, category: Category) -> frozenset[str]:
        return self.entries.get(category, frozenset())

    # Index: first word -> [(word tuple, category)], longest first; built once.
    @cached_property
    def _phrase_index(self) -> dict[str, list[tuple[tuple[str, ...], Category]]]:
        index: dict[str, list[tuple[tuple[str, ...], Category]]] = {}
        for category in NOISE_CATEGORIES:
            for phrase in self.phrases(category):
                words = tuple(phrase.split(" "))
                index.setdefault(words[0], []).append((words, category))
        for bucket in index.values():
            bucket.sort(key=lambda e: (-len(e[0]), e[0]))
        return index


def _normalize_phrase(raw: str) -> str:
    return " ".join(raw.lower().split())


def read_data_file(path: str | None, shipped: str) -> str:
    """Content of the file at ``path``, or of the shipped data file ``shipped``."""
    if path is None:
        return resources.files("promptdensity.data").joinpath(shipped).read_text("utf-8")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def tagged_lines(content: str, categories: type[Enum], noun: str) -> Iterator[tuple]:
    """(line number, category, raw value) of each CATEGORY<TAB>value line
    but blanks and ``#`` comments; ``noun`` names the value in errors."""
    for lineno, line in enumerate(content.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "\t" not in line:
            raise LexiconFormatError(f"expected CATEGORY<TAB>{noun}", lineno)
        cat_text, _, value = line.partition("\t")
        try:
            category = categories(cat_text.strip())
        except ValueError:
            raise LexiconFormatError(f"unknown category {cat_text.strip()!r}", lineno) from None
        yield lineno, category, value


def parse_lexicon(content: str) -> Lexicon:
    """Parse lexicon file content; raises LexiconFormatError on bad lines."""
    sets: dict[Category, set[str]] = {c: set() for c in Category}
    owner: dict[str, Category] = {}
    for lineno, category, phrase_text in tagged_lines(content, Category, "phrase"):
        phrase = _normalize_phrase(phrase_text)
        if not phrase:
            raise LexiconFormatError("empty phrase", lineno)
        if len(phrase.split(" ")) > MAX_PHRASE_WORDS:
            raise LexiconFormatError(f"phrase longer than {MAX_PHRASE_WORDS} words", lineno)
        seen = owner.get(phrase)
        if seen is not None and seen is not category:
            raise LexiconFormatError(
                f"phrase {phrase!r} already in category {seen.value}", lineno
            )
        owner[phrase] = category
        sets[category].add(phrase)
    return Lexicon(entries={c: frozenset(s) for c, s in sets.items() if s})


def load_lexicon(path: str | None = None) -> Lexicon:
    """Load a lexicon file, or the shipped default when no path is given."""
    return parse_lexicon(read_data_file(path, "lexicon.txt"))


@cache
def default_lexicon() -> Lexicon:
    """Shipped seed lexicon, loaded once per process."""
    return load_lexicon()


def scan_phrases(
    seq: TokenSequence, lex: Lexicon, i: int = 0, rejoin_from: float = float("inf"),
    inside: Container[int] = (),
) -> tuple[list[PhraseMatch], int]:
    """Greedy leftmost-longest, case-insensitive phrase matching from token ``i``.

    Multi-word phrases only match runs of non-punctuation tokens separated
    by exactly one space in the source; matches never overlap. The scan
    runs to the end, or stops at the first position from ``rejoin_from`` on
    that it stands on and that is not in ``inside``; it returns its matches
    and the position it stopped at.
    """
    index = lex._phrase_index
    starts, ends = seq.starts, seq.ends
    lowered = seq.lowered  # None for punctuation, which matches no word
    source_bytes = seq.source.encode("utf-8")
    matches: list[PhraseMatch] = []
    while i < len(lowered) and (i < rejoin_from or i in inside):
        candidates = index.get(lowered[i], ())
        chosen: tuple[tuple[str, ...], Category] | None = None
        for words, category in candidates:
            end = i + len(words)
            if lowered[i:end] == words and all(
                source_bytes[ends[k - 1] : starts[k]] == b" "
                for k in range(i + 1, end)
            ):
                chosen = (words, category)
                break
        if chosen is None:
            i += 1
            continue
        words, category = chosen
        matches.append(PhraseMatch(category, i, i + len(words), " ".join(words)))
        i += len(words)
    return matches, i


def match_phrases(seq: TokenSequence, lex: Lexicon) -> list[PhraseMatch]:
    """Every phrase match of ``seq``: ``scan_phrases`` from token 0 to the end."""
    return scan_phrases(seq, lex)[0]
