"""Whitespace tokenizer with byte-span tracking.

Tokens are whitespace-delimited chunks with leading/trailing punctuation
split off into their own tokens. The word count of a sequence excludes
punctuation tokens; every downstream density computation uses that count
as its denominator.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class TokenKind(Enum):
    WORD = "word"
    NUMBER = "number"
    MATH_SYMBOL = "math_symbol"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class Token:
    """A single token with its half-open byte span into the source text."""

    text: str
    start: int
    end: int
    kind: TokenKind


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens over one source string, held as parallel columns:
    each token's text, kind and half-open byte span."""

    source: str
    texts: tuple[str, ...] = ()
    kinds: tuple[TokenKind, ...] = ()
    starts: tuple[int, ...] = ()
    ends: tuple[int, ...] = ()

    @property
    def word_count(self) -> int:
        return len(self.texts) - self.lowered.count(None)

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        """The tokens as ``Token`` objects; built on first use."""
        return tuple(map(Token, self.texts, self.starts, self.ends, self.kinds))

    @cached_property
    def lowered(self) -> tuple[str | None, ...]:
        """Each token's lowercased text, None for punctuation; built once."""
        return tuple(
            None if kind is TokenKind.PUNCTUATION else text.lower()
            for text, kind in zip(self.texts, self.kinds)
        )

    def __len__(self) -> int:
        return len(self.texts)


_CHUNK_RE = re.compile(r"\S+")
# Digits with optional sign, thousands groups, and one decimal point.
_NUMBER_RE = re.compile(r"[+\-−]?\d[\d,]*(?:\.\d+)?")


def _is_punct_char(ch: str) -> bool:
    # Letters and digits are never in category P, so skip the lookup.
    return not ch.isalnum() and unicodedata.category(ch).startswith("P")


def _is_number(text: str) -> bool:
    if _NUMBER_RE.fullmatch(text):
        return True
    return all(ch.isdigit() for ch in text)


def _classify_core(text: str) -> TokenKind:
    if text.isalpha():  # letters are never digits: not a number, and alnum
        return TokenKind.WORD
    if _is_number(text):
        return TokenKind.NUMBER
    if not any(ch.isalnum() for ch in text):
        return TokenKind.MATH_SYMBOL
    return TokenKind.WORD


def tokenize(text: str) -> TokenSequence:
    """Split text into span-tracked tokens.

    Splits on Unicode whitespace; punctuation runs at the edges of a chunk
    become PUNCTUATION tokens; digit chunks become NUMBER; symbol-only
    chunks (operators, integral signs, ...) become MATH_SYMBOL; everything
    else is a WORD. Deterministic, and empty input yields an empty sequence.
    Spans are byte offsets into the UTF-8 encoding of ``text``.
    """
    kinds: list[TokenKind] = []
    cuts: list[int] = []  # char offsets: each token's start, then its end
    for m in _CHUNK_RE.finditer(text):
        lo, hi = m.span()
        # Leading punctuation run.
        lead = lo
        while lead < hi and _is_punct_char(text[lead]):
            lead += 1
        # Trailing punctuation run (never past the leading run).
        trail = hi
        while trail > lead and _is_punct_char(text[trail - 1]):
            trail -= 1
        if lead > lo:
            cuts += (lo, lead)
            kinds.append(TokenKind.PUNCTUATION)
        if trail > lead:
            cuts += (lead, trail)
            kinds.append(_classify_core(text[lead:trail]))
        if hi > trail:
            cuts += (trail, hi)
            kinds.append(TokenKind.PUNCTUATION)
    texts = tuple(map(text.__getitem__, map(slice, cuts[::2], cuts[1::2])))
    if not text.isascii():  # else a char offset is a byte offset
        # A cursor turns each cut into bytes, encoding only the text since the last.
        char_at = byte_at = 0
        for n, cut in enumerate(cuts):
            byte_at += len(text[char_at:cut].encode("utf-8"))
            char_at, cuts[n] = cut, byte_at
    return TokenSequence(text, texts, tuple(kinds), tuple(cuts[::2]), tuple(cuts[1::2]))


def insert_at(text: str, pos: int, phrase: str) -> str:
    """Insert ``phrase`` and a space at byte offset ``pos`` of ``text``."""
    raw = text.encode("utf-8")
    return (raw[:pos] + (phrase + " ").encode("utf-8") + raw[pos:]).decode("utf-8")


def word_count(seq: TokenSequence) -> int:
    """Number of non-punctuation tokens; the denominator of the density score."""
    return seq.word_count
