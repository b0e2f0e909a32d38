"""Whitespace tokenizer with byte-span tracking.

Tokens are whitespace-delimited chunks with leading/trailing punctuation
split off into their own tokens. The word count of a sequence excludes
punctuation tokens; every downstream density computation uses that count
as its denominator.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
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
    """Ordered tokens over one source string."""

    source: str
    tokens: tuple[Token, ...] = field(default=())

    @property
    def word_count(self) -> int:
        return len(self.tokens) - self.lowered.count(None)

    @cached_property
    def lowered(self) -> tuple[str | None, ...]:
        """Each token's lowercased text, None for punctuation; built once."""
        return tuple(
            None if t.kind is TokenKind.PUNCTUATION else t.text.lower() for t in self.tokens
        )

    def __len__(self) -> int:
        return len(self.tokens)


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
    tokens: list[Token] = []
    # Byte offsets come from a cursor at the last token edge: each token
    # encodes only the gap before it and its own text.
    char_at = byte_at = 0

    def emit(cstart: int, cend: int, kind: TokenKind) -> None:
        nonlocal char_at, byte_at
        piece = text[cstart:cend]
        start = byte_at + len(text[char_at:cstart].encode("utf-8"))
        char_at, byte_at = cend, start + len(piece.encode("utf-8"))
        tokens.append(Token(piece, start, byte_at, kind))

    for m in _CHUNK_RE.finditer(text):
        lo, hi = m.start(), m.end()
        # Leading punctuation run.
        lead = lo
        while lead < hi and _is_punct_char(text[lead]):
            lead += 1
        # Trailing punctuation run (never past the leading run).
        trail = hi
        while trail > lead and _is_punct_char(text[trail - 1]):
            trail -= 1
        if lead > lo:
            emit(lo, lead, TokenKind.PUNCTUATION)
        if trail > lead:
            emit(lead, trail, _classify_core(text[lead:trail]))
        if hi > trail:
            emit(trail, hi, TokenKind.PUNCTUATION)
    return TokenSequence(source=text, tokens=tuple(tokens))


def insert_at(text: str, pos: int, phrase: str) -> str:
    """Insert ``phrase`` and a space at byte offset ``pos`` of ``text``."""
    raw = text.encode("utf-8")
    return (raw[:pos] + (phrase + " ").encode("utf-8") + raw[pos:]).decode("utf-8")


def word_count(seq: TokenSequence) -> int:
    """Number of non-punctuation tokens; the denominator of the density score."""
    return seq.word_count
