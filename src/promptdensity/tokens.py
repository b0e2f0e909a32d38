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
from functools import cached_property, lru_cache


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
        """Each token's lowercased text, None for punctuation; ``tokenize``
        fills it, and a hand-built sequence builds it on first use."""
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


# Distinct chunks whose tokens ``_split_chunk`` remembers. Prompts draw on
# a small vocabulary, so nearly every chunk of a prompt has been seen before.
CHUNK_MEMO_SIZE = 4096
# Longer chunks and words (a URL, a paragraph of an unspaced script) seldom
# repeat and bypass the memos here and in ``scoring``, so a full memo's size
# does not grow with the longest text a process has seen.
MEMO_MAX_CHARS = 64


@lru_cache(maxsize=CHUNK_MEMO_SIZE)
def _split_chunk(chunk: str) -> tuple[tuple[str, ...], tuple[TokenKind, ...],
                                      tuple[str | None, ...], tuple[int, ...], tuple[int, ...]]:
    """The tokens of one whitespace-free chunk: their texts, kinds and
    lowered texts (None for punctuation), and their UTF-8 byte starts and
    ends relative to the chunk. Raises UnicodeEncodeError on a lone surrogate."""
    hi = len(chunk)
    # Leading punctuation run.
    lead = 0
    while lead < hi and _is_punct_char(chunk[lead]):
        lead += 1
    # Trailing punctuation run (never past the leading run).
    trail = hi
    while trail > lead and _is_punct_char(chunk[trail - 1]):
        trail -= 1
    texts: list[str] = []
    kinds: list[TokenKind] = []
    if lead:
        texts.append(chunk[:lead])
        kinds.append(TokenKind.PUNCTUATION)
    if trail > lead:
        texts.append(chunk[lead:trail])
        kinds.append(_classify_core(texts[-1]))
    if hi > trail:
        texts.append(chunk[trail:])
        kinds.append(TokenKind.PUNCTUATION)
    lowered = tuple(None if kind is TokenKind.PUNCTUATION else text.lower()
                    for text, kind in zip(texts, kinds))
    starts, ends, at = [], [], 0
    for piece in texts:
        starts.append(at)
        at += len(piece.encode("utf-8"))
        ends.append(at)
    return tuple(texts), tuple(kinds), lowered, tuple(starts), tuple(ends)


def tokenize(text: str) -> TokenSequence:
    """Split text into span-tracked tokens.

    Splits on Unicode whitespace; punctuation runs at the edges of a chunk
    become PUNCTUATION tokens; digit chunks become NUMBER; symbol-only
    chunks (operators, integral signs, ...) become MATH_SYMBOL; everything
    else is a WORD. Deterministic, and empty input yields an empty sequence.
    Spans are byte offsets into the UTF-8 encoding of ``text``.
    """
    texts: list[str] = []
    kinds: list[TokenKind] = []
    lowered: list[str | None] = []
    starts: list[int] = []
    ends: list[int] = []
    ascii_text = text.isascii()  # then a char offset is a byte offset
    char_at = byte_at = 0  # where the last chunk ended
    for m in _CHUNK_RE.finditer(text):
        chunk = m[0]
        split = _split_chunk if len(chunk) <= MEMO_MAX_CHARS else _split_chunk.__wrapped__
        chunk_texts, chunk_kinds, chunk_lowered, chunk_starts, chunk_ends = split(chunk)
        lo, hi = m.span()
        if ascii_text:
            at = lo
        else:  # encode only the whitespace since the last chunk
            at = byte_at + len(text[char_at:lo].encode("utf-8"))
            char_at, byte_at = hi, at + chunk_ends[-1]
        texts += chunk_texts
        kinds += chunk_kinds
        lowered += chunk_lowered
        starts += map(at.__add__, chunk_starts)
        ends += map(at.__add__, chunk_ends)
    seq = TokenSequence(text, tuple(texts), tuple(kinds), tuple(starts), tuple(ends))
    seq.__dict__["lowered"] = tuple(lowered)
    return seq


def insert_at(text: str, pos: int, phrase: str) -> str:
    """Insert ``phrase`` and a space at byte offset ``pos`` of ``text``."""
    raw = text.encode("utf-8")
    return (raw[:pos] + (phrase + " ").encode("utf-8") + raw[pos:]).decode("utf-8")


def word_count(seq: TokenSequence) -> int:
    """Number of non-punctuation tokens; the denominator of the density score."""
    return seq.word_count
