from __future__ import annotations

import random
import re
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptdensity import tokens
from promptdensity.tokens import Token, TokenKind, TokenSequence, tokenize, word_count


def kinds(text):
    return [(t.text, t.kind) for t in tokenize(text).tokens]


def test_simple_sentence():
    seq = tokenize("Explain AI.")
    assert [(t.text, t.kind) for t in seq.tokens] == [
        ("Explain", TokenKind.WORD),
        ("AI", TokenKind.WORD),
        (".", TokenKind.PUNCTUATION),
    ]
    assert seq.word_count == 2


def test_empty_input():
    seq = tokenize("")
    assert len(seq) == 0
    assert word_count(seq) == 0


def test_number_token():
    seq = tokenize("in 80 words")
    assert [t.kind for t in seq.tokens] == [TokenKind.WORD, TokenKind.NUMBER, TokenKind.WORD]
    assert seq.word_count == 3


def test_math_symbols_and_subscripts():
    seq = tokenize("O ₂ + N ₂")
    assert [t.kind for t in seq.tokens] == [
        TokenKind.WORD,
        TokenKind.NUMBER,
        TokenKind.MATH_SYMBOL,
        TokenKind.WORD,
        TokenKind.NUMBER,
    ]


def test_leading_and_trailing_punctuation_split():
    assert kinds("(not compound):") == [
        ("(", TokenKind.PUNCTUATION),
        ("not", TokenKind.WORD),
        ("compound", TokenKind.WORD),
        ("):", TokenKind.PUNCTUATION),
    ]


def test_internal_punctuation_stays_in_word():
    assert kinds("step-by-step I'm dL/dW") == [
        ("step-by-step", TokenKind.WORD),
        ("I'm", TokenKind.WORD),
        ("dL/dW", TokenKind.WORD),
    ]


def test_decimal_number():
    seq = tokenize("about 3.14 radians")
    assert seq.tokens[1].kind == TokenKind.NUMBER
    assert seq.tokens[1].text == "3.14"


def test_pure_punctuation_chunk():
    seq = tokenize("wait ... done")
    assert [t.kind for t in seq.tokens] == [
        TokenKind.WORD,
        TokenKind.PUNCTUATION,
        TokenKind.WORD,
    ]
    assert seq.word_count == 2


def test_spans_are_byte_offsets_and_reconstruct():
    text = "Identify the mixture (not compound): O ₂ + N ₂."
    raw = text.encode("utf-8")
    seq = tokenize(text)
    prev_end = 0
    for tok in seq.tokens:
        assert 0 <= tok.start < tok.end <= len(raw)
        assert tok.start >= prev_end  # ordered, non-overlapping
        assert raw[tok.start : tok.end].decode("utf-8") == tok.text
        prev_end = tok.end
    # Tokens plus inter-token gaps reconstruct the source exactly.
    pieces = []
    cursor = 0
    for tok in seq.tokens:
        pieces.append(raw[cursor : tok.start])
        pieces.append(raw[tok.start : tok.end])
        cursor = tok.end
    pieces.append(raw[cursor:])
    assert b"".join(pieces) == raw


def test_span_lengths_bounded_by_source():
    for text in ("hello world", "a ₂ b", "—dash— text!"):
        seq = tokenize(text)
        assert sum(t.end - t.start for t in seq.tokens) <= len(text.encode("utf-8"))


def test_tokenize_idempotent_property():
    rng = random.Random(1234)
    alphabet = list("abc XYZ 0123 .,!?()+-*/:;'\"<>∫₂é漢 \t\n")
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        first = tokenize(text)
        second = tokenize(text)
        assert first == second
        raw = text.encode("utf-8")
        for tok in first.tokens:
            assert raw[tok.start : tok.end].decode("utf-8") == tok.text


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Explain artificial intelligence briefly.", 4),
        ("", 0),
        ("Solve 2+2.", 2),
    ],
)
def test_word_counts(text, expected):
    assert word_count(tokenize(text)) == expected


def test_arc_diluted_word_count(arc_variants):
    # The printed diluted text has 91 whitespace words; punctuation tokens
    # are split off and excluded from the count.
    assert word_count(tokenize(arc_variants["diluted"])) == 91


# ---------------------------------------------------------------------------
# The shortcuts are exact: the earlier tokenizer, kept verbatim as an oracle
# ---------------------------------------------------------------------------

_CHUNK_RE = re.compile(r"\S+")
# Digits with optional sign, thousands groups, and one decimal point.
_NUMBER_RE = re.compile(r"[+\-−]?\d[\d,]*(?:\.\d+)?")


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _is_number(text: str) -> bool:
    if _NUMBER_RE.fullmatch(text):
        return True
    return all(ch.isdigit() for ch in text)


def _classify_core(text: str) -> TokenKind:
    if _is_number(text):
        return TokenKind.NUMBER
    if not any(ch.isalnum() for ch in text):
        return TokenKind.MATH_SYMBOL
    return TokenKind.WORD


def _oracle_tokenize(text: str) -> TokenSequence:
    """Split text into span-tracked tokens.

    Splits on Unicode whitespace; punctuation runs at the edges of a chunk
    become PUNCTUATION tokens; digit chunks become NUMBER; symbol-only
    chunks (operators, integral signs, ...) become MATH_SYMBOL; everything
    else is a WORD. Deterministic, and empty input yields an empty sequence.
    Spans are byte offsets into the UTF-8 encoding of ``text``.
    """
    tokens: list[Token] = []
    # Prefix sums of the UTF-8 byte length give char -> byte offsets.
    byte_at = [0] * (len(text) + 1)
    for i, ch in enumerate(text):
        byte_at[i + 1] = byte_at[i] + len(ch.encode("utf-8"))

    def emit(cstart: int, cend: int, kind: TokenKind) -> None:
        tokens.append(Token(text[cstart:cend], byte_at[cstart], byte_at[cend], kind))

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
    return TokenSequence(text, tuple(t.text for t in tokens), tuple(t.kind for t in tokens),
                         tuple(t.start for t in tokens), tuple(t.end for t in tokens))


# Any code point, plus the characters that sit at token edges and a lone
# surrogate.
_EDGY_TEXT = st.text(
    st.one_of(
        st.characters(), st.sampled_from(" \t\n.,;:!?()'\"-+−/*<>…«»¿1234567890²₂Ⅻ٣éß漢∫\ud800")
    )
)


@settings(max_examples=300, deadline=None)
@given(_EDGY_TEXT)
def test_tokenize_equals_earlier_tokenizer(text):
    try:
        expected = _oracle_tokenize(text)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 bytes
        with pytest.raises(UnicodeEncodeError):
            tokenize(text)
        return
    assert tokenize(text) == expected


def test_shortcuts_hold_for_every_code_point():
    # _classify_core returns WORD for letters without asking _is_number,
    # and _is_punct_char asks for the category only of non-alphanumerics.
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        if ch.isalpha():
            assert not _is_number(ch) and not _NUMBER_RE.match(ch), hex(cp)
        if ch.isalnum():
            assert not unicodedata.category(ch).startswith("P"), hex(cp)


def test_lowered_is_lowercase_text_or_none():
    seq = tokenize("Which ONE, of «Σ» 2?")
    assert seq.lowered == ("which", "one", None, "of", None, "σ", None, "2", None)


# ---------------------------------------------------------------------------
# The chunk memo: cold, warm and past its bound, the oracle's result
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(_EDGY_TEXT)
def test_tokenize_equals_earlier_tokenizer_cold_and_warm(text):
    tokens._split_chunk.cache_clear()
    try:
        expected = _oracle_tokenize(text)
    except UnicodeEncodeError:
        for _ in range(2):
            with pytest.raises(UnicodeEncodeError):
                tokenize(text)
        return
    for _ in range(2):  # the second call finds every chunk in the memo
        got = tokenize(text)
        assert got == expected
        assert got.lowered == expected.lowered


def test_a_chunk_that_raises_is_not_remembered():
    tokens._split_chunk.cache_clear()
    with pytest.raises(UnicodeEncodeError):
        tokenize("ok \ud800x fine")
    assert tokens._split_chunk.cache_info().currsize == 1  # "ok", the chunk before it


def test_more_distinct_chunks_than_the_bound():
    rng = random.Random(7)
    letters = "abcdefghijklmnopqrstuvwxyzéßΣж漢"
    words = {"".join(rng.choice(letters) for _ in range(rng.randrange(2, 9)))
             for _ in range(2 * tokens.CHUNK_MEMO_SIZE)}
    marks = ("", "", "(", "«", ".", ",", "):")
    text = " ".join(rng.choice(marks) + w + rng.choice(marks) for w in sorted(words))
    assert len(set(text.split())) > tokens.CHUNK_MEMO_SIZE
    tokens._split_chunk.cache_clear()
    for _ in range(2):  # the second pass evicts what the first put in
        got = tokenize(text)
        expected = _oracle_tokenize(text)
        assert got == expected and got.lowered == expected.lowered
        info = tokens._split_chunk.cache_info()
        assert info.currsize <= info.maxsize == tokens.CHUNK_MEMO_SIZE


def test_a_long_chunk_bypasses_the_memo():
    long_chunk = "«" + "ab漢é" * 20 + "»."
    text = f"short {long_chunk} words {long_chunk}"
    tokens._split_chunk.cache_clear()
    got = tokenize(text)
    expected = _oracle_tokenize(text)
    assert got == expected and got.lowered == expected.lowered
    assert tokens._split_chunk.cache_info().currsize == 2  # "short" and "words"
