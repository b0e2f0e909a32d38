"""Deterministic answer extraction and trial scoring.

Extraction is pure and total: any response maps to an outcome, and a
response with no extractable answer is coded incorrect.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

from .errors import PromptDensityError


class AnswerFormat(Enum):
    MC_LETTER = "mc_letter"
    INTEGER = "integer"
    EXACT_STRING = "exact_string"


class ExtractionMethod(Enum):
    PRIMARY_PATTERN = "primary_pattern"
    FALLBACK = "fallback"
    NONE = "none"


MC_LETTERS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class TrialOutcome:
    """Extraction result plus correctness for one model response."""

    extracted: str | None
    correct: bool
    method: ExtractionMethod


_PRIMARY_RE = re.compile(r"the\s+answer\s+is", re.IGNORECASE)
# Letter right after the pattern, allowing ':'/'*'/quotes/spaces between and
# optional bracket around the letter; the letter must not start a word.
_AFTER_PATTERN_RE = re.compile(r"^[\s:*\"'(\[]*([A-Za-z])(?![A-Za-z0-9])")
_STANDALONE_LETTER_RE = re.compile(r"(?<![A-Za-z])([A-Za-z])(?![A-Za-z])")
# Integer literals with optional sign, thousands separators, or a decimal tail.
_NUMBER_RE = re.compile(r"(?<![\d.])[-−]?\d{1,3}(?:,\d{3})+(?:\.\d+)?|(?<![\d,.])[-−]?\d+(?:\.\d+)?")


def extract_mc_letter(response: str) -> tuple[str | None, ExtractionMethod]:
    """Extract a multiple-choice letter.

    Primary: the first valid letter after the last occurrence of the
    pattern "the answer is". Fallback: the first standalone valid letter
    anywhere in the response, an uppercase one before any lowercase one
    (so the article "a" is no option A).
    """
    matches = list(_PRIMARY_RE.finditer(response))
    if matches:
        tail = response[matches[-1].end() :]
        m = _AFTER_PATTERN_RE.match(tail)
        if m and m.group(1).upper() in MC_LETTERS:
            return m.group(1).upper(), ExtractionMethod.PRIMARY_PATTERN
    letters = [m.group(1) for m in _STANDALONE_LETTER_RE.finditer(response)
               if m.group(1).upper() in MC_LETTERS]
    if letters:
        letter = next((c for c in letters if c.isupper()), letters[0])
        return letter.upper(), ExtractionMethod.FALLBACK
    return None, ExtractionMethod.NONE


def _extract_integer(response: str) -> tuple[int | None, ExtractionMethod]:
    """The integer of ``extract_integer`` and how it was found."""
    cues = list(_PRIMARY_RE.finditer(response))
    after_cue = _NUMBER_RE.search(response, cues[-1].end()) if cues else None
    if after_cue:
        literal, method = after_cue.group(), ExtractionMethod.PRIMARY_PATTERN
    else:
        literals = _NUMBER_RE.findall(response)
        if not literals:
            return None, ExtractionMethod.NONE
        literal, method = literals[-1], ExtractionMethod.FALLBACK
    literal = literal.replace(",", "").replace("−", "-")
    return int(Decimal(literal).quantize(Decimal("1"), rounding=ROUND_HALF_UP)), method


def extract_integer(response: str) -> int | None:
    """Extract an integer: the first after the last occurrence of "the
    answer is", else the last in the response. Decimals round to the
    nearest integer with halves away from zero."""
    return _extract_integer(response)[0]


def answer_words(text: str) -> list[str]:
    """The words of an exact-string answer, in any script: case-folded runs
    of letters and digits with the marks that combine with them, composed
    canonically. Punctuation, symbols and ``_`` separate words."""
    folded = unicodedata.normalize("NFC", text.casefold())
    kept = "".join(c if c.isalnum() or unicodedata.category(c)[0] == "M" else " " for c in folded)
    return [word for word in kept.split() if any(c.isalnum() for c in word)]


# Scripts written without spaces between words (Han, kana, Thai, Lao, Khmer,
# Myanmar), by Unicode name prefix: their words have no edges to match.
_UNSPACED = ("CJK UNIFIED", "CJK COMPATIBILITY", "HIRAGANA", "KATAKANA", "THAI", "LAO",
             "KHMER", "MYANMAR")


def match_exact(response: str, truth: str) -> bool:
    """Case-insensitive, punctuation-stripped whole-phrase containment of
    the ground truth in the response; a truth in scripts without spaces is
    only contained. A truth with no words matches nothing."""
    folded = unicodedata.normalize("NFC", truth.strip().casefold())
    if folded and all(unicodedata.name(c, "").startswith(_UNSPACED) for c in folded):
        return folded in unicodedata.normalize("NFC", response.casefold())
    needle = answer_words(truth)
    haystack = answer_words(response)
    if not needle or len(needle) > len(haystack):
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return True
    return False


def score_response(response: str, answer_format: AnswerFormat, ground_truth: str) -> TrialOutcome:
    """Dispatch to the extractor for the answer format and compare."""
    if answer_format is AnswerFormat.MC_LETTER:
        letter, method = extract_mc_letter(response)
        correct = letter is not None and letter == ground_truth.strip().upper()
        return TrialOutcome(letter, correct, method)
    if answer_format is AnswerFormat.INTEGER:
        value, method = _extract_integer(response)
        if value is None:
            return TrialOutcome(None, False, method)
        correct = value == int(str(ground_truth).strip())
        return TrialOutcome(str(value), correct, method)
    if answer_format is AnswerFormat.EXACT_STRING:
        matched = match_exact(response, ground_truth)
        extracted = ground_truth if matched else None
        method = ExtractionMethod.PRIMARY_PATTERN if matched else ExtractionMethod.NONE
        return TrialOutcome(extracted, matched, method)
    raise PromptDensityError(f"unknown answer format {answer_format!r}")
