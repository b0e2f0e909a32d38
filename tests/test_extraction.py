from __future__ import annotations

import pytest

from promptdensity.extraction import (
    AnswerFormat,
    ExtractionMethod,
    answer_words,
    extract_integer,
    extract_mc_letter,
    match_exact,
    score_response,
)

# ---------------------------------------------------------------------------
# Fixture suite: (kind, response, expected). Covers the primary pattern,
# fallback letter, last-integer, decimal rounding, normalized string match,
# and every no-extraction case coded incorrect.
# ---------------------------------------------------------------------------

MC_CASES = [
    ("The answer is B.", "B", ExtractionMethod.PRIMARY_PATTERN),
    ("the answer is b", "B", ExtractionMethod.PRIMARY_PATTERN),
    ("THE ANSWER IS: C", "C", ExtractionMethod.PRIMARY_PATTERN),
    ("After thinking, the answer is (D).", "D", ExtractionMethod.PRIMARY_PATTERN),
    ("The answer is A. No wait, the answer is C.", "C", ExtractionMethod.PRIMARY_PATTERN),
    ("The answer is 'B'.", "B", ExtractionMethod.PRIMARY_PATTERN),
    ("the answer is:  a", "A", ExtractionMethod.PRIMARY_PATTERN),
    ("I believe the answer is\nB) oxygen", "B", ExtractionMethod.PRIMARY_PATTERN),
    ("I lean toward A, since air is a mixture.", "A", ExtractionMethod.FALLBACK),
    ("Definitely option (C) here.", "C", ExtractionMethod.FALLBACK),
    ("b seems right", "B", ExtractionMethod.FALLBACK),
    ("Between A and D, hard call.", "A", ExtractionMethod.FALLBACK),
    ("The answer is Boron.", None, ExtractionMethod.NONE),  # no standalone letter
    ("No idea.", None, ExtractionMethod.NONE),
    ("It depends on many things.", None, ExtractionMethod.NONE),
    ("", None, ExtractionMethod.NONE),
    ("The answer is E.", None, ExtractionMethod.NONE),
]

INT_CASES = [
    ("First 12, then total 15", 15),
    ("= 42", 42),
    ("≈ 42.6", 43),
    ("42.5", 43),
    ("-42.5 degrees", -43),
    ("roughly 42.4", 42),
    ("answer: 1,234 total", 1234),
    ("It is -7.", -7),
    ("3 + 4 makes 7", 7),
    ("pi is 3.14159 so about 3", 3),
    ("between 3-5 items", 5),
    ("no numbers at all", None),
    ("", None),
]

EXACT_CASES = [
    ("The name is John Smith.", "john smith", True),
    ("JOHN SMITH", "john smith", True),
    ("It was John Smith, I believe.", "John Smith", True),
    ("The 25th name is: John-Smith", "john smith", True),
    ("Johnson Smith", "john smith", False),
    ("John", "john smith", False),
    ("Smith John", "john smith", False),
    ("", "john smith", False),
    ("Maria de la Cruz was 3rd", "maria de la cruz", True),
    ("I could not find the name.", "john smith", False),
]


@pytest.mark.parametrize("response,letter,method", MC_CASES)
def test_mc_letter_cases(response, letter, method):
    got, got_method = extract_mc_letter(response)
    assert got == letter
    assert got_method is method


@pytest.mark.parametrize("response,value", INT_CASES)
def test_integer_cases(response, value):
    assert extract_integer(response) == value


@pytest.mark.parametrize("response,truth,expected", EXACT_CASES)
def test_exact_cases(response, truth, expected):
    assert match_exact(response, truth) is expected


def test_fixture_suite_size():
    assert len(MC_CASES) + len(INT_CASES) + len(EXACT_CASES) >= 40


def test_mc_case_mapping_invariance():
    for response, _letter, _method in MC_CASES:
        lowered = extract_mc_letter(response.lower())
        uppered = extract_mc_letter(response.upper())
        assert lowered == uppered == extract_mc_letter(response)


def test_extraction_total_no_exceptions():
    weird = ["", "\x00", "🤖" * 10, "." * 500, "\n\n\t", "a" * 10000]
    for response in weird:
        extract_mc_letter(response)
        extract_integer(response)
        match_exact(response, "anything")


def test_score_response_mc():
    outcome = score_response("The answer is B.", AnswerFormat.MC_LETTER, "B")
    assert outcome.correct and outcome.extracted == "B"
    outcome = score_response("No idea.", AnswerFormat.MC_LETTER, "B")
    assert not outcome.correct and outcome.method is ExtractionMethod.NONE


def test_score_response_integer():
    assert score_response("total 15", AnswerFormat.INTEGER, "15").correct
    assert not score_response("total 14", AnswerFormat.INTEGER, "15").correct
    assert not score_response("none found", AnswerFormat.INTEGER, "15").correct


def test_score_response_exact():
    assert score_response("it is John Smith", AnswerFormat.EXACT_STRING, "john smith").correct
    assert not score_response("Johnson Smith", AnswerFormat.EXACT_STRING, "john smith").correct


def test_no_extraction_is_incorrect():
    for fmt, truth in [
        (AnswerFormat.MC_LETTER, "A"),
        (AnswerFormat.INTEGER, "5"),
        (AnswerFormat.EXACT_STRING, "someone"),
    ]:
        outcome = score_response("mmm", fmt, truth)
        assert outcome.correct is False
        if outcome.method is ExtractionMethod.NONE:
            assert outcome.extracted is None


@pytest.mark.parametrize("response,truth,expected", [
    # Before, only [0-9a-z] counted as word characters, so these truths had
    # no words and no reply could match them.
    ("The answer is 東京.", "東京", True),
    ("Ответ: Москва", "Москва", True),
    ("Ответ: Минск", "Москва", False),
    ("उत्तर: हिन्दी", "हिन्दी", True),
    ("उत्तर: का", "की", False),  # vowel signs are part of the word
    ("It is Zürich.", "ZÜRICH", True),
    ("It is Zurich.", "Zürich", False),  # before, "Zürich" was the words "z rich"
    ("It is Zu\u0308rich.", "Z\u00fcrich", True),  # decomposed and composed forms
    ("STRASSE", "Straße", True),  # case folding, not lowercasing
    ("snake_case", "snake case", True),
])
def test_exact_match_in_any_script(response, truth, expected):
    assert match_exact(response, truth) is expected


@pytest.mark.parametrize("response,truth,expected", [
    # Before, a truth in a script written without spaces only matched as a
    # whole word between spaces or punctuation.
    ("答えは東京です。", "東京", True),
    ("東京です", "東京", True),
    ("東京都です", "東京", True),
    ("答えは大阪です。", "東京", False),
    ("คำตอบคือกรุงเทพ", "กรุงเทพ", True),
    ("Tokyoite lives here", "Tokyo", False),  # spaced scripts keep the word rule
])
def test_exact_match_in_a_script_without_spaces(response, truth, expected):
    assert match_exact(response, truth) is expected


def test_exact_match_of_a_truth_without_words_is_false():
    # Without the empty-needle guard an empty truth would be found in every reply.
    assert match_exact("!!!", "!!!") is False
    assert match_exact("The answer is —.", "—") is False
    assert match_exact("a \u0301", "\u0301") is False  # a lone combining mark is no word


def test_ascii_and_non_ascii_text_split_into_the_same_words():
    # Text that folds to ASCII and text that does not are cut into words by
    # the same rule, so appending a non-ASCII word leaves the others alone.
    text = "R2-D2 said: THE_answer is 42%, not 4.2!"
    words = ["r2", "d2", "said", "the", "answer", "is", "42", "not", "4", "2"]
    assert answer_words(text) == words
    assert answer_words(text + " Été") == words + ["été"]
    assert answer_words("\u017ftra\u00dfe 7\u212a") == ["strasse", "7k"]  # folds to ASCII


@pytest.mark.parametrize("response,value", [
    # Before, the last integer won even after the cue: these scored 7 and 2.
    ("The answer is 42. That is 6 times 7.", 42),
    ("6 * 7 = 42. The answer is 42. Step count: 2", 42),
    ("The answer is 12. No wait, the answer is -3.5, so 4 steps.", -4),
])
def test_integer_follows_the_answer_cue(response, value):
    assert extract_integer(response) == value
    outcome = score_response(response, AnswerFormat.INTEGER, str(value))
    assert outcome.correct and outcome.method is ExtractionMethod.PRIMARY_PATTERN


@pytest.mark.parametrize("response", ["3 + 4 makes 7", "3 + 4 = 7, so the answer is seven."])
def test_integer_without_a_number_after_the_cue_is_a_fallback(response):
    outcome = score_response(response, AnswerFormat.INTEGER, "7")
    assert outcome.correct and outcome.method is ExtractionMethod.FALLBACK


def test_letter_fallback_prefers_an_uppercase_letter():
    # Before, the article "a" was taken as option A.
    response = "This is a tricky one. The largest value is 90, so C."
    assert extract_mc_letter(response) == ("C", ExtractionMethod.FALLBACK)
    assert extract_mc_letter("so it is d, not a") == ("D", ExtractionMethod.FALLBACK)
