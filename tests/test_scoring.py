from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from promptdensity import scoring, tokens, wordlists
from promptdensity.errors import EmptyPromptError, PromptDensityError
from promptdensity.lexicon import (
    NOISE_CATEGORIES,
    Category,
    Lexicon,
    default_lexicon,
    match_phrases,
)
from promptdensity.scoring import (
    DEFAULT_CONFIG,
    DensityClass,
    LabelKind,
    TokenLabel,
    analyze,
    classify_tokens,
    component_scores,
    density_class,
    density_score,
    insert_word,
    stem,
)
from promptdensity.tokens import Token, TokenKind, TokenSequence, insert_at, tokenize

from conftest import ARC_CLASSES, ARC_TARGETS


# ---------------------------------------------------------------------------
# classify_tokens
# ---------------------------------------------------------------------------

def labels_for(text):
    seq = tokenize(text)
    return seq, classify_tokens(seq, default_lexicon())


def test_hedge_word_not_semantic():
    _, labels = labels_for("maybe")
    assert labels[0].kind is LabelKind.HEDGE


def test_table_rewrite_example_classification():
    seq, labels = labels_for("List 5 causes of the French Revolution with dates.")
    by_text = {seq.tokens[i].text: labels[i] for i in range(len(seq.tokens))}
    assert by_text["5"].kind is LabelKind.SEMANTIC and by_text["5"].concrete
    for word in ("the", "of", "with"):
        assert by_text[word].kind is LabelKind.FUNCTION
    for word in ("French", "Revolution"):
        assert by_text[word].kind is LabelKind.SEMANTIC
        assert by_text[word].concrete


def test_repeated_word_marked_redundant():
    seq, labels = labels_for("cause of failure cause")
    semantic = [(seq.tokens[i].text, labels[i]) for i in range(len(labels))
                if labels[i].kind is LabelKind.SEMANTIC]
    assert [lab.redundant for _, lab in semantic] == [False, False, True]
    # redundant repeats are never concrete
    assert semantic[2][1].concrete is False


def test_stemmer_folds_plural_and_inflection():
    assert stem("mixtures") == "mixtur"
    assert stem("sorted") == "sort"
    assert stem("running") == "runn"
    assert stem("was") == "was"  # too short to strip


def test_option_label_is_not_the_article():
    seq, labels = labels_for("pick one: A. air B. salt")
    by_text = {seq.tokens[i].text: labels[i] for i in range(len(seq.tokens))}
    assert by_text["A"].kind is LabelKind.SEMANTIC
    assert by_text["B"].kind is LabelKind.SEMANTIC


def test_option_label_before_colon_is_not_the_article():
    seq, labels = labels_for("Which gas? A: oxygen B: argon")
    a_label = labels[[t.text for t in seq.tokens].index("A")]
    assert a_label.kind is LabelKind.SEMANTIC


def test_numbers_math_symbols_units_concrete():
    seq, labels = labels_for("Add 40 km + 2 tokens")
    for i, tok in enumerate(seq.tokens):
        if tok.kind in (TokenKind.NUMBER, TokenKind.MATH_SYMBOL):
            assert labels[i].concrete
    by_text = {seq.tokens[i].text: labels[i] for i in range(len(seq.tokens))}
    assert by_text["km"].concrete
    assert by_text["tokens"].concrete


def test_named_entity_heuristic_mid_sentence_only():
    # "France" is capitalized mid-sentence: named-entity, concrete.
    seq, labels = labels_for("Paris is nice. Nice is a city in France.")
    france = [labels[i] for i, tok in enumerate(seq.tokens) if tok.text == "France"][0]
    assert france.concrete


def test_nominalization_and_abstract_words_not_concrete():
    seq, labels = labels_for("provide the derivation of the statement about intelligence")
    by_text = {seq.tokens[i].text: labels[i] for i in range(len(seq.tokens))}
    assert by_text["derivation"].concrete is False
    assert by_text["statement"].concrete is False  # -ment suffix
    assert by_text["intelligence"].concrete is False  # -ence suffix


def test_suffix_needs_a_stem_of_three_letters():
    # "unity" ends in -ity but leaves only "un" before it.
    seq, labels = labels_for("measure unity")
    assert labels[1].kind is LabelKind.SEMANTIC and labels[1].concrete


# ---------------------------------------------------------------------------
# component_scores / density_score / density_class
# ---------------------------------------------------------------------------

def test_component_scores_maximal_case():
    seq, labels = labels_for("Na + Cl salt 42")
    s, r, c = component_scores(labels, seq.word_count)
    assert (s, r, c) == (seq.word_count, 0.0, 1.0)


def test_component_scores_degenerate_zero_semantic():
    seq, labels = labels_for("maybe the of")
    s, r, c = component_scores(labels, seq.word_count)
    assert (s, r, c) == (0, 0.0, 0.0)
    assert density_score(s, seq.word_count, r, c) == 0.0


def test_component_scores_direct_arithmetic():
    from promptdensity.scoring import TokenLabel

    labels = tuple(
        [TokenLabel(LabelKind.SEMANTIC, redundant=i < 3, concrete=3 <= i < 9) for i in range(12)]
    )
    s, r, c = component_scores(labels, 20)
    assert s == 12
    assert r == pytest.approx(0.25)
    assert c == pytest.approx(0.5)


def test_component_scores_empty_prompt_error():
    with pytest.raises(EmptyPromptError):
        component_scores((), 0)


def test_density_score_formula():
    assert density_score(12, 20, 0.25, 0.6) == pytest.approx(0.27)
    assert density_score(20, 20, 0.0, 1.0) == 1.0
    assert density_score(0, 20, 0.0, 0.0) == 0.0


def test_density_score_domain_errors():
    with pytest.raises(PromptDensityError):
        density_score(1, 0, 0.0, 1.0)
    with pytest.raises(PromptDensityError):
        density_score(5, 4, 0.0, 1.0)
    with pytest.raises(PromptDensityError):
        density_score(1, 2, 1.5, 1.0)


@pytest.mark.parametrize(
    "score,klass",
    [
        (0.0, DensityClass.DILUTED),
        (0.39999, DensityClass.DILUTED),
        (0.40, DensityClass.STANDARD),
        (0.64999, DensityClass.STANDARD),
        (0.65, DensityClass.DENSE),
        (0.80, DensityClass.DENSE),
        (0.80001, DensityClass.ULTRA_DENSE),
        (0.87, DensityClass.ULTRA_DENSE),
        (1.0, DensityClass.ULTRA_DENSE),
    ],
)
def test_density_class_boundaries(score, klass):
    assert density_class(score) is klass


def test_density_class_out_of_range():
    with pytest.raises(PromptDensityError):
        density_class(1.2)
    with pytest.raises(PromptDensityError):
        density_class(-0.1)


# ---------------------------------------------------------------------------
# analyze + calibration
# ---------------------------------------------------------------------------

def test_analyze_empty_prompt():
    with pytest.raises(EmptyPromptError):
        analyze("")
    with pytest.raises(EmptyPromptError):
        analyze("... !!!")


def test_arc_calibration_scores(arc_variants):
    for condition, text in arc_variants.items():
        a = analyze(text)
        assert abs(a.sde - ARC_TARGETS[condition]) <= 0.15, condition
        assert a.klass.value == ARC_CLASSES[condition], condition


def test_arc_strict_ordering(arc_variants):
    scores = {c: analyze(t).sde for c, t in arc_variants.items()}
    assert scores["diluted"] < scores["standard"] < scores["ultra_dense"]


@pytest.mark.parametrize(
    "text,klass",
    [
        ("Can you maybe help me understand what AI is?", DensityClass.DILUTED),
        ("Explain artificial intelligence briefly.", DensityClass.STANDARD),
        ("How does backpropagation update weights step-by-step?", DensityClass.DENSE),
        ("Derive backpropagation gradient: dL/dW for cross-entropy loss.", DensityClass.ULTRA_DENSE),
    ],
)
def test_density_class_examples(text, klass):
    assert analyze(text).klass is klass


def test_formula_consistency_invariant(corpus):
    for text in corpus:
        a = analyze(text)
        expected = (a.semantic_count / a.word_count) * (1 - a.redundancy) * a.concreteness
        assert a.sde == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= a.sde <= 1.0
        assert a.semantic_count <= a.word_count


def test_analyze_deterministic(corpus):
    for text in corpus:
        assert analyze(text) == analyze(text)


def _noise_token_indices(text):
    seq = tokenize(text)
    labels = classify_tokens(seq, default_lexicon())
    noise = (LabelKind.FILLER, LabelKind.HEDGE, LabelKind.META, LabelKind.TRANSITIONAL)
    return seq, [i for i, lab in enumerate(labels) if lab.kind in noise]


def test_deleting_noise_token_never_decreases_score(corpus):
    for text in corpus + [
        "Can you please maybe explain the sorting algorithm quickly for me?"
    ]:
        seq, noise = _noise_token_indices(text)
        before = analyze(text).sde
        for idx in noise:
            kept = [t.text for i, t in enumerate(seq.tokens) if i != idx]
            reduced = " ".join(kept)
            if tokenize(reduced).word_count == 0:
                continue
            assert analyze(reduced).sde >= before - 1e-12


def test_inserting_duplicate_word_never_increases_score(corpus):
    # Duplicates of redundancy-eligible words (multi-letter WORD tokens).
    rng = random.Random(99)
    for text in corpus:
        seq = tokenize(text)
        labels = classify_tokens(seq, default_lexicon())
        words = [
            i
            for i, (tok, lab) in enumerate(zip(seq.tokens, labels))
            if lab.kind is LabelKind.SEMANTIC and tok.kind is TokenKind.WORD and len(tok.text) >= 2
        ]
        if not words:
            continue
        before = analyze(text).sde
        for _ in range(3):
            idx = words[rng.randrange(len(words))]
            dup = seq.tokens[idx].text
            pieces = [t.text for t in seq.tokens]
            insert_at = rng.randrange(idx + 1, len(pieces) + 1)
            pieces.insert(insert_at, dup)
            assert analyze(" ".join(pieces)).sde <= before + 1e-12


def test_report_shape(arc_variants):
    report = analyze(arc_variants["standard"]).to_report()
    assert set(report) == {"sde", "class", "W", "S", "R", "C", "labels"}
    assert len(report["labels"]) == len(tokenize(arc_variants["standard"]).tokens)
    first = report["labels"][0]
    assert set(first) == {"text", "span", "kind", "label", "redundant", "concrete"}


# ---------------------------------------------------------------------------
# insert_word: analyze of the inserted text, or None
# ---------------------------------------------------------------------------

_NOISE_PHRASES = sorted(
    phrase for category in NOISE_CATEGORIES for phrase in default_lexicon().phrases(category)
)
_NO_HEDGES = Lexicon(
    {c: p for c, p in default_lexicon().entries.items() if c is not Category.HEDGE}
)
# Each multi-word phrase with one word left out, which an insertion completes.
_NEAR_PHRASES = sorted(
    " ".join(words[:i] + words[i + 1 :])
    for words in (phrase.split(" ") for phrase in _NOISE_PHRASES if " " in phrase)
    for i in range(len(words))
)
_PHRASE_WORDS = sorted({w for phrase in _NOISE_PHRASES for w in phrase.split(" ") if w.isalpha()})
# Phrases, option labels, capitalised abstract words (concrete only away
# from a sentence start), sentence punctuation and runs of whitespace, plus
# arbitrary text without lone surrogates.
_PIECES = st.one_of(
    st.sampled_from(_NOISE_PHRASES + _NEAR_PHRASES),
    st.sampled_from(
        "A. B) C: D: A I a the of is km 42 + Paris Density Intelligence unity city".split()
        + [".", "?", "!", ";", ":", "(", ")", ",", "...", "(kind", "of)"]
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)
_GAPS = st.sampled_from([" ", " ", " ", "", "  ", "\n", "\t", " \n "])


def _joined(parts):
    return "".join(piece + gap for piece, gap in parts)


_INSERT_TEXT = st.lists(st.tuples(_PIECES, _GAPS), min_size=1, max_size=25).map(_joined)
_SIDE_TEXT = st.lists(st.tuples(_PIECES, _GAPS), max_size=6).map(_joined)
_INSERT_WORDS = st.one_of(
    st.sampled_from(_PHRASE_WORDS),
    st.sampled_from(["Maybe", "Please", "A", "I", "Paris", "unity"]),
    st.text(st.characters(whitelist_categories=("Lu", "Ll", "Lt", "Lm", "Lo")), min_size=1,
            max_size=6),
)


def _check_insertion(lex, text, k, word):
    """insert_word is None or analyze of the inserted text, matches included."""
    try:
        before = analyze(text, lex)
    except EmptyPromptError:
        assume(False)
    assume(k < len(before.seq) and before.seq.tokens[k].kind is TokenKind.WORD)
    got = insert_word(before, k, word, lex)
    if got is None:
        return
    raw, pos = text.encode("utf-8"), before.seq.tokens[k].start
    after = analyze((raw[:pos] + (word + " ").encode("utf-8") + raw[pos:]).decode("utf-8"), lex)
    assert got == after
    assert got.seq.lowered == after.seq.lowered
    assert list(got.matches) == match_phrases(after.seq, lex) == list(after.matches)


@st.composite
def _phrase_insertions(draw):
    """A short text holding a multi-word phrase, with one word left out and
    put back, or whole and split by a phrase word."""
    phrase = draw(st.sampled_from([p for p in _NOISE_PHRASES if " " in p])).split(" ")
    if draw(st.booleans()):
        gap = draw(st.integers(0, len(phrase) - 1))
        middle, word = phrase[:gap] + phrase[gap + 1 :], phrase[gap]
    else:
        gap = draw(st.integers(1, len(phrase) - 1))
        middle, word = phrase, draw(st.sampled_from(_PHRASE_WORDS))
    left, right = draw(_SIDE_TEXT), draw(_SIDE_TEXT)
    k = len(tokenize(left + " " + " ".join(middle[:gap])).tokens)
    if draw(st.booleans()):
        word = word.capitalize()
    return f"{left} {' '.join(middle)} {right}", k, word


_LEXICONS = pytest.mark.parametrize(
    "lex", [default_lexicon(), _NO_HEDGES], ids=["default", "no-hedges"]
)


@_LEXICONS
@settings(max_examples=75, deadline=None)
@given(text=_INSERT_TEXT, pick=st.integers(0, 1000), word=_INSERT_WORDS)
def test_insert_word_equals_analyze(lex, text, pick, word):
    try:
        tokens = analyze(text, lex).seq.tokens
    except EmptyPromptError:
        assume(False)
    words = [k for k, t in enumerate(tokens) if t.kind is TokenKind.WORD]
    assume(words)
    _check_insertion(lex, text, words[pick % len(words)], word)


@_LEXICONS
@settings(max_examples=40, deadline=None)
@given(text=_INSERT_TEXT,
       steps=st.lists(st.tuples(st.integers(0, 1000), _INSERT_WORDS), min_size=1, max_size=40))
def test_insert_word_chain_equals_analyze(lex, text, steps):
    # As in a ladder, each step starts from the one before, so a running
    # count that drifts shows up at a later step.
    try:
        current = analyze(text, lex)
    except EmptyPromptError:
        assume(False)
    for pick, word in steps:
        seq = current.seq
        words = [k for k, kind in enumerate(seq.kinds) if kind is TokenKind.WORD]
        if not words:
            break
        k = words[pick % len(words)]
        after = analyze(insert_at(seq.source, seq.starts[k], word), lex)
        got = insert_word(current, k, word, lex)
        if got is not None:
            assert got == after
            assert (got.semantic_count, got.word_count, got.redundancy, got.concreteness,
                    got.sde) == (after.semantic_count, after.word_count, after.redundancy,
                                 after.concreteness, after.sde)
            assert list(got.matches) == list(after.matches)
        current = got or after


@_LEXICONS
@settings(max_examples=150, deadline=None)
@given(_phrase_insertions())
def test_insert_word_equals_analyze_at_phrases(lex, case):
    _check_insertion(lex, *case)


def test_insert_word_relabels_the_old_sentence_start():
    # "Density" is abstract at a sentence start and a name elsewhere.
    before = analyze("Density matters.")
    after = insert_word(before, 0, "maybe")
    assert after == analyze("maybe Density matters.")
    assert not before.labels[0].concrete and after.labels[1].concrete


def test_insert_word_keeps_a_repeat_redundant():
    # The second "sort" is relabelled, and repeats one before the rescan.
    text = "Sort lists by size in three quick and simple steps, then sort lists."
    after = insert_word(analyze(text), 12, "maybe")
    assert after == analyze(text.replace("then", "then maybe"))
    assert after.seq.tokens[13].text == "sort" and after.labels[13].redundant


def test_insert_word_declines_a_split_phrase():
    # "maybe" inside "kind of" leaves "kind" a semantic word.
    before = analyze("Name this kind of rock.")
    assert insert_word(before, 3, "maybe") is None
    after = analyze("Name this kind maybe of rock.")
    assert after.labels[2].kind is LabelKind.SEMANTIC


# ---------------------------------------------------------------------------
# The label rules in one loop: the earlier helpers, kept verbatim as an oracle
# ---------------------------------------------------------------------------

_CATEGORY_LABELS = {
    Category.FILLER: LabelKind.FILLER,
    Category.HEDGE: LabelKind.HEDGE,
    Category.META: LabelKind.META,
    Category.TRANSITIONAL: LabelKind.TRANSITIONAL,
}

# Every possible label, built once; classify_tokens hands these out.
_LABELS = {
    (kind, redundant, concrete): TokenLabel(kind, redundant, concrete)
    for kind in LabelKind
    for redundant in (False, True)
    for concrete in (False, True)
}
_FUNCTION_LABEL = _LABELS[LabelKind.FUNCTION, False, False]


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


def _sentence_initial(tokens: tuple[Token, ...], idx: int) -> bool:
    if idx == 0:
        return True
    prev = tokens[idx - 1]
    return prev.kind is TokenKind.PUNCTUATION and prev.text[-1] in ".?!:;"


def _label_span(seq: TokenSequence, lo: int, hi: int, matches,
                lex: Lexicon, config, seen_stems: set[str]) -> list[TokenLabel]:
    """Labels of tokens [lo, hi). A semantic word whose stem is in
    ``seen_stems`` is redundant, and its stem joins the set."""
    tokens, lowered = seq.tokens, seq.lowered
    by_match: dict[int, TokenLabel] = {}
    for m in matches:
        if m.start < hi and m.end > lo:
            label = _LABELS[_CATEGORY_LABELS[m.category], False, False]
            for i in range(m.start, m.end):
                by_match[i] = label

    units = lex.phrases(Category.UNIT)
    suffixes = lex.phrases(Category.NOMINALIZATION_SUFFIX)
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
        tok = tokens[idx]
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
    return labels


def _is_concrete(
    tok: Token,
    idx: int,
    tokens: tuple[Token, ...],
    lower: str,
    units: frozenset[str],
    suffixes: frozenset[str],
    config,
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


# Option labels, ":"/";" before capitals, units, numbers, math symbols,
# abstract words, nominalisations, suffix words and repeats, noise phrases,
# plus any text; each rule's words are drawn often enough to meet it.
_RULE_WORDS = [
    sorted(default_lexicon().phrases(Category.UNIT)),
    sorted(wordlists.NOMINALIZATION_VERBS),
    sorted(wordlists.ABSTRACT_WORDS),
    ["density", "city", "unity", "statement", "kindness", "sort", "sorts", "sorted", "sorting",
     "gas", "gases", "I", "a", "A", "c", "the", "of", "is"],
]
_LABEL_PIECES = st.one_of(
    st.sampled_from(_NOISE_PHRASES),
    *(st.sampled_from(words) for words in _RULE_WORDS),
    *(st.sampled_from(words).map(str.capitalize) for words in _RULE_WORDS),
    st.sampled_from(["A.", "A)", "A:", "A .", "A :", "A )", "B)", "C:", "(A)", "a.", "I.", "I:"]),
    st.sampled_from([": Paris", "; Density", "; Analysis", ":", ";", ".", "?", "!", "42", "3.5",
                     "1,000", "-7", "+", "=", "∫", "x²", "12 km", "40 Km."]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)
_LABEL_TEXT = st.lists(st.tuples(_LABEL_PIECES, _GAPS), min_size=1, max_size=30).map(_joined)
_EXTRA_WORDS = st.lists(st.sampled_from(sum(_RULE_WORDS, [])).map(str.lower),
                        max_size=4).map(frozenset)
# "density", abstract by its suffix, is concrete as a unit.
_EXTRA_UNIT = Lexicon({**default_lexicon().entries,
                       Category.UNIT: default_lexicon().phrases(Category.UNIT) | {"density"}})


@settings(max_examples=300, deadline=None)
@given(
    text=_LABEL_TEXT,
    min_len=st.integers(0, 4),
    function_extra=_EXTRA_WORDS,
    abstract_extra=_EXTRA_WORDS,
    lex=st.sampled_from([default_lexicon(), _NO_HEDGES, _EXTRA_UNIT]),
)
def test_classify_tokens_equals_earlier_rules(text, min_len, function_extra, abstract_extra,
                                              lex):
    config = replace(
        DEFAULT_CONFIG,
        redundancy_min_len=min_len,
        function_words=DEFAULT_CONFIG.function_words | function_extra,
        abstract_words=DEFAULT_CONFIG.abstract_words | abstract_extra,
    )
    # The earlier config also carried the nominalisations the rules read.
    earlier = SimpleNamespace(**vars(config),
                              nominalization_words=frozenset(wordlists.NOMINALIZATION_VERBS))
    seq = tokenize(text)
    matches = match_phrases(seq, lex)
    expected = tuple(_label_span(seq, 0, len(seq), matches, lex, earlier, set()))
    assert classify_tokens(seq, lex, config) == expected


# ---------------------------------------------------------------------------
# The word memos are shared by every analysis in the process
# ---------------------------------------------------------------------------

# "density" is abstract by a default suffix only, "Measure" by one of the
# other set only, and "statement" by one of both.
_SUFFIX_TEXT = "Measure the density of sorted gases, statement by statement."
_OTHER_SUFFIXES = Lexicon({**default_lexicon().entries,
                           Category.NOMINALIZATION_SUFFIX: frozenset({"ure", "ment"})})


def _clear_memos():
    tokens._split_chunk.cache_clear()
    scoring._stem_verdict.cache_clear()


def _cold_analyze(text, lex=None):
    _clear_memos()
    return analyze(text, lex)


def test_analyses_across_suffix_sets_equal_cold_ones(corpus):
    texts = [_SUFFIX_TEXT, *corpus]
    lexicons = [default_lexicon(), _OTHER_SUFFIXES, default_lexicon()]
    _clear_memos()
    warm = [[analyze(text, lex) for text in texts] for lex in lexicons]
    assert warm == [[_cold_analyze(text, lex) for text in texts] for lex in lexicons]
    assert warm[0][0].labels != warm[1][0].labels  # the suffix sets label differently
    assert warm[0] == warm[2]


def test_a_long_word_bypasses_the_stem_memo():
    long_word = "x" * 70 + "ity"  # abstract by its suffix, memo or not
    _clear_memos()
    analysis = analyze(f"{long_word} measures density twice, {long_word}.")
    labels = [lab for lab in analysis.labels if lab.kind is LabelKind.SEMANTIC]
    assert [(lab.redundant, lab.concrete) for lab in labels] == [
        (False, False), (False, True), (False, False), (False, True), (True, False)]
    assert scoring._stem_verdict.cache_info().currsize == 3  # measures, density, twice


def test_analyses_in_threads_equal_serial_ones():
    rng = random.Random(3)
    shared = sorted(wordlists.ABSTRACT_WORDS)[:200] + sorted(default_lexicon().phrases(Category.UNIT))
    # Each thread's texts add words of their own, about 1,100 per thread, so
    # the threads evict from both memos while they share them.
    texts = [
        [" ".join(rng.choice(shared) if rng.random() < 0.5 else f"w{thread}x{rng.randrange(1200)}ing"
                  for _ in range(120)) + "." for _ in range(50)]
        for thread in range(4)
    ]
    serial = [[_cold_analyze(text) for text in batch] for batch in texts]
    results: list[list | None] = [None] * len(texts)

    def work(n):
        results[n] = [analyze(text) for text in texts[n]]

    threads = [threading.Thread(target=work, args=(n,)) for n in range(len(texts))]
    _clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
    assert tokens._split_chunk.cache_info().misses > tokens.CHUNK_MEMO_SIZE
    assert scoring._stem_verdict.cache_info().misses > scoring.STEM_MEMO_SIZE
