from __future__ import annotations

import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from promptdensity import lexicon, rewrite, scoring, wordlists
from promptdensity.errors import EmptyPromptError, LexiconFormatError, PromptDensityError
from promptdensity.lexicon import Category, default_lexicon
from promptdensity.rewrite import (
    GradientVariant,
    Severity,
    densify,
    dilute,
    gradient_variants,
    instruction_last,
    lint,
    pad,
    parse_templates,
)
from promptdensity.scoring import DEFAULT_CONFIG, LabelKind, analyze, classify_tokens
from promptdensity.tokens import TokenKind, tokenize


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------

def test_lint_flags_filler_preamble():
    diags = lint("Can you please explain X")
    removals = [d for d in diags if d.severity is Severity.REMOVE_SAFE]
    assert len(removals) == 1
    assert removals[0].rule == "filler-preamble"
    assert "Can you please explain X"[removals[0].start : removals[0].end] == "Can you please"


def test_lint_nominalization_phrase_suggests_verb():
    diags = lint("provide a derivation of the loss")
    suggestion = [d for d in diags if d.rule == "abstract-nominalization"][0]
    assert suggestion.severity is Severity.SUGGEST
    assert suggestion.replacement == "derive"


def test_lint_dense_text_has_no_removals():
    diags = lint("Derive dL/dW step-by-step.")
    assert [d for d in diags if d.severity is Severity.REMOVE_SAFE] == []


def test_lint_vague_quantity():
    diags = lint("Explain it briefly and make it fast")
    vague = [d for d in diags if d.rule == "vague-quantity"]
    assert {d.replacement for d in vague} == {"in 80 words", None}


def test_lint_redundant_token_flagged():
    diags = lint("gradient of the gradient")
    redundant = [d for d in diags if d.rule == "redundant-restatement"]
    assert len(redundant) == 1


def test_lint_remove_safe_spans_non_overlapping(corpus):
    for text in corpus:
        removals = [d for d in lint(text) if d.severity is Severity.REMOVE_SAFE]
        spans = sorted((d.start, d.end) for d in removals)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2


def test_lint_empty_prompt():
    with pytest.raises(EmptyPromptError):
        lint("")


# ---------------------------------------------------------------------------
# densify
# ---------------------------------------------------------------------------

def test_densify_arc_diluted_reaches_dense_band(arc_variants):
    result = densify(arc_variants["diluted"])
    assert result.sde_after >= 0.65
    assert result.sde_after >= result.sde_before
    for needle in ("A.", "B.", "C.", "D.", "mixture"):
        assert needle in result.output


def test_densify_fixed_point(arc_variants, corpus):
    for text in [arc_variants["diluted"], arc_variants["standard"]] + corpus[:8]:
        once = densify(text)
        twice = densify(once.output)
        assert twice.output == once.output


def test_densify_identity_on_dense_text(arc_variants):
    result = densify(arc_variants["ultra_dense"])
    assert result.output == arc_variants["ultra_dense"]
    assert result.applied == ()


def test_densify_never_deletes_semantic_content(corpus):
    lex = default_lexicon()
    for text in corpus:
        seq = tokenize(text)
        labels = classify_tokens(seq, lex)
        keep_words = {
            seq.tokens[i].text.lower()
            for i in range(len(seq.tokens))
            if labels[i].kind is LabelKind.SEMANTIC
            and not labels[i].redundant
            and seq.tokens[i].kind is not TokenKind.PUNCTUATION
        }
        out = densify(text).output
        out_words = {t.text.lower() for t in tokenize(out).tokens}
        # replacements may rewrite mapped nominalizations, vague words, and
        # interrogative scaffolds
        from promptdensity import wordlists

        replaceable = set(wordlists.NOMINALIZATION_VERBS) | set(wordlists.VAGUE_QUANTITY_WORDS)
        for phrase, _repl in wordlists.QUESTION_PATTERNS:
            replaceable.update(phrase.split())
        missing = keep_words - out_words - replaceable
        assert not missing, (text, missing)


def test_densify_applies_vague_replacement():
    result = densify("Explain artificial intelligence briefly.")
    assert "in 80 words" in result.output
    assert "briefly" not in result.output
    assert result.sde_after >= result.sde_before


def test_densify_nominalization_phrase():
    result = densify("Please provide a derivation of the loss gradient.")
    assert "derive" in result.output.lower()
    assert "derivation" not in result.output.lower()


def test_densify_monotone_on_corpus(corpus):
    for text in corpus:
        result = densify(text)
        assert result.sde_after >= result.sde_before - 1e-12


def test_densify_empty_result_refused():
    with pytest.raises(PromptDensityError):
        densify("maybe maybe maybe")


def test_lint_and_densify_match_each_sequence_once(monkeypatch):
    # lint and densify read the phrase matches their analysis keeps.
    calls = []

    def counting(seq, lex):
        calls.append(seq.source)
        return original(seq, lex)

    original = lexicon.match_phrases
    for module in (lexicon, scoring, rewrite):
        if getattr(module, "match_phrases", None) is original:
            monkeypatch.setattr(module, "match_phrases", counting)
    text = "Could you please basically explain the sorting of lists?"
    lint(text)
    assert len(calls) == 1
    calls.clear()
    # One round of edits, then one that finds the text stable.
    assert densify(text).output == "explain sorting of lists?"
    assert len(calls) == 2


def test_densify_empty_input():
    with pytest.raises(EmptyPromptError):
        densify("")


# ---------------------------------------------------------------------------
# lint / densify coupling
# ---------------------------------------------------------------------------

_NOISE_PHRASES = sorted(
    phrase
    for category in (Category.FILLER, Category.HEDGE, Category.META, Category.TRANSITIONAL)
    for phrase in default_lexicon().phrases(category)
)
_RULE_WORDS = sorted(
    {*wordlists.NOMINALIZATION_VERBS, *wordlists.VAGUE_QUANTITY_WORDS, *wordlists.LIGHT_VERBS}
)
_PLAIN_WORDS = (
    "a an the of for and or is are which one following options compute sum 42 "
    "Paris gradient gradients cell cells , . ? A. B)"
).split()


def _assert_lint_edits_open_densify(text: str) -> None:
    """lint's edit diagnostics are exactly what densify's first round applies."""
    applied = densify(text).applied
    edits = {d for d in lint(text) if d.severity is Severity.REMOVE_SAFE or d.replacement}
    assert edits == set(applied[: len(edits)])


def test_lint_edits_open_densify_on_fixtures(corpus, arc_variants):
    for text in [*corpus, *arc_variants.values()]:
        _assert_lint_edits_open_densify(text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(_NOISE_PHRASES + _RULE_WORDS + _PLAIN_WORDS), min_size=1, max_size=25
    ).map(" ".join)
)
def test_lint_edits_open_densify(text):
    try:
        _assert_lint_edits_open_densify(text)
    except PromptDensityError:
        # Only prompts with no words, or nothing but noise, get here.
        assume(False)


# ---------------------------------------------------------------------------
# Rewrite guarantees as properties over any text
# ---------------------------------------------------------------------------

# Parts that reach every rule (noise phrases, rule words, question
# scaffolds, task verbs, format instructions), plus arbitrary text.
_ANY_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            _NOISE_PHRASES
            + _RULE_WORDS
            + _PLAIN_WORDS
            + [phrase for phrase, _ in wordlists.QUESTION_PATTERNS]
            + sorted(wordlists.PROMPT_VERBS)
            + ["Reply with one integer.", "Answer:", "respond in this format", "The answer is"]
        ),
        st.text(min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=25,
).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(_ANY_TEXT)
def test_densify_reaches_fixed_point(text):
    try:
        out = densify(text).output
    except PromptDensityError:
        assume(False)
    assert densify(out).output == out


@settings(max_examples=100, deadline=None)
@given(_ANY_TEXT, st.integers(0, 30))
def test_pad_keeps_score(text, groups):
    try:
        before = analyze(text).sde
    except PromptDensityError:
        assume(False)
    assert abs(analyze(pad(text, groups)).sde - before) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_ANY_TEXT)
def test_instruction_last_idempotent_on_any_text(text):
    once = instruction_last(text).output
    assert instruction_last(once).output == once


@settings(max_examples=100, deadline=None)
@given(_ANY_TEXT)
def test_lint_spans_inside_text_and_disjoint(text):
    try:
        diags = lint(text)
    except PromptDensityError:
        assume(False)
    size = len(text.encode("utf-8"))
    assert all(0 <= d.start < d.end <= size for d in diags)
    assert all(a.end <= b.start for a, b in zip(diags, diags[1:]))


@settings(max_examples=100, deadline=None)
@given(_ANY_TEXT, st.integers(0, 100))
def test_dilute_never_raises_score_from_diluted_below_up(text, seed):
    # A text already near 0 can score higher once diluted; one at the
    # diluted band's edge or above never does.
    try:
        before = analyze(text).sde
    except PromptDensityError:
        assume(False)
    if before >= DEFAULT_CONFIG.diluted_below:
        assert analyze(dilute(text, seed=seed)).sde <= before


# ---------------------------------------------------------------------------
# dilute
# ---------------------------------------------------------------------------

def test_dilute_deterministic(corpus):
    for text in corpus[:5]:
        assert dilute(text, seed=3) == dilute(text, seed=3)


def test_dilute_seed_changes_output(corpus):
    text = corpus[0]
    assert dilute(text, seed=1) != dilute(text, seed=2)


def test_dilute_makes_diluted_class(corpus):
    hits = sum(1 for text in corpus if analyze(dilute(text, seed=11)).klass.value == "diluted")
    assert hits >= 18


def test_dilute_word_growth(corpus):
    for text in corpus:
        grown = tokenize(dilute(text, seed=11)).word_count
        assert grown >= 1.5 * tokenize(text).word_count


def test_dilute_never_increases_score(corpus):
    for text in corpus:
        assert analyze(dilute(text, seed=4)).sde <= analyze(text).sde + 1e-12


def test_dilute_preserves_original_tokens_in_order(corpus):
    for text in corpus[:8]:
        original = [t.text for t in tokenize(text).tokens if t.kind is not TokenKind.PUNCTUATION]
        output = [t.text for t in tokenize(dilute(text, seed=9)).tokens
                  if t.kind is not TokenKind.PUNCTUATION]
        it = iter(output)
        assert all(word in it for word in original)  # subsequence check


def test_dilute_rejects_bad_args():
    with pytest.raises(EmptyPromptError):
        dilute("   ")
    with pytest.raises(PromptDensityError):
        dilute("fine text", intensity=0)


# ---------------------------------------------------------------------------
# pad
# ---------------------------------------------------------------------------

def test_pad_shape():
    out = pad("Solve 2+2.", 10)
    assert out.startswith("Solve 2+2.")
    assert out.split()[2:] == ["..."] * 10


def test_pad_zero_is_identity():
    assert pad("anything here", 0) == "anything here"


def test_pad_density_neutral(corpus):
    for text in corpus:
        before = analyze(text)
        after = analyze(pad(text, 50))
        assert abs(after.sde - before.sde) <= 0.01
        assert after.word_count == before.word_count
        assert len(pad(text, 50)) > len(text)


def test_pad_negative_rejected():
    with pytest.raises(PromptDensityError):
        pad("x", -1)


# ---------------------------------------------------------------------------
# gradient_variants
# ---------------------------------------------------------------------------

TARGETS = [0.20, 0.35, 0.50, 0.65, 0.80]


def test_gradient_bands_on_corpus(corpus):
    total = hit = 0
    for text in corpus:
        for variant in gradient_variants(text, TARGETS, seed=3):
            if not variant.reachable:
                continue
            total += 1
            if abs(variant.achieved - variant.target) <= 0.07:
                hit += 1
    assert hit / total >= 0.90


def test_gradient_monotone_and_deterministic(corpus):
    for text in corpus[:6]:
        first = gradient_variants(text, TARGETS, seed=3)
        second = gradient_variants(text, TARGETS, seed=3)
        assert first == second
        reachable = [v for v in first if v.reachable]
        achieved = [v.achieved for v in reachable]
        assert achieved == sorted(achieved)


def test_gradient_output_is_pinned(corpus):
    # Ladder texts, scores and reachability on the corpus at three seeds, as
    # the ladder gave them when each step re-analysed the whole text.
    digest = hashlib.sha256()
    for seed in (0, 3, 7):
        for text in corpus:
            for v in gradient_variants(text, TARGETS, seed=seed):
                digest.update(f"{v.text}\0{v.achieved!r}\0{v.reachable}\n".encode("utf-8"))
    assert len(corpus) == 20
    assert digest.hexdigest() == (
        "e77362780f317b0fd72310f3e83caa3957469c94cad70185eac90a830b9b405b"
    )


def test_gradient_low_target_keeps_preambles(corpus):
    # Far above a target of 0.05, the ladder keeps two preamble sentences
    # before its hedges; pinned as the parent ladder gave it.
    [variant] = gradient_variants(corpus[2], [0.05], seed=3)
    assert variant.text.startswith("perhaps maybe possibly basically possibly Hi, sorry")
    assert "Hey, possibly maybe I was" in variant.text
    assert hashlib.sha256(variant.text.encode("utf-8")).hexdigest() == (
        "9fe10db1f952307138fefca3dcb1e8ad33a1920d48ce48d08cb6fcbd188124cd"
    )
    assert (variant.achieved, variant.reachable) == (0.09999999999999999, True)


def test_gradient_without_word_tokens_appends_hedges():
    # Numbers and symbols only: each hedge goes after the text.
    assert gradient_variants("12 + 30 = 42", [0.2, 0.5], seed=1) == [
        GradientVariant(0.2, "12 + 30 = 42 maybe basically basically possibly just just possibly "
                             "perhaps perhaps maybe somehow somehow possibly perhaps maybe", 0.25),
        GradientVariant(0.5, "12 + 30 = 42 basically possibly just perhaps maybe", 0.5),
    ]


def test_gradient_unreachable_targets_reported():
    variants = gradient_variants("Can you maybe tell me about things?", [1.0], seed=1)
    assert len(variants) == 1
    if variants[0].reachable:
        assert variants[0].achieved >= 0.95 - 0.05
    else:
        assert variants[0].achieved < 1.0


def test_gradient_tokenizes_only_to_analyze(corpus, monkeypatch):
    # Each hedge goes into the tokens of the analysis just made.
    def no_tokenize(text):
        raise AssertionError("gradient_variants tokenized outside analyze")

    monkeypatch.setattr("promptdensity.rewrite.tokenize", no_tokenize)
    for text in corpus[:4]:
        assert gradient_variants(text, TARGETS, seed=3)


def test_text_paths_build_no_token_objects(corpus, monkeypatch):
    # Every text path reads the sequence's columns; only ``seq.tokens``
    # builds Token objects.
    def no_token(*args):
        raise AssertionError("a Token was built")

    monkeypatch.setattr("promptdensity.tokens.Token", no_token)
    for text in corpus[:6]:
        analyze(text)
        lint(text)
        densify(text)
        dilute(text, seed=1)
        assert gradient_variants(text, TARGETS, seed=3)


def test_ladder_analyzes_densified_base_once(corpus, monkeypatch):
    # The ladder starts from densify's own last analysis: its calls are
    # densify's, then one per new ladder text, and the base is not analysed
    # a second time.
    calls: list[str] = []

    def counting(text, *args, **kwargs):
        calls.append(text)
        return analyze(text, *args, **kwargs)

    monkeypatch.setattr("promptdensity.rewrite.analyze", counting)
    for text in corpus[:4]:
        calls.clear()
        base = densify(text).output
        densify_calls = list(calls)
        calls.clear()
        gradient_variants(text, TARGETS, seed=3)
        assert calls[: len(densify_calls)] == densify_calls
        ladder = calls[len(densify_calls) :]
        assert base not in ladder
        assert len(calls) == len(set(calls))


def test_gradient_rejects_bad_targets():
    with pytest.raises(PromptDensityError):
        gradient_variants("text here", [0.0, 0.5])
    with pytest.raises(PromptDensityError):
        gradient_variants("text here", [0.5, 1.2])


# ---------------------------------------------------------------------------
# instruction_last
# ---------------------------------------------------------------------------

def test_instruction_moved_to_end():
    text = "Reply: The answer is <LETTER>. Which is a mixture? A. rock B. mud"
    result = instruction_last(text)
    assert result.moved and result.found
    assert result.output.endswith("Reply: The answer is <LETTER>.")
    assert result.output.startswith("Which is a mixture?")


def test_instruction_last_idempotent(arc_variants):
    two = "Answer in this format: JSON. Which is larger? Reply with one letter. A. 3 B. 4"
    # Every instruction moves, in order; moving only the first put the
    # second one first, and the next pass moved that.
    assert instruction_last(two).output == ("Which is larger? A. 3 B. 4 "
                                            "Answer in this format: JSON. Reply with one letter.")
    for text in ("Reply: The answer is <LETTER>. Which is a mixture? A. x B. y", two,
                 "Reply with one integer. Reply with one integer. a bit"):
        moved = instruction_last(text)
        again = instruction_last(moved.output)
        assert again.output == moved.output
        assert not again.moved


def test_instruction_already_last_unchanged(arc_variants):
    for text in arc_variants.values():
        result = instruction_last(text)
        assert result.output == text
        assert result.found


def test_no_instruction_warns():
    result = instruction_last("Just a plain question about rocks?")
    assert result.output == "Just a plain question about rocks?"
    assert not result.found and not result.moved


def test_question_content_not_mistaken_for_instruction():
    text = "What is the answer to life? Explain your reasoning."
    result = instruction_last(text)
    assert result.output == text


# ---------------------------------------------------------------------------
# template bank parsing
# ---------------------------------------------------------------------------

def test_template_bank_requires_all_categories():
    with pytest.raises(Exception):
        parse_templates("PREAMBLE\tHey there.\n")


def test_template_bank_rejects_unknown_category():
    with pytest.raises(Exception):
        parse_templates("NOISE\thello\n")


def test_template_line_without_tab_reports_line_number():
    with pytest.raises(LexiconFormatError) as err:
        parse_templates("PREAMBLE\tHey there.\nHEDGE_INSERT maybe\n")
    assert err.value.line == 2
    assert str(err.value) == "line 2: expected CATEGORY<TAB>text"
