from __future__ import annotations

import dataclasses
import itertools
import pickle

import pytest

from promptdensity.errors import LexiconFormatError
from promptdensity.lexicon import (
    Category,
    NOISE_CATEGORIES,
    default_lexicon,
    load_lexicon,
    match_phrases,
    parse_lexicon,
)
from promptdensity.scoring import analyze
from promptdensity.tokens import tokenize


def test_default_seed_filler_phrases():
    lex = default_lexicon()
    filler = lex.phrases(Category.FILLER)
    for phrase in ("can you please", "i was wondering if", "is it possible to", "if you don't mind"):
        assert phrase in filler


def test_default_seed_hedges():
    hedges = default_lexicon().phrases(Category.HEDGE)
    for phrase in ("maybe", "kind of", "sort of", "a bit"):
        assert phrase in hedges


def test_default_seed_meta_and_transitional():
    lex = default_lexicon()
    meta = lex.phrases(Category.META)
    for phrase in ("i want to know about", "tell me something about", "i'm curious regarding"):
        assert phrase in meta
    transitional = lex.phrases(Category.TRANSITIONAL)
    assert "as i mentioned" in transitional
    assert "as stated above" in transitional


def test_cross_category_duplicate_rejected():
    with pytest.raises(LexiconFormatError):
        parse_lexicon("FILLER\tplease\nHEDGE\tplease\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(LexiconFormatError) as err:
        parse_lexicon("FILLER\tokay then\nno tab here\n")
    assert err.value.line == 2


def test_unknown_category_rejected():
    with pytest.raises(LexiconFormatError):
        parse_lexicon("NOISE\thello\n")


def test_comments_blanks_and_duplicate_collapse():
    lex = parse_lexicon("# comment\n\nFILLER\tplease\nFILLER\tplease\nFILLER\tPlease\n")
    assert lex.phrases(Category.FILLER) == frozenset({"please"})


def test_lexicon_is_frozen():
    lex = parse_lexicon("FILLER\tplease\n")
    with pytest.raises(dataclasses.FrozenInstanceError):
        lex.entries = {}


def test_phrase_index_built_once():
    lex = parse_lexicon("FILLER\tplease\nHEDGE\tkind of\n")
    assert lex._phrase_index is lex._phrase_index


def test_pickled_lexicon_scores_the_same(corpus):
    # Process pools pickle their arguments; this lexicon has built its index.
    lex = load_lexicon()
    before = [analyze(text, lex).to_report() for text in corpus]
    copy = pickle.loads(pickle.dumps(lex))
    assert copy == lex
    assert [analyze(text, copy).to_report() for text in corpus] == before


def test_single_phrase_match():
    lex = default_lexicon()
    seq = tokenize("Can you please explain X")
    matches = match_phrases(seq, lex)
    assert len(matches) == 1
    assert matches[0].category is Category.FILLER
    assert (matches[0].start, matches[0].end) == (0, 3)
    assert matches[0].phrase == "can you please"


def test_empty_sequence_no_matches():
    assert match_phrases(tokenize(""), default_lexicon()) == []


def _brute_force_leftmost_longest(seq, lex):
    """Oracle: enumerate candidate matches at every index, then resolve
    greedily from the left preferring the longest."""
    tokens = seq.tokens
    source = seq.source.encode("utf-8")
    candidates = []
    phrases = [
        (phrase.split(" "), category)
        for category in NOISE_CATEGORIES
        for phrase in lex.phrases(category)
    ]
    for i in range(len(tokens)):
        for words, category in phrases:
            if i + len(words) > len(tokens):
                continue
            ok = True
            for o, w in enumerate(words):
                t = tokens[i + o]
                if t.kind.value == "punctuation" or t.text.lower() != w:
                    ok = False
                    break
                if o and source[tokens[i + o - 1].end : t.start] != b" ":
                    ok = False
                    break
            if ok:
                candidates.append((i, i + len(words), category))
    chosen = []
    pos = 0
    while pos < len(tokens):
        at_pos = [c for c in candidates if c[0] == pos]
        if not at_pos:
            pos += 1
            continue
        best = max(at_pos, key=lambda c: c[1])
        chosen.append(best)
        pos = best[1]
    return chosen


def test_leftmost_longest_against_brute_force():
    lex = default_lexicon()
    seq = tokenize("I was wondering if it is possible to ask")
    got = [(m.start, m.end, m.category) for m in match_phrases(seq, lex)]
    assert got == _brute_force_leftmost_longest(seq, lex)
    assert [m.phrase for m in match_phrases(seq, lex)] == [
        "i was wondering if",
        "it is possible to",
    ]


def test_brute_force_agreement_on_corpus(corpus):
    lex = default_lexicon()
    for text in corpus:
        seq = tokenize(text)
        got = [(m.start, m.end, m.category) for m in match_phrases(seq, lex)]
        assert got == _brute_force_leftmost_longest(seq, lex)


def test_matches_non_overlapping_and_ordered(corpus):
    lex = default_lexicon()
    for text in corpus + ["can you please maybe kind of sort of help me out"]:
        matches = match_phrases(tokenize(text), lex)
        for a, b in itertools.combinations(matches, 2):
            assert a.end <= b.start or b.end <= a.start
        assert matches == sorted(matches, key=lambda m: m.start)


def test_multiword_phrase_blocked_by_punctuation():
    lex = default_lexicon()
    matches = match_phrases(tokenize("can you, please help"), lex)
    phrases = [m.phrase for m in matches]
    assert "can you please" not in phrases  # comma breaks adjacency
    assert "can you" in phrases


def test_match_texts_equal_phrase():
    lex = default_lexicon()
    seq = tokenize("COULD YOU PLEASE summarize")
    (m,) = [x for x in match_phrases(seq, lex) if x.category is Category.FILLER]
    joined = " ".join(seq.tokens[i].text.lower() for i in range(m.start, m.end))
    assert joined == m.phrase


def test_iterated_removal_converges(corpus):
    lex = default_lexicon()
    for text in corpus:
        current = text
        for _ in range(6):
            seq = tokenize(current)
            matches = match_phrases(seq, lex)
            if not matches:
                break
            covered = {i for m in matches for i in range(m.start, m.end)}
            kept = [t.text for i, t in enumerate(seq.tokens) if i not in covered]
            current = " ".join(kept)
        assert match_phrases(tokenize(current), lex) == []
