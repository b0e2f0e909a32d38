"""Lint diagnostics and density-changing prompt transforms.

``lint`` reports removable noise (lexicon matches, redundant repeats) and
suggestions (nominalizations, vague quantities). ``densify`` applies the
safe edits; ``dilute`` does the reverse with a seeded template bank;
``pad`` appends density-neutral period groups; ``gradient_variants``
steers a prompt toward a ladder of score targets; ``instruction_last``
moves the output-format instruction to the end.
"""
from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import compress, count, islice, repeat

from . import wordlists
from .errors import EmptyPromptError, LexiconFormatError, PromptDensityError
from .lexicon import (
    Category,
    Lexicon,
    default_lexicon,
    read_data_file,
    tagged_lines,
)
from .scoring import (
    DEFAULT_CONFIG,
    LabelKind,
    PromptAnalysis,
    ScoreConfig,
    analyze,
    insert_word,
)
from .tokens import TokenKind, TokenSequence, insert_at, tokenize


class Severity(Enum):
    REMOVE_SAFE = "remove_safe"
    SUGGEST = "suggest"


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding over a byte span of the analyzed text."""

    rule: str
    start: int
    end: int
    message: str
    severity: Severity
    replacement: str | None = None

    def to_report(self) -> dict:
        return {
            "rule": self.rule,
            "span": [self.start, self.end],
            "severity": self.severity.value,
            "message": self.message,
            "replacement": self.replacement,
        }


@dataclass(frozen=True)
class RewriteResult:
    """Transformed text with the before/after density scores."""

    output: str
    applied: tuple[Diagnostic, ...]
    sde_before: float
    sde_after: float
    structural_edits: tuple[str, ...] = ()


@dataclass(frozen=True)
class InstructionPlacement:
    """Result of the instruction-last reordering."""

    output: str
    found: bool
    moved: bool


_RULE_BY_CATEGORY = {
    Category.FILLER: ("filler-preamble", "polite filler carries no task information"),
    Category.HEDGE: ("hedge", "modal softener adds no information"),
    Category.META: ("meta-commentary", "self-referential framing carries no task information"),
    Category.TRANSITIONAL: ("transitional-phrase", "transitional phrase carries no semantic load"),
}

# Determiners and be/do auxiliaries that telegraphic style can drop.
_ELIDABLE = frozenset(
    "a an the this these those is are was were be been being do does did".split()
)

_CONJUNCTIONS = frozenset(("and", "or", "but", "nor"))
_PREPOSITIONS = frozenset("of in on at by for with to from about into over under".split())


# ---------------------------------------------------------------------------
# Template bank
# ---------------------------------------------------------------------------

class TemplateCategory(Enum):
    PREAMBLE = "PREAMBLE"
    HEDGE_INSERT = "HEDGE_INSERT"
    RESTATE_FRAME = "RESTATE_FRAME"


@dataclass(frozen=True)
class TemplateBank:
    """Fixed sentence/phrase bank backing the dilution transform."""

    preambles: tuple[str, ...]
    hedges: tuple[str, ...]
    frames: tuple[str, ...]


def parse_templates(content: str) -> TemplateBank:
    buckets: dict[TemplateCategory, list[str]] = {c: [] for c in TemplateCategory}
    for lineno, category, value in tagged_lines(content, TemplateCategory, "text"):
        value = value.strip()
        if not value:
            raise LexiconFormatError("empty template", lineno)
        buckets[category].append(value)
    bank = TemplateBank(
        preambles=tuple(buckets[TemplateCategory.PREAMBLE]),
        hedges=tuple(buckets[TemplateCategory.HEDGE_INSERT]),
        frames=tuple(buckets[TemplateCategory.RESTATE_FRAME]),
    )
    if not (bank.preambles and bank.hedges and bank.frames):
        raise LexiconFormatError("template bank must provide all three categories")
    return bank


def load_templates(path: str | None = None) -> TemplateBank:
    return parse_templates(read_data_file(path, "templates.txt"))


@cache
def default_templates() -> TemplateBank:
    return load_templates()


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------

def _word_indices(seq: TokenSequence) -> list[int]:
    return [i for i, lower in enumerate(seq.lowered) if lower is not None]


def _findings(analysis: PromptAnalysis) -> list[tuple[int, int, Diagnostic]]:
    """Every lint finding as (token start, token end, diagnostic).

    Grouped by rule in the order densify applies them: lexicon noise,
    redundant repeats, light-verb phrases ('provide a derivation of' ->
    'derive'), then single nominalizations and vague quantities in token
    order. A rule never takes a token an earlier finding already took.
    """
    seq, texts = analysis.seq, analysis.seq.texts
    out: list[tuple[int, int, Diagnostic]] = []
    claimed: set[int] = set()

    def add(start: int, end: int, rule: str, message: str,
            severity: Severity = Severity.SUGGEST, replacement: str | None = None) -> None:
        out.append((start, end, Diagnostic(rule, seq.starts[start], seq.ends[end - 1],
                                           message, severity, replacement)))
        claimed.update(range(start, end))

    for m in analysis.matches:
        rule, message = _RULE_BY_CATEGORY[m.category]
        add(m.start, m.end, rule, f"{message}: {m.phrase!r}", Severity.REMOVE_SAFE)
    for i, (text, lab) in enumerate(zip(texts, analysis.labels)):
        if lab.kind is LabelKind.SEMANTIC and lab.redundant:
            add(i, i + 1, "redundant-restatement", f"{text!r} repeats an earlier concept",
                Severity.REMOVE_SAFE)

    words = _word_indices(seq)
    lowered = [seq.lowered[i] for i in words]
    for pos, i in enumerate(words):
        if i in claimed or lowered[pos] not in wordlists.LIGHT_VERBS:
            continue
        j = pos + 1
        if j < len(words) and lowered[j] in ("a", "an", "the"):
            j += 1
        verb = wordlists.NOMINALIZATION_VERBS.get(lowered[j]) if j < len(words) else None
        if verb is None:
            continue
        if j + 1 < len(words) and lowered[j + 1] in ("of", "for"):
            j += 1
        if claimed.isdisjoint(range(i, words[j] + 1)):
            add(i, words[j] + 1, "abstract-nominalization", f"prefer the active verb {verb!r}",
                replacement=verb)

    for pos, i in enumerate(words):
        if i in claimed:
            continue
        lower = lowered[pos]
        if lower in wordlists.NOMINALIZATION_VERBS:
            add(i, i + 1, "abstract-nominalization",
                f"nominalized form; prefer {wordlists.NOMINALIZATION_VERBS[lower]!r}")
        elif lower in wordlists.VAGUE_QUANTITY_WORDS:
            replacement = wordlists.VAGUE_QUANTITY_WORDS[lower]
            hint = f"replace with {replacement!r}" if replacement else "quantify it"
            add(i, i + 1, "vague-quantity", f"vague quantity {texts[i]!r}; {hint}",
                replacement=replacement)
    return out


def lint(
    text: str,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
) -> list[Diagnostic]:
    """Produce diagnostics for one prompt, ordered by span."""
    found = _findings(analyze(text, lex, config))
    return sorted((d for _start, _end, d in found), key=lambda d: (d.start, d.end))


# ---------------------------------------------------------------------------
# Densify
# ---------------------------------------------------------------------------

def _question_scaffolds(seq: TokenSequence, claimed: set[int]) -> list[tuple[int, int, str]]:
    lowered = seq.lowered
    starts: dict[str | None, list[int]] = {}
    for i, word in enumerate(lowered):
        starts.setdefault(word, []).append(i)
    out: list[tuple[int, int, str]] = []
    for phrase, replacement in wordlists.QUESTION_PATTERNS:
        words = tuple(phrase.split(" "))
        # Only positions holding the first word can open the pattern.
        for i in starts.get(words[0], ()):
            end = i + len(words)
            if lowered[i:end] == words and claimed.isdisjoint(range(i, end)):
                out.append((i, end, replacement))
                claimed.update(range(i, end))
    out.sort()
    return out


def _rebuild(
    seq: TokenSequence,
    drop: set[int],
    replace: dict[int, tuple[int, str]],
) -> str:
    """Reassemble surviving tokens, keeping original attachment of adjacent
    tokens and single spaces elsewhere. ``replace`` maps a start index to
    (end index, replacement text)."""
    pieces: list[str] = []
    prev_end: int | None = None
    i = 0
    while i < len(seq):
        if i in replace:
            end, repl = replace[i]
            if pieces:
                pieces.append(" ")
            pieces.append(repl)
            prev_end = None
            i = end
            continue
        if i in drop:
            i += 1
            continue
        if pieces:
            pieces.append("" if prev_end == seq.starts[i] else " ")
        pieces.append(seq.texts[i])
        prev_end = seq.ends[i]
        i += 1
    return "".join(pieces)


def _densify_round(
    analysis: PromptAnalysis, config: ScoreConfig
) -> tuple[str, list[Diagnostic], list[str]] | None:
    """One densification pass; None when the text is already stable."""
    seq, labels = analysis.seq, analysis.labels
    texts, kinds = seq.texts, seq.kinds
    applied: list[Diagnostic] = []
    notes: list[str] = []
    drop: set[int] = set()
    replace: dict[int, tuple[int, str]] = {}

    # Apply the lint findings that carry an edit: safe removals and
    # deterministic replacements.
    for start, end, d in _findings(analysis):
        if d.severity is Severity.REMOVE_SAFE:
            drop.update(range(start, end))
        elif d.replacement:
            replace[start] = (end, d.replacement)
        else:
            continue
        applied.append(d)
    claimed = drop | {i for start, (end, _r) in replace.items() for i in range(start, end)}

    # Scaffolds share no word with a finding, but must be claimed before
    # elision takes the "the"/"is" inside them.
    for start_i, end_i, repl in _question_scaffolds(seq, claimed):
        replace[start_i] = (end_i, repl)
        notes.append(f"compressed interrogative scaffold to {repl!r}")

    # Telegraphic elision of determiners/auxiliaries while the prompt is
    # still below the dense band; never touches semantic tokens.
    if analysis.sde < config.dense_from:
        for i, (kind, lab) in enumerate(zip(kinds, labels)):
            if i in claimed or lab.kind is not LabelKind.FUNCTION:
                continue
            if kind is TokenKind.WORD and seq.lowered[i] in _ELIDABLE:
                drop.add(i)
                claimed.add(i)
                notes.append(f"elided function word {texts[i]!r}")

    # Orphan cleanup: conjunctions that lost a neighbour, prepositions that
    # lost their object, and punctuation whose host word was removed. Every
    # dropped or replaced token is claimed by now.
    word_idx = _word_indices(seq)
    for pos, i in enumerate(word_idx):
        if i in claimed or kinds[i] is not TokenKind.WORD:
            continue
        lower = seq.lowered[i]
        prev_i = word_idx[pos - 1] if pos > 0 else None
        next_i = word_idx[pos + 1] if pos + 1 < len(word_idx) else None
        if lower in _CONJUNCTIONS and (
            (prev_i is not None and prev_i in claimed)
            or (next_i is not None and next_i in claimed)
            or next_i is None
        ):
            drop.add(i)
            notes.append(f"dropped orphaned conjunction {texts[i]!r}")
        elif lower in _PREPOSITIONS and (next_i is None or next_i in claimed):
            drop.add(i)
            notes.append(f"dropped orphaned preposition {texts[i]!r}")
    removed = claimed | drop
    for i, kind in enumerate(kinds):
        if kind is TokenKind.PUNCTUATION and i > 0 and (i - 1) in removed and i not in removed:
            drop.add(i)

    if not drop and not replace:
        return None
    rebuilt = _rebuild(seq, drop, replace)
    return rebuilt, applied, notes


def densify(
    text: str,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
) -> RewriteResult:
    """Apply all safe deletions and deterministic replacements, repeatedly,
    until the text is stable. Raises if the result would be empty."""
    return _densify(text, lex if lex is not None else default_lexicon(), config)[0]


def _densify(text: str, lex: Lexicon, config: ScoreConfig) -> tuple[RewriteResult, PromptAnalysis]:
    """``densify`` and the analysis of its output."""
    before = current = analyze(text, lex, config)
    all_applied: list[Diagnostic] = []
    all_notes: list[str] = []
    for _ in range(10):
        step = _densify_round(current, config)
        if step is None:
            break
        rebuilt, applied, notes = step
        try:
            current = analyze(rebuilt, lex, config)
        except EmptyPromptError:
            raise PromptDensityError("densify would remove every content token") from None
        all_applied.extend(applied)
        all_notes.extend(notes)
    return RewriteResult(
        output=current.seq.source,
        applied=tuple(all_applied),
        sde_before=before.sde,
        sde_after=current.sde,
        structural_edits=tuple(all_notes),
    ), current


# ---------------------------------------------------------------------------
# Dilute / pad / gradient
# ---------------------------------------------------------------------------

_SENTENCE_END_RE = re.compile(r"[.?!]")


def _first_sentence(text: str) -> str:
    m = _SENTENCE_END_RE.search(text)
    return text[: m.end()] if m else text


def dilute(
    text: str,
    seed: int = 0,
    intensity: int = 2,
    bank: TemplateBank | None = None,
) -> str:
    """Lower a prompt's density with preambles, hedges, and a restatement.

    Deterministic for a given (text, seed, intensity); the original text
    survives verbatim apart from hedge insertions before task verbs.
    """
    if not text.strip():
        raise EmptyPromptError("empty prompt")
    if intensity < 1:
        raise PromptDensityError("intensity must be a positive integer")
    bank = bank if bank is not None else default_templates()
    rng = random.Random(seed)

    count = min(intensity, len(bank.preambles))
    preamble_ids = rng.sample(range(len(bank.preambles)), count)
    preambles = [bank.preambles[i] for i in preamble_ids]

    # One hedge before each task verb; inserting from the end keeps the
    # earlier byte offsets valid.
    seq = tokenize(text)
    verb_starts = [
        start
        for start, kind, lower in zip(seq.starts, seq.kinds, seq.lowered)
        if kind is TokenKind.WORD and lower in wordlists.PROMPT_VERBS
    ]
    hedges = [bank.hedges[rng.randrange(len(bank.hedges))] for _ in verb_starts]
    hedged = text
    for pos, hedge in reversed(list(zip(verb_starts, hedges))):
        hedged = insert_at(hedged, pos, hedge)

    frame = bank.frames[rng.randrange(len(bank.frames))]
    restatement = f"{frame} {_first_sentence(text)}"
    return " ".join(preambles + [hedged, restatement])


def pad(text: str, target_word_equivalent: int) -> str:
    """Append period groups; word count and density stay unchanged."""
    if target_word_equivalent < 0:
        raise PromptDensityError("pad target must be non-negative")
    if target_word_equivalent == 0:
        return text
    return text + " " + " ".join(["..."] * target_word_equivalent)


@dataclass(frozen=True)
class GradientVariant:
    """One density-ladder variant."""

    target: float
    text: str
    achieved: float
    reachable: bool = True


def gradient_variants(
    text: str,
    targets: list[float],
    seed: int = 0,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
    bank: TemplateBank | None = None,
) -> list[GradientVariant]:
    """Build one variant per target score, descending from the densified text.

    Greedy: noise units (hedge words, then preamble sentences for large
    gaps) are inserted one at a time until the score drops into the target
    band. Targets above the densified maximum are reported unreachable.
    A hedge goes before a seeded word token and is rescored from the last
    analysis by ``insert_word``; a preamble, or a hedge it declines, is
    analysed afresh.
    """
    if not targets:
        return []
    ordered = sorted(targets)
    if not all(0.0 < t <= 1.0 for t in ordered):
        raise PromptDensityError("targets must lie in (0, 1]")
    lex = lex if lex is not None else default_lexicon()
    bank = bank if bank is not None else default_templates()
    rng = random.Random(seed)

    current = _densify(text, lex, config)[1]
    base = current.seq.source
    s_max = current.sde
    preambles_used = 0
    hedge_counter = 0
    # Single-word hedges give the finest step size near a target.
    unit_hedges = tuple(h for h in bank.hedges if " " not in h) or bank.hedges
    results: dict[float, GradientVariant] = {}

    for target in sorted(ordered, reverse=True):
        if s_max < target - 0.05:
            results[target] = GradientVariant(target, base, s_max, reachable=False)
            continue
        guard = 0
        while current.sde > target + 0.05 and guard < 500:
            guard += 1
            stepped = False
            if current.sde - target > 0.20 and preambles_used < len(bank.preambles):
                # Preambles cover ground quickly but must not overshoot
                # past the band; fall back to hedges when they would.
                prefixed = bank.preambles[preambles_used] + " " + current.seq.source
                candidate = analyze(prefixed, lex, config)
                if candidate.sde > target + 0.05:
                    preambles_used += 1
                    current = candidate
                    stepped = True
            if not stepped:
                hedge = unit_hedges[hedge_counter % len(unit_hedges)]
                hedge_counter += 1
                seq = current.seq
                words = seq.kinds.count(TokenKind.WORD)
                if not words:
                    current = analyze(seq.source + " " + hedge, lex, config)
                    continue
                # The index of the drawn WORD token, found without a Python loop.
                is_word = map(operator.is_, seq.kinds, repeat(TokenKind.WORD))
                k = next(islice(compress(count(), is_word), rng.randrange(words), None))
                current = insert_word(current, k, hedge, lex, config) or analyze(
                    insert_at(seq.source, seq.starts[k], hedge), lex, config
                )
        results[target] = GradientVariant(target, current.seq.source, current.sde)
    return [results[t] for t in ordered]


# ---------------------------------------------------------------------------
# Instruction placement
# ---------------------------------------------------------------------------

_INSTR_RE = re.compile(
    r"(?i)(\b(?:please\s+)?(?:just\s+)?(?:reply|answer|respond)\b[^.?!]*(?:[.?!]+|$))"
)
_FORMAT_MARKERS = ("format", "answer is", "<")


def _is_sentence_start(text: str, pos: int) -> bool:
    head = text[:pos].rstrip()
    return not head or head[-1] in ".?!:"


def instruction_last(text: str) -> InstructionPlacement:
    """Move the output-format instruction sentences to the end of the prompt.

    An instruction is a span starting with reply/answer/respond that either
    opens a sentence or mentions the response format. Every one moves, in
    its order, so a second pass finds them already last. Without one, the
    text is returned unchanged with ``found=False``. Idempotent.
    """
    spans = [(m.start(1), m.end(1)) for m in _INSTR_RE.finditer(text)
             if _is_sentence_start(text, m.start(1))
             or any(marker in m.group(1).lower() for marker in _FORMAT_MARKERS)]
    if not spans:
        return InstructionPlacement(text, found=False, moved=False)
    cuts = [0] + [cut for span in spans for cut in span] + [len(text)]  # around each span
    rest = "".join(text[a:b] for a, b in zip(cuts[::2], cuts[1::2]))
    reordered = " ".join((rest + " " + " ".join(text[a:b] for a, b in spans)).split())
    moved = bool(rest.strip()) and reordered != " ".join(text.split())
    return InstructionPlacement(reordered if moved else text, found=True, moved=moved)
