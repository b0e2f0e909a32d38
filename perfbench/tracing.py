"""Spans around promptdensity's public functions, recorded from outside.

``Tracer.install`` replaces every module-level name that refers to a traced
function, in every loaded ``promptdensity`` module, with a wrapper. So
``promptdensity.rewrite.analyze``, ``promptdensity.harness.analyze`` and the
package's own ``analyze`` all record a ``scoring.analyze`` span, and calls
between the program's modules are traced as well as the benchmark's own.
Nothing in the program changes; ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, note]``; ``note``
holds a per-call count (characters, matches) or the analyzed text.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# Traced functions by the module that defines them; the span is named
# "<module>.<function>".
TRACED = {
    "tokens": ("tokenize",),
    "lexicon": ("match_phrases",),
    "scoring": ("analyze", "classify_tokens"),
    "rewrite": ("lint", "densify", "gradient_variants"),
    "extraction": ("score_response",),
    "harness": ("run_experiment", "save_results", "load_results", "latency_report"),
    "stats": ("accuracy_table", "mcnemar"),
}

NOTES = {
    "tokens.tokenize": lambda args, result: len(args[0]),
    "lexicon.match_phrases": lambda args, result: len(result),
    "scoring.analyze": lambda args, result: args[0],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, note=None):
        """``name`` is the span name, or a function of the call's arguments
        that returns it."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_name = name(args) if callable(name) else name
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "promptdensity"]
        for short, names in TRACED.items():
            defining = sys.modules[f"promptdensity.{short}"]
            for fname in names:
                original = getattr(defining, fname)
                name = f"{short}.{fname}"
                wrapper = self._wrap(original, name, NOTES.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        harness = sys.modules["promptdensity.harness"]
        for cls in (harness.MockBackend, harness.HttpChatBackend):
            self._patch(cls, "complete", self._wrap(cls.complete, "harness.backend_complete"))
        cli = sys.modules["promptdensity.cli"]
        # cli.main spans are named after the subcommand: cli.run, cli.analyze, ...
        self._patch(cli, "main", self._wrap(cli.main, lambda args: f"cli.{args[0][0]}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-name calls, total and self seconds, plus the counts the metrics
    use. A span's self time is its duration minus its children's; children
    of one span ran on its thread, one after another, so they never overlap."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s: defaultdict = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[idx]

    def under(idx: int, ancestor: str) -> bool:
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    analyze_idx = [i for i, s in enumerate(spans) if s[0] == "scoring.analyze"]
    out = {f"{n}.calls": float(c) for n, c in calls.items()}
    out.update({f"{n}.s": t for n, t in total.items()})
    out.update({f"{n}.self_s": t for n, t in self_s.items()})
    out["tokens.tokenize.chars"] = float(sum(s[4] for s in spans if s[0] == "tokens.tokenize"))
    out["lexicon.match_phrases.matches"] = float(
        sum(s[4] for s in spans if s[0] == "lexicon.match_phrases")
    )
    out["scoring.analyze.distinct_texts"] = float(len({spans[i][4] for i in analyze_idx}))
    out["rewrite.densify.analyze_calls"] = float(
        sum(under(i, "rewrite.densify") for i in analyze_idx)
    )
    ladders = calls["rewrite.gradient_variants"]
    out["rewrite.gradient_variants.analyze_calls_per_ladder"] = (
        sum(under(i, "rewrite.gradient_variants") for i in analyze_idx) / ladders if ladders else 0.0
    )
    return out


def write_spans(path, passes: list[list[list]]) -> None:
    """One JSON array per span, after a first line that names the fields.
    ``parent`` indexes the spans of the same pass; an analyzed text is
    written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["pass", "name", "start", "end", "parent", "note"]}) + "\n")
        for number, spans in enumerate(passes):
            for name, start, end, parent, note in spans:
                note = note if isinstance(note, int) else None
                fh.write(json.dumps([number, name, start, end, parent, note]) + "\n")
