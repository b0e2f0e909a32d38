"""The three workloads: one timed pass each, and the checks on its outputs.

A workload object is built once per process from the seed. ``ops`` is the
fixed number of operations one pass makes: a public text call (analyze,
lint, densify, or one 5-target ladder) on prompt_corpus, a trial on the
experiments. ``run_pass(timer)`` does the work, timing each stage inside
``timer.stage(name)``, and returns its outputs; ``check`` returns a list of
problems, empty when the outputs are right; ``layer_values`` gives the
per-pass values that per-layer metrics take from outputs rather than spans;
``stage_work`` maps a per-layer throughput metric to (stage, work per pass).

The workloads call the program only through its public functions, looked
up on the module at call time so that the tracer's wrappers see them.

Known blind spot: the synthetic manifests have unique item ids and no run
is killed mid-write, so the score cache shared across benchmarks and resume
from a torn ``.partial`` line are not exercised here.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs
from fake_transport import DUMMY_CREDENTIAL, FakeChatTransport

DEFAULT_SEED = 0
GOLDEN = Path(__file__).parent / "data" / "golden.json"
LADDER_BAND = 0.07
LADDER_MIN_IN_BAND = 0.90
# gradient_variants stops once a variant is within this distance of its target.
ACCEPTANCE_BAND = 0.05
# prompt_corpus times its stages in chunks of this many calls (StageTimer).
STAGE_CHUNK = 16


class PassOutput:
    def __init__(self, failed: int, **outputs):
        self.failed = failed
        self.outputs = outputs


def _density_class(sde: float) -> str:
    if sde < 0.40:
        return "diluted"
    if sde < 0.65:
        return "standard"
    if sde <= 0.80:
        return "dense"
    return "ultra_dense"


def _recomputed_score(analysis) -> tuple[int, int, float]:
    """(W, S, (S/W)(1-R)C) counted from the analysis's own tokens and labels."""
    w = sum(1 for tok in analysis.seq.tokens if tok.kind.value != "punctuation")
    semantic = [lab for lab in analysis.labels if lab.kind.value == "semantic"]
    s = len(semantic)
    r = sum(lab.redundant for lab in semantic) / max(s, 1)
    c = sum(lab.concrete for lab in semantic) / max(s, 1)
    return w, s, (s / w) * (1.0 - r) * c


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")


class PromptCorpus:
    """analyze, lint and densify over a seeded corpus, then 5-target ladders."""

    name = "prompt_corpus"

    def __init__(self, seed: int, pd, workdir: Path):
        self.seed = seed
        self.pd = pd
        self.corpus = inputs.prompt_corpus(seed, pd)
        self.ops = 3 * len(self.corpus.texts) + len(self.corpus.ladder_texts)
        words = self.corpus.words
        self.stage_work = {
            "score_words_per_s": ("score", words),
            "lint_words_per_s": ("lint", words),
            "densify_words_per_s": ("densify", words),
            "ladders_per_s": ("ladder", len(self.corpus.ladder_texts)),
        }
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.first_digest: str | None = None

    def run_pass(self, timer) -> PassOutput:
        pd = self.pd
        texts = self.corpus.texts
        errors: list[str] = []

        def call(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # a prompt that raises is a failed operation
                errors.append(f"{fn.__name__}: {exc!r}")
                return None

        def staged(stage, fn, items, *args, **kwargs):
            results = []
            for lo in range(0, len(items), STAGE_CHUNK):
                with timer.stage(stage):
                    results += [call(fn, t, *args, **kwargs) for t in items[lo : lo + STAGE_CHUNK]]
            return results

        analyses = staged("score", pd.analyze, texts)
        lints = staged("lint", pd.lint, texts)
        densified = staged("densify", pd.densify, texts)
        ladders = staged(
            "ladder", pd.gradient_variants, self.corpus.ladder_texts,
            list(inputs.LADDER_TARGETS), seed=self.seed,
        )
        return PassOutput(
            failed=len(errors),
            errors=errors,
            analyses=analyses,
            lints=lints,
            densified=densified,
            ladders=ladders,
        )

    def _digest(self, out: PassOutput, stop: int) -> str:
        """SHA-256 over the first ``stop`` texts' analyze, lint and densify
        outputs, fed one text at a time to keep the check's memory small."""
        o = out.outputs
        digest = hashlib.sha256()
        for a, lint, d in zip(o["analyses"][:stop], o["lints"][:stop], o["densified"][:stop]):
            digest.update(_canonical({
                "analyze": a.to_report(),
                "lint": [x.to_report() for x in lint],
                "densify": {
                    "output": d.output,
                    "sde_before": round(d.sde_before, 6),
                    "sde_after": round(d.sde_after, 6),
                    "applied": [x.to_report() for x in d.applied],
                    "structural_edits": list(d.structural_edits),
                },
            }))
        return digest.hexdigest()

    def check(self, out: PassOutput) -> list[str]:
        o = out.outputs
        if o["errors"]:
            return o["errors"]
        problems: list[str] = []
        texts = self.corpus.texts
        for cond, idx in self.corpus.arc_index.items():
            a = o["analyses"][idx]
            if abs(a.sde - inputs.ARC_TARGETS[cond]) > inputs.ARC_TOLERANCE:
                problems.append(f"arc_001 {cond}: score {a.sde:.4f}, target {inputs.ARC_TARGETS[cond]}")
            if a.klass.value != inputs.ARC_CLASSES[cond]:
                problems.append(f"arc_001 {cond}: class {a.klass.value}")
        for text, a in zip(texts, o["analyses"]):
            w, s, sde = _recomputed_score(a)
            if (a.word_count, a.semantic_count) != (w, s) or abs(a.sde - sde) > 1e-12:
                problems.append(f"analyze score differs from (S/W)(1-R)C: {text[:40]!r}")
            if a.klass.value != _density_class(a.sde):
                problems.append(f"analyze class {a.klass.value} for score {a.sde}: {text[:40]!r}")
        for text, diags in zip(texts, o["lints"]):
            spans = [(d.start, d.end) for d in diags]
            size = len(text.encode("utf-8"))
            if spans != sorted(spans) or any(not 0 <= lo <= hi <= size for lo, hi in spans):
                problems.append(f"lint spans unsorted or outside the text: {text[:40]!r}")
        reachable = [v for ladder in o["ladders"] for v in ladder if v.reachable]
        in_band = sum(abs(v.achieved - v.target) <= LADDER_BAND for v in reachable)
        if not reachable or in_band < LADDER_MIN_IN_BAND * len(reachable):
            problems.append(f"only {in_band}/{len(reachable)} ladder variants within {LADDER_BAND}")
        # Gradient texts are left out of the digests: a faster ladder search
        # may change them as long as the bands above hold.
        digest = self._digest(out, len(texts))
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("score/lint/densify outputs differ between passes")
        fixed = self._digest(out, self.corpus.n_fixed)
        if fixed != self.golden["fixed_prompts"]:
            problems.append(f"fixed-prompt outputs changed: sha256 {fixed}")
        if self.seed == DEFAULT_SEED and digest != self.golden["default_seed"]:
            problems.append(f"default-seed outputs changed: sha256 {digest}")
        return problems

    def layer_values(self, out: PassOutput) -> dict[str, float]:
        reachable = [v for ladder in out.outputs["ladders"] for v in ladder if v.reachable]
        in_band = sum(abs(v.achieved - v.target) <= ACCEPTANCE_BAND for v in reachable)
        return {"rewrite.gradient_variants.in_band_share": in_band / len(reachable)}


def _key(record: dict) -> tuple:
    return (record["model"], record["benchmark"], record["item_id"], record["condition"], record["run"])


class MockExperiment:
    """cli run, analyze --json and mcnemar --json over a 300-item manifest."""

    name = "mock_experiment"

    def __init__(self, seed: int, pd, workdir: Path):
        self.seed = seed
        self.pd = pd
        self.inputs = inputs.mock_experiment(seed, pd, workdir)
        self.ops = self.inputs.trials
        self.stage_work = {
            "run_trials_per_s": ("run", self.inputs.trials),
            "analyze_records_per_s": ("analyze", self.inputs.trials),
        }
        self.sde_checked = False

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.pd.cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, timer) -> PassOutput:
        p = self.inputs
        with timer.stage("run"):
            run = self._cli([
                "run", "--manifest", p.manifest_path, "--backend", p.backend_path,
                "--runs", str(inputs.MOCK_RUNS), "--out", p.out_path, "--seed", str(self.seed),
            ])
        with timer.stage("analyze"):
            analyze = self._cli(["analyze", p.out_path, "--json"])
            mcnemar = self._cli(["mcnemar", p.out_path, "--pair", "ultra_dense:diluted", "--json"])
        codes = [run[0], analyze[0], mcnemar[0]]
        return PassOutput(
            failed=sum(code != 0 for code in codes),
            codes=codes,
            analyze=analyze[1],
            mcnemar=mcnemar[1],
        )

    def check(self, out: PassOutput) -> list[str]:
        o = out.outputs
        if o["codes"] != [0, 0, 0]:
            return [f"cli exit codes run/analyze/mcnemar: {o['codes']}"]
        with open(self.inputs.out_path, encoding="utf-8") as fh:
            records = json.load(fh)
        problems: list[str] = []
        keys = [_key(r) for r in records]
        if len(records) != self.inputs.trials:
            problems.append(f"{len(records)} records, expected {self.inputs.trials}")
        if len(set(keys)) != len(keys) or keys != sorted(keys):
            problems.append("record keys are not unique and sorted")
        errors = sum("error" in r for r in records)
        out.failed += errors
        if errors:
            problems.append(f"{errors} error records")

        groups: dict[str, list[dict]] = {}
        for r in records:
            groups.setdefault(r["benchmark"], []).append(r)
        if len(groups) > 1:
            groups["Overall"] = records
        expected = {}
        for name, group in groups.items():
            cells: dict[str, list[bool]] = {}
            for r in group:
                cells.setdefault(r["condition"], []).append(r["correct"])
            expected[name] = {c: round(100.0 * sum(v) / len(v), 2) for c, v in cells.items()}
        reported = {row["benchmark"]: row["accuracy"] for row in json.loads(o["analyze"])["accuracy"]}
        if reported != expected:
            problems.append("analyze accuracy differs from the recount")

        paired: dict[tuple, dict[str, bool]] = {}
        for r in records:
            paired.setdefault((r["model"], r["benchmark"], r["item_id"], r["run"]), {})[
                r["condition"]
            ] = r["correct"]
        b = sum(1 for p in paired.values() if p["ultra_dense"] and not p["diluted"])
        c = sum(1 for p in paired.values() if p["diluted"] and not p["ultra_dense"])
        test = json.loads(o["mcnemar"])
        if (test["b"], test["c"]) != (b, c):
            problems.append(f"mcnemar b/c {test['b']}/{test['c']}, recount {b}/{c}")
        if test["verdict"] != "win" or not test["p_value"] < 0.10:
            problems.append(f"mcnemar verdict {test['verdict']} p={test['p_value']}")

        if not self.sde_checked:
            # Once per process: every record's score is its prompt's score.
            self.sde_checked = True
            prompts = {(it.benchmark, it.item_id): it.variants for it in self.inputs.items}
            scores: dict[str, float] = {}
            for r in records:
                text = prompts[(r["benchmark"], r["item_id"])][r["condition"]]
                if text not in scores:
                    scores[text] = round(self.pd.analyze(text).sde, 4)
                if r["sde"] != scores[text]:
                    problems.append(f"record {_key(r)} has sde {r['sde']}, prompt scores {scores[text]}")
                    break
        return problems

    def layer_values(self, out: PassOutput) -> dict[str, float]:
        return {
            "harness.results_bytes": float(os.path.getsize(self.inputs.out_path)),
            "harness.partial_bytes": float(os.path.getsize(self.inputs.out_path + ".partial")),
        }


class HttpExperiment:
    """run_experiment against three fake http_chat backends."""

    name = "http_experiment"

    def __init__(self, seed: int, pd, workdir: Path):
        self.seed = seed
        self.pd = pd
        self.plan = inputs.http_experiment(seed, pd, workdir)
        self.ops = self.plan.trials
        self.stage_work = {"http_trials_per_s": ("run", self.plan.trials)}
        # Set in the benchmark's own process only; the fake transport checks it.
        os.environ[inputs.HTTP_CREDENTIAL_ENV] = DUMMY_CREDENTIAL
        self.prompt_scores = {t: round(pd.analyze(t).sde, 4) for t in self.plan.answers}

    def run_pass(self, timer) -> PassOutput:
        plan = self.plan
        transport = FakeChatTransport(plan)
        backends = [self.pd.build_backend(d, seed=self.seed, transport=transport) for d in plan.descriptors]
        with timer.stage("run"):
            records = self.pd.run_experiment(
                plan.items, backends, runs_per_item=inputs.HTTP_RUNS, seed=self.seed,
                out_path=plan.out_path,
            )
        return PassOutput(failed=0, records=records, calls=transport.calls, run_s=timer.wall["run"])

    def check(self, out: PassOutput) -> list[str]:
        plan = self.plan
        records, calls = out.outputs["records"], out.outputs["calls"]
        problems: list[str] = []
        if len(records) != plan.trials or len({r.key for r in records}) != plan.trials:
            problems.append(f"{len(records)} records with unique keys, expected {plan.trials}")
        prompts = {(it.benchmark, it.item_id): it.variants for it in plan.items}
        error_keys = set()
        for r in records:
            text = prompts[(r.benchmark, r.item_id)][r.condition]
            key = (r.model, text)
            if r.error:
                error_keys.add(key)
            elif r.correct != (key not in plan.wrong):
                problems.append(f"trial {r.key} scored correct={r.correct}")
            if r.sde != self.prompt_scores[text]:
                problems.append(f"trial {r.key} has sde {r.sde}, prompt scores {self.prompt_scores[text]}")
        # The injected 400s are expected error records; any other error, or
        # a missing one, is a failed operation.
        out.failed = len(error_keys ^ plan.fail_400)
        if error_keys != plan.fail_400:
            problems.append(f"error records {sorted(error_keys)} differ from the injected 400s")
        if len(calls) != plan.trials + len(plan.fail_503):
            problems.append(f"{len(calls)} transport attempts, expected trials + injected 503s")
        for model, interval in plan.paced.items():
            starts = [start for m, start, _, _ in calls if m == model]
            # 1 ms of slack for the clock reads around the pacer's sleep.
            if any(b - a < interval - 1e-3 for a, b in zip(starts, starts[1:])):
                problems.append(f"calls to {model} closer than {interval:.3f} s apart")
        with open(plan.out_path, encoding="utf-8") as fh:
            if len(json.load(fh)) != plan.trials:
                problems.append("results file does not hold every trial")
        return problems

    def layer_values(self, out: PassOutput) -> dict[str, float]:
        records, calls = out.outputs["records"], out.outputs["calls"]
        wait = sum(end - start for _, start, end, _ in calls)
        errors = sum(1 for r in records if r.error)
        return {
            "harness.transport.attempts": float(len(calls)),
            "harness.transport.wait_s": wait,
            "harness.retries": float(len(calls) - len(records)),
            "harness.wait_overlap": wait / out.outputs["run_s"],
            "harness.error_records": float(errors),
            "failed_share": errors / len(records),
            "harness.results_bytes": float(os.path.getsize(self.plan.out_path)),
            "harness.partial_bytes": float(os.path.getsize(self.plan.out_path + ".partial")),
        }


WORKLOADS = {w.name: w for w in (PromptCorpus, MockExperiment, HttpExperiment)}
