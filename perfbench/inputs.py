"""Seeded inputs for the three benchmark workloads.

Every input is a function of the workload seed alone: the same seed gives
the same prompts, manifest, backend files, HTTP backend set and fault
schedule. The program under test only receives what these functions build.

The fixed prompts in ``data/`` are copies of the package's test fixtures,
kept here so that the benchmark's inputs do not move when the tests do.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).parent / "data"

# prompt_corpus
LADDER_TARGETS = (0.20, 0.35, 0.50, 0.65, 0.80)
# A ladder rescans the whole prompt after every hedge it inserts, so one
# over a 1,500-word prompt takes seconds; ladders run on the short prompts.
LADDER_MAX_WORDS = 200
LONG_PROMPTS = 3
LONG_WORDS = (1500, 2000)
# Hand-written calibration targets of the arc_001 sample item, and the
# tolerance the package's acceptance suite allows around them.
ARC_TARGETS = {"diluted": 0.29, "standard": 0.58, "ultra_dense": 0.87}
ARC_CLASSES = {"diluted": "diluted", "standard": "standard", "ultra_dense": "ultra_dense"}
ARC_TOLERANCE = 0.15

# mock_experiment
MOCK_ITEMS = 300
MOCK_RUNS = 3
MOCK_BACKENDS = (
    {"kind": "mock", "model": "mock-a", "params": {"intercept": -2.0, "slope": 4.0}},
    {"kind": "mock", "model": "mock-b", "params": {"intercept": -1.5, "slope": 3.5}},
)

# http_experiment: (model, latency in seconds, rate limit in requests/min).
# Run serially, calls to one backend are at least the sum of all three
# latencies (70 ms) apart, so the 50 ms pacing interval of "fake-fast" only
# binds once calls to different backends overlap.
HTTP_ITEMS = 12
HTTP_RUNS = 1
HTTP_BACKENDS = (
    ("fake-fast", 0.010, 1200.0),
    ("fake-mid", 0.020, None),
    ("fake-slow", 0.040, None),
)
HTTP_503S = 2
HTTP_400S = 2
HTTP_WRONG_SHARE = 0.25
HTTP_CREDENTIAL_ENV = "PERFBENCH_FAKE_API_KEY"


def _words(text: str) -> int:
    return len(text.split())


def fixed_prompts() -> tuple[list[str], dict[str, str]]:
    """The 20 fixture corpus prompts and the three arc_001 variants."""
    lines = (DATA / "corpus.txt").read_text(encoding="utf-8").splitlines()
    corpus = [line for line in lines if line.strip() and not line.startswith("#")]
    with open(DATA / "arc_001.json", encoding="utf-8") as fh:
        arc = json.load(fh)["items"][0]["variants"]
    return corpus, arc


@dataclass(frozen=True)
class Corpus:
    """Inputs of analyze, lint and densify, of which the first ``n_fixed``
    do not depend on the seed, and the inputs of the ladders."""

    texts: tuple[str, ...]
    n_fixed: int
    arc_index: dict[str, int]
    ladder_texts: tuple[str, ...]

    @property
    def words(self) -> int:
        return sum(_words(t) for t in self.texts)


def prompt_corpus(seed: int, pd) -> Corpus:
    """Corpus and arc prompts, a seeded dilution of each corpus prompt, and
    a few seeded concatenations of 1,500 to 2,000 words."""
    corpus, arc = fixed_prompts()
    rng = random.Random(seed)
    fixed = corpus + list(arc.values())
    diluted = [pd.dilute(text, seed=rng.randrange(2**31)) for text in corpus]
    pool = fixed + diluted
    longest = max(_words(t) for t in pool)
    long_texts = []
    for _ in range(LONG_PROMPTS):
        target = rng.randint(LONG_WORDS[0], LONG_WORDS[1] - longest)
        parts: list[str] = []
        while sum(_words(p) for p in parts) < target:
            parts.append(rng.choice(pool))
        long_texts.append(" ".join(parts))
    texts = tuple(fixed + diluted + long_texts)
    return Corpus(
        texts=texts,
        n_fixed=len(fixed),
        arc_index={cond: len(corpus) + i for i, cond in enumerate(arc)},
        ladder_texts=tuple(t for t in texts if _words(t) <= LADDER_MAX_WORDS),
    )


@dataclass(frozen=True)
class MockInputs:
    items: list
    manifest_path: str
    backend_path: str
    out_path: str

    @property
    def trials(self) -> int:
        return sum(len(it.variants) for it in self.items) * MOCK_RUNS * len(MOCK_BACKENDS)


def mock_experiment(seed: int, pd, workdir: Path) -> MockInputs:
    """A synthetic 300-item manifest and a backend file with two mock models."""
    from promptdensity.harness import manifest_to_json

    items = pd.make_synthetic_manifest(MOCK_ITEMS, seed=seed)
    manifest_path = workdir / "manifest.json"
    backend_path = workdir / "backends.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest_to_json(items), fh, indent=2)
    with open(backend_path, "w", encoding="utf-8") as fh:
        json.dump(list(MOCK_BACKENDS), fh, indent=2)
    return MockInputs(items, str(manifest_path), str(backend_path), str(workdir / "results.json"))


@dataclass(frozen=True)
class HttpPlan:
    """Items, backends and the fault schedule of one http_experiment seed.

    Trials are keyed by (model, prompt text): the fake transport sees
    nothing else. Faults only go to prompts that occur once in the
    manifest, so each injected fault hits exactly one trial.
    """

    items: list
    descriptors: list
    latency_s: dict[str, float]
    answers: dict[str, tuple[str, str]]
    fail_503: frozenset[tuple[str, str]]
    fail_400: frozenset[tuple[str, str]]
    wrong: frozenset[tuple[str, str]]
    out_path: str

    @property
    def trials(self) -> int:
        return sum(len(it.variants) for it in self.items) * HTTP_RUNS * len(self.descriptors)

    @property
    def paced(self) -> dict[str, float]:
        """Model -> minimum seconds between calls."""
        return {d.model_id: 60.0 / d.rate_limit_rpm for d in self.descriptors if d.rate_limit_rpm}


def http_experiment(seed: int, pd, workdir: Path) -> HttpPlan:
    """Twelve synthetic items against three fake http_chat backends, with a
    seeded, fixed-size set of one-shot 503s, 400s and wrong answers."""
    items = pd.make_synthetic_manifest(HTTP_ITEMS, seed=seed)
    descriptors = [
        pd.BackendDescriptor(
            kind=pd.BackendKind.HTTP_CHAT,
            model_id=model,
            endpoint=f"fake://{model}/v1/chat/completions",
            credential_env=HTTP_CREDENTIAL_ENV,
            rate_limit_rpm=rpm,
        )
        for model, _, rpm in HTTP_BACKENDS
    ]
    answers: dict[str, tuple[str, str]] = {}
    uses: dict[str, int] = {}
    for item in items:
        for text in item.variants.values():
            answers[text] = (item.answer_format.value, item.ground_truth)
            uses[text] = uses.get(text, 0) + 1
    rng = random.Random(seed)
    keys = [(model, text) for model, _, _ in HTTP_BACKENDS for text in sorted(answers)]
    unique = [k for k in keys if uses[k[1]] == 1]
    faulty = rng.sample(unique, HTTP_503S + HTTP_400S)
    wrong = frozenset(k for k in keys if rng.random() < HTTP_WRONG_SHARE)
    return HttpPlan(
        items=items,
        descriptors=descriptors,
        latency_s={model: latency for model, latency, _ in HTTP_BACKENDS},
        answers=answers,
        fail_503=frozenset(faulty[:HTTP_503S]),
        fail_400=frozenset(faulty[HTTP_503S:]),
        wrong=wrong,
        out_path=str(workdir / "http_results.json"),
    )
