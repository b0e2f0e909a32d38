"""Within-items experiment runner over pluggable model backends.

Every (model, item, condition, run) is issued exactly once and scored with
the deterministic extractor. Each distinct prompt text is scored once
before any request is sent. Then each backend walks the task list in
order. A backend that waits, one with ``attempts``, gets a worker thread
(at most ``MAX_WORKERS`` at a time), so it has one request in flight and
waits on different backends overlap; meanwhile the calling thread runs
every other backend's trials itself. The worker waits out every backoff
and pacing wait in slices, so a stopped run ends within one slice. A trial
that backs off after a 5xx or a transport error is set aside while the
later trials go out, and is retried once its backoff has passed, never
sooner. A 429, or a second failure while one trial is set aside, holds
the backend until a request gets a reply: no new trial goes out, and one
trial at a time is retried, as a lone trial would be. A 200 whose body is
not JSON or holds no reply text is an error record. The calling thread
alone appends each finished trial to a crash-resumable partial file and
calls ``progress``: its own trials as they finish, then the workers' in
the order they finished. The final results file is a JSON array sorted by
record key.

The mock backend answers correctly with probability
sigmoid(intercept + slope * prompt_score), deterministically per request
key, which makes desk-scale paired experiments reproducible end to end.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

from .errors import ManifestError, PromptDensityError
from .extraction import MC_LETTERS, AnswerFormat, answer_words, score_response
from .lexicon import Lexicon
from .rewrite import dilute
from .scoring import DEFAULT_CONFIG, DensityClass, ScoreConfig, analyze
from .stats import format_table

KNOWN_CONDITIONS = ("diluted", "standard", "ultra_dense", "ultra_dense_ipe", "padding")
_GRADIENT_RE = re.compile(r"gradient_[0-9a-z_.]+")
# Most backend workers run_experiment keeps busy at once.
MAX_WORKERS = 8
# Longest sleep a worker takes before it checks whether the run has stopped.
_STOP_POLL_S = 0.1


class BackendKind(Enum):
    MOCK = "mock"
    HTTP_CHAT = "http_chat"


@dataclass(frozen=True)
class BenchmarkItem:
    """One task with ground truth and its per-condition prompt texts."""

    item_id: str
    benchmark: str
    answer_format: AnswerFormat
    ground_truth: str
    variants: dict[str, str]


_NUMBER = (int, float)  # a JSON number, read into a float


def is_number(value) -> bool:
    """Whether a value is a number that a float holds: not NaN, not infinite
    and not a larger int. JSON true and false are not numbers."""
    return (isinstance(value, _NUMBER) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def is_integer(value) -> bool:
    """Whether a value is a JSON integer; JSON true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


# The fields of a results record, in file order and in TrialRecord's field
# order: the JSON type each needs, and its name. An optional "error" string
# follows them.
_RECORD_FIELDS = {
    "model": (str, "a string"),
    "benchmark": (str, "a string"),
    "item_id": (str, "a string"),
    "condition": (str, "a string"),
    "run": (int, "an integer"),
    "correct": (bool, "true or false"),
    "response": (str, "a string"),
    "latency_ms": (_NUMBER, "a number"),
    "output_tokens": (int, "an integer"),
    "sde": (_NUMBER, "a number"),
    "timestamp": (str, "a string"),
}


@dataclass(frozen=True)
class TrialRecord:
    model: str
    benchmark: str
    item_id: str
    condition: str
    run: int
    correct: bool
    response: str
    latency_ms: float
    output_tokens: int
    sde: float
    timestamp: str
    error: str | None = None

    @property
    def key(self) -> tuple[str, str, str, str, int]:
        return (self.model, self.benchmark, self.item_id, self.condition, self.run)

    def to_json(self) -> dict:
        fields = vars(self)
        record = {name: fields[name] for name in _RECORD_FIELDS}
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_json(cls, data: dict) -> "TrialRecord":
        if not isinstance(data, dict):
            raise PromptDensityError("malformed trial record: not a JSON object")
        values = []
        for name, (kind, described) in _RECORD_FIELDS.items():
            value = data.get(name)
            if not (is_number(value) if kind is _NUMBER else is_integer(value) if kind is int
                    else isinstance(value, kind)):
                if name not in data:
                    raise PromptDensityError(f"trial record lacks field {name!r}")
                raise PromptDensityError(f"malformed trial record: {name!r} must be {described}")
            values.append(float(value) if kind is _NUMBER else value)
        error = data.get("error")
        if error is not None and not isinstance(error, str):
            raise PromptDensityError("malformed trial record: 'error' must be a string or null")
        return cls(*values, error)


@dataclass(frozen=True)
class BackendDescriptor:
    """Connection and policy description for one model backend."""

    kind: BackendKind
    model_id: str
    endpoint: str | None = None
    credential_env: str | None = None
    params: dict = field(default_factory=dict)
    rate_limit_rpm: float | None = None
    max_retries: int = 5

    def __post_init__(self):
        if self.kind is BackendKind.HTTP_CHAT and not (self.endpoint and self.credential_env):
            raise PromptDensityError("http_chat backend needs endpoint and credential_env")


def _stable_uniform(*parts) -> float:
    digest = hashlib.sha256("|".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _sigmoid(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # x below about -709.78
        return 0.0


class MockBackend:
    """Deterministic stand-in model; accuracy is logistic in prompt score."""

    def __init__(self, descriptor: BackendDescriptor, seed: int = 0):
        self.descriptor = descriptor
        self.seed = seed
        self.intercept = float(descriptor.params.get("intercept", -2.0))
        self.slope = float(descriptor.params.get("slope", 4.0))

    def _wrong_answer(self, item: BenchmarkItem, u: float) -> str:
        truth = str(item.ground_truth).strip()
        if item.answer_format is AnswerFormat.MC_LETTER:
            pool = [v for v in MC_LETTERS if v != truth.upper()]
            return pool[int(u * len(pool)) % len(pool)]
        if item.answer_format is AnswerFormat.INTEGER:
            offset = 1 + int(u * 9)
            sign = 1 if u < 0.5 else -1
            return str(int(truth) + sign * offset)
        pool = ["Morgan Lee", "Alex Turner", "Jamie Fox", "Robin Blake", "Casey Stone"]
        candidates = [n for n in pool if n.lower() != truth.lower()]
        return candidates[int(u * len(candidates)) % len(candidates)]

    def complete(
        self, item: BenchmarkItem, condition: str, run: int, prompt: str, sde: float
    ) -> tuple[str, float, int]:
        # Joined once: each draw hashes the key joined with its tag.
        key = "|".join(map(str, (self.seed, self.descriptor.model_id, item.benchmark,
                                 item.item_id, condition, run)))
        p_success = _sigmoid(self.intercept + self.slope * sde)
        if _stable_uniform(key, "outcome") < p_success:
            answer = str(item.ground_truth).strip()
        else:
            answer = self._wrong_answer(item, _stable_uniform(key, "wrong"))
        response = f"The answer is {answer}."
        latency = round(150.0 + 400.0 * _stable_uniform(key, "latency"), 1)
        tokens = len(response.split()) + int(8 * _stable_uniform(key, "tokens"))
        return response, latency, tokens


def _http_post(url: str, headers: dict, payload: dict, timeout: float = 120.0):
    import requests

    resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    try:
        body = resp.json()
    except ValueError:  # such as a proxy's HTML page; no reply text, so an error record
        body = resp.text
    return resp.status_code, body


_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class HttpChatBackend:
    """Minimal generic chat-completion client with retry and pacing.

    The wire shape is {"model", "messages", **params}; temperature is only
    sent when the descriptor sets it, leaving the provider default intact.
    Credentials come from the environment variable named in the
    descriptor, never from files or argv.

    ``run_experiment`` sends each trial through ``attempts``, not
    ``complete``, so a subclass that changes how a trial is sent must
    override ``attempts``; ``complete`` only sleeps out the waits that
    ``attempts`` yields. A body that is not JSON is no reply.
    """

    def __init__(self, descriptor: BackendDescriptor, transport=None, sleep=time.sleep):
        self.descriptor = descriptor
        self.transport = transport or _http_post
        self.sleep = sleep
        self._last_call = 0.0

    def _headers(self) -> dict:
        token = os.environ.get(self.descriptor.credential_env or "", "")
        if not token:
            raise PromptDensityError(
                f"credential environment variable {self.descriptor.credential_env!r} is unset"
            )
        return {"Authorization": f"Bearer {token}", "Content-Type": "application/json"}

    @staticmethod
    def _parse_text(body) -> str:
        fields = body if isinstance(body, dict) else {}
        choices = fields.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            message = choices[0].get("message", {})
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
        content = fields.get("content")
        if isinstance(content, list) and content and isinstance(content[0], dict):
            text = content[0].get("text")
            if isinstance(text, str):
                return text
        for key in ("output", "text", "response"):
            if isinstance(fields.get(key), str):
                return fields[key]
        raise PromptDensityError(f"backend returned HTTP 200 with no reply text: {body!r:.200}")

    @staticmethod
    def _parse_tokens(body: dict, text: str) -> int:
        usage = body.get("usage", {})
        if isinstance(usage, dict):
            for key in ("completion_tokens", "output_tokens"):
                if is_integer(usage.get(key)):
                    return usage[key]
        return len(text.split())

    def attempts(self, item: BenchmarkItem, condition: str, run: int, prompt: str, sde: float):
        """The requests of one trial, one request per step.

        It yields each wait, in seconds, that the caller waits out: before
        a retry ``(backoff, whole_backend)``, true when it holds up the
        whole backend, as a 429 does; before a paced request ``(wait,
        None)``, which holds nothing up. Returns ``(reply, latency_ms,
        output_tokens)``. Raises PromptDensityError on a permanent failure,
        a 200 with no reply text, and after ``max_retries`` attempts.
        """
        payload = {
            "model": self.descriptor.model_id,
            "messages": [{"role": "user", "content": prompt}],
        }
        payload.update(self.descriptor.params)
        headers = self._headers()
        rpm = self.descriptor.rate_limit_rpm
        last_error = "request failed"
        for attempt in range(self.descriptor.max_retries):
            if attempt:
                yield 2.0 ** (attempt - 1), status == 429
            wait = self._last_call + 60.0 / rpm - time.monotonic() if rpm else 0.0
            if wait > 0:
                yield wait, None
            started = self._last_call = time.monotonic()
            try:
                status, body = self.transport(self.descriptor.endpoint, headers, payload)
            except Exception as exc:  # transport-level failure is retryable
                last_error = str(exc)
                status, body = None, None
            latency = (time.monotonic() - started) * 1000.0
            if status is not None and status not in _RETRYABLE_STATUS:
                if status != 200:
                    raise PromptDensityError(f"backend returned HTTP {status}: {body!r:.200}")
                text = self._parse_text(body)
                return text, round(latency, 1), self._parse_tokens(body, text)
            if status is not None:
                last_error = f"HTTP {status}"
        raise PromptDensityError(f"backend gave up after retries: {last_error}")

    def complete(
        self, item: BenchmarkItem, condition: str, run: int, prompt: str, sde: float
    ) -> tuple[str, float, int]:
        """One trial, sleeping out each wait that ``attempts`` yields."""
        steps = self.attempts(item, condition, run, prompt, sde)
        try:
            while True:
                self.sleep(next(steps)[0])
        except StopIteration as done:
            return done.value


def build_backend(descriptor: BackendDescriptor, seed: int = 0, transport=None):
    if descriptor.kind is BackendKind.MOCK:
        return MockBackend(descriptor, seed=seed)
    return HttpChatBackend(descriptor, transport=transport)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def validate_manifest(
    data: dict,
    strict: bool = False,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
) -> tuple[list[BenchmarkItem], list[str]]:
    """Check a raw manifest document; returns (items, issues).

    Strict mode additionally scores the diluted / ultra_dense variants and
    reports ones that ``density_class`` puts outside their condition's class.
    """
    issues: list[str] = []
    items: list[BenchmarkItem] = []
    raw_items = data.get("items") if isinstance(data, dict) else None
    if not isinstance(raw_items, list) or not raw_items:
        return [], ["manifest must carry a non-empty top-level 'items' array"]
    seen: set[tuple[str, str]] = set()
    for pos, raw in enumerate(raw_items):
        where = f"items[{pos}]"
        if not isinstance(raw, dict):
            issues.append(f"{where}: not an object")
            continue
        item_id = raw.get("id")
        if not isinstance(item_id, str) or not item_id:
            issues.append(f"{where}: missing id")
            continue
        # An id with a newline or other control character would split the line.
        where = item_id if item_id.isprintable() else repr(item_id)
        benchmark = raw.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            issues.append(f"{where}: missing benchmark")
            continue
        # Keyed as records are: benchmarks merged into one manifest may reuse ids.
        if (benchmark, item_id) in seen:
            issues.append(f"{where}: duplicate item id")
            continue
        seen.add((benchmark, item_id))
        try:
            answer_format = AnswerFormat(raw.get("answer_format"))
        except ValueError:
            issues.append(f"{where}: answer_format must be one of "
                          f"{[f.value for f in AnswerFormat]}")
            continue
        ground_truth = raw.get("ground_truth")
        if not isinstance(ground_truth, str) or not ground_truth.strip():
            issues.append(f"{where}: missing ground_truth")
            continue
        if answer_format is AnswerFormat.MC_LETTER and ground_truth.strip().upper() not in MC_LETTERS:
            issues.append(f"{where}: mc_letter ground_truth must be one of {MC_LETTERS}")
            continue
        if answer_format is AnswerFormat.INTEGER:
            try:
                int(ground_truth.strip())
            except ValueError:
                issues.append(f"{where}: integer ground_truth is not an integer")
                continue
        if answer_format is AnswerFormat.EXACT_STRING and not answer_words(ground_truth):
            # match_exact would score every reply wrong.
            issues.append(f"{where}: exact_string ground_truth has no letters or digits")
            continue
        variants = raw.get("variants")
        if not isinstance(variants, dict) or not variants:
            issues.append(f"{where}: variants must be a non-empty map")
            continue
        bad = False
        for condition, text in variants.items():
            if not (condition in KNOWN_CONDITIONS or _GRADIENT_RE.fullmatch(condition)):
                issues.append(f"{where}: unknown condition {condition!r}")
                bad = True
            if not isinstance(text, str) or not text.strip():
                issues.append(f"{where}: variant {condition!r} is empty")
                bad = True
        if bad:
            continue
        item = BenchmarkItem(item_id, benchmark, answer_format, ground_truth.strip(), dict(variants))
        if strict:
            for condition, klass, needs in (
                    ("diluted", DensityClass.DILUTED, f"< {config.diluted_below:.2f}"),
                    ("ultra_dense", DensityClass.ULTRA_DENSE, f"> {config.ultra_above:.2f}")):
                if condition in item.variants:
                    analysis = analyze(item.variants[condition], lex, config)
                    if analysis.klass is not klass:
                        issues.append(f"{where}: {condition} variant scores "
                                      f"{analysis.sde:.2f}, needs {needs}")
        items.append(item)
    return items, issues


# A JSON escape of a UTF-16 surrogate, which may stand alone.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unencodable(value) -> str | None:
    """The JSON path of the first string, key or value, in ``value`` that
    UTF-8 cannot encode, or None."""
    stack = [("$", value)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return where
        elif isinstance(value, (dict, list)):
            pairs = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in reversed(list(pairs)):  # popped in document order, key first
                stack += [(f"{where}[{key!r}]", item), (f"{where}[{key!r}]", key)]
    return None


def read_json(path: str):
    """The JSON document in ``path``; a file that is not JSON, or that
    escapes a lone surrogate, is a domain error."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise PromptDensityError(f"{path}: not valid JSON: {exc}") from None
    where = _unencodable(data) if _SURROGATE_ESCAPE.search(text) else None
    if where:
        raise PromptDensityError(f"{path}: the text at {where} holds a lone surrogate, "
                                 "which UTF-8 cannot encode")
    return data


def load_manifest(path: str, strict: bool = False) -> list[BenchmarkItem]:
    items, issues = validate_manifest(read_json(path), strict=strict)
    if issues:
        raise ManifestError(issues)
    return items


def manifest_to_json(items: list[BenchmarkItem]) -> dict:
    return {
        "items": [
            {
                "id": it.item_id,
                "benchmark": it.benchmark,
                "answer_format": it.answer_format.value,
                "ground_truth": it.ground_truth,
                "variants": it.variants,
            }
            for it in items
        ]
    }


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------

def _load_partial(path: str) -> dict[tuple, TrialRecord]:
    """Records of a partial file, by key.

    A last line without its newline was cut short by a kill mid-write. It
    is dropped and cut off the file, so the next append starts a new line.
    """
    done: dict[tuple, TrialRecord] = {}
    if not os.path.exists(path):
        return done
    with open(path, "r+b") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            import logging  # only this rare path logs; every CLI start would pay the import

            logging.getLogger(__name__).warning(
                "%s: dropping a torn last line of %d bytes", path, len(data) - end
            )
            fh.truncate(end)
    for number, line in enumerate(data[:end].splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = TrialRecord.from_json(json.loads(line))
        except (ValueError, PromptDensityError) as exc:
            raise PromptDensityError(f"{path}, line {number}: {exc}") from None
        done[record.key] = record
    return done


# A record's fields as an indent=2 array holds them, and a record as one
# compact .partial line. Both run in the C encoder, which indent turns off;
# every TrialRecord field is a scalar, so no nested value needs indenting.
_encode_fields = json.JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


def results_json(records: list[TrialRecord]):
    """The records as ``json.dumps(..., indent=2, ensure_ascii=False)``
    writes their ``to_json`` list, one piece per record."""
    yield "["
    sep, end = "\n  {\n    ", "]"
    for r in records:
        yield sep + _encode_fields(r.to_json())[1:-1] + "\n  }"
        sep, end = ",\n  {\n    ", "\n]"
    yield end


def save_results(records: list[TrialRecord], out_path: str) -> None:
    """Write the records sorted by key as a JSON array, through a synced
    temporary file renamed over ``out_path``, so a crash never tears it."""
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            fh.writelines(results_json(sorted(records, key=lambda r: r.key)))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def load_results(path: str) -> list[TrialRecord]:
    data = read_json(path)
    if not isinstance(data, list):
        raise PromptDensityError(f"{path}: results file must hold a JSON array")
    try:
        records = [TrialRecord.from_json(entry) for entry in data]
    except PromptDensityError as exc:
        raise PromptDensityError(f"{path}: {exc}") from None
    keys = [r.key for r in records]
    if len(set(keys)) != len(keys):
        seen: set[tuple] = set()  # seen.add returns None: the first key seen twice
        repeated = next(key for key in keys if key in seen or seen.add(key))
        raise PromptDensityError(f"{path}: duplicate record key {repeated!r}")
    return records


def run_experiment(
    items: list[BenchmarkItem],
    backends: list,
    runs_per_item: int = 3,
    seed: int = 0,
    out_path: str | None = None,
    resume: bool = False,
    lex: Lexicon | None = None,
    config: ScoreConfig = DEFAULT_CONFIG,
    progress=None,
) -> list[TrialRecord]:
    """Run every (model, item, condition, run) once and return the records.

    Backend model ids must be distinct. A backend with an ``attempts``
    generator (see ``HttpChatBackend``) runs on its own worker thread, at
    most ``MAX_WORKERS`` at a time, and has a trial that backs off set aside
    while its worker sends the next ones, unless the backend is on hold.
    The worker waits out every backoff and pacing wait through the
    backend's ``sleep``, in slices, so a run that stops ends within one.
    Any other backend runs on the calling thread, each trial in one
    ``complete`` call, while the workers wait; so a custom backend whose
    ``complete`` blocks overlaps the others only if it has ``attempts``.
    ``progress(task_index, task_count, record)`` is called on the calling
    thread as each trial finishes. ``seed`` is unused: a mock backend takes
    its seed from ``build_backend``.

    With ``out_path`` each completed trial is appended to a ``.partial``
    sidecar immediately; ``resume`` skips keys already present there, so a
    killed run continues where it stopped and converges to the same final
    file. Backend failures after retries are recorded with the error flag
    and correct=False rather than aborting the run; any other exception a
    backend raises stops the run and is raised here.
    """
    if not items:
        raise ManifestError(["no items to run"])
    ids = [(it.benchmark, it.item_id) for it in items]
    if len(set(ids)) != len(ids):
        raise ManifestError(["duplicate item ids in manifest"])
    if any(not it.variants for it in items):
        raise ManifestError(["item with no variants"])
    if not backends:
        raise PromptDensityError("no backends configured")
    models = [backend.descriptor.model_id for backend in backends]
    if len(set(models)) != len(models):
        repeated = sorted({m for m in models if models.count(m) > 1})
        raise PromptDensityError(f"duplicate backend model ids: {repeated}")
    if runs_per_item < 1:
        raise PromptDensityError(f"runs per item must be at least 1, got {runs_per_item}")
    done: dict[tuple, TrialRecord] = {}
    partial = None
    if out_path:
        partial = out_path + ".partial"
        if resume:
            done = _load_partial(partial)
        elif os.path.exists(partial):
            os.remove(partial)

    # Plan: the task order, and each distinct prompt text scored once.
    ordered_items = sorted(items, key=lambda it: (it.benchmark, it.item_id))
    tasks = [
        (item, condition, run)
        for item in ordered_items
        for condition in sorted(item.variants)
        for run in range(runs_per_item)
    ]
    scores: dict[str, float] = {}
    for item in ordered_items:
        for text in item.variants.values():
            if text not in scores:
                scores[text] = analyze(text, lex, config).sde

    # Execute: each backend walks the tasks in order, so it has one request
    # in flight and its pacing and retry state stay on one thread. A
    # backend that waits gets a worker, which only waits on it; the calling
    # thread runs the others. Imported here so that commands other than
    # `run` start without them.
    import queue
    from concurrent.futures import Future, ThreadPoolExecutor

    finished: queue.Queue = queue.Queue()
    stop = threading.Event()

    def work(backend, deliver) -> None:
        """Run the backend's pending trials; hand each finished one to ``deliver``."""
        model = backend.descriptor.model_id
        pending = (
            (task_index, task) for task_index, task in enumerate(tasks)
            if (model, task[0].benchmark, task[0].item_id, task[1], task[2]) not in done
        )
        task = next(pending, None)
        # A trial that backs off is parked as (due, task index, steps). A
        # 429, or a trial that fails while another is parked, puts the
        # backend on hold until a reply: no new trial, and only the oldest
        # parked trial is retried, so a backend that is down sees the
        # requests a lone trial would send.
        parked: list = []
        hold = False

        attempts = getattr(backend, "attempts", None)

        def wait_until(due) -> bool:
            """Sleep until ``due`` in slices; False if the run stops first."""
            while not stop.is_set():
                wait = due - time.monotonic()
                if wait <= 0:
                    return True
                backend.sleep(min(wait, _STOP_POLL_S))
            return False

        def advance(task_index, steps, trial=()) -> None:
            """Send the trial's next request through ``steps``, and park the
            trial if it backs off. A backend without ``attempts`` has no
            steps: it runs the whole ``trial`` in one ``complete`` call."""
            nonlocal hold
            try:
                if steps is None:
                    reply, error = backend.complete(*trial), None
                else:
                    delay, whole_backend = next(steps)
                    while whole_backend is None:  # pacing: no park, no hold
                        if not wait_until(time.monotonic() + delay):
                            return
                        delay, whole_backend = next(steps)
                    hold = hold or whole_backend or bool(parked)
                    parked.append((time.monotonic() + delay, task_index, steps))
                    return
            except StopIteration as done:
                reply, error, hold = done.value, None, False
            except PromptDensityError as exc:
                reply, error = ("", 0.0, 0), str(exc)
            deliver((task_index, model, reply, error))

        while not stop.is_set():
            if parked:
                retry = min(parked, key=operator.itemgetter(1)) if hold else min(parked)
                if retry[0] <= time.monotonic() or hold or task is None:
                    if wait_until(retry[0]):
                        parked.remove(retry)
                        advance(retry[1], retry[2])
                    continue
            if task is None:
                return
            task_index, (item, condition, run) = task
            prompt = item.variants[condition]
            trial = (item, condition, run, prompt, scores[prompt])
            advance(task_index, attempts(*trial) if attempts else None, trial)
            task = next(pending, None)

    # Sink: this thread alone scores replies, appends to the partial file
    # and reports progress; a worker's trials, and then its future, arrive
    # on the queue.
    records: list[TrialRecord] = list(done.values())
    sink = open(partial, "a", encoding="utf-8") if partial else None

    def finish(message) -> None:
        task_index, model, (response, latency, tokens), error = message
        item, condition, run = tasks[task_index]
        outcome = score_response(response, item.answer_format, item.ground_truth)
        record = TrialRecord(
            model=model,
            benchmark=item.benchmark,
            item_id=item.item_id,
            condition=condition,
            run=run,
            correct=False if error else outcome.correct,
            response=response,
            latency_ms=latency,
            output_tokens=tokens,
            sde=round(scores[item.variants[condition]], 4),
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            error=error,
        )
        records.append(record)
        if sink:
            sink.write(_encode_line(record.to_json()) + "\n")
            sink.flush()
        if progress:
            progress(task_index, len(tasks), record)

    waiting = [backend for backend in backends if getattr(backend, "attempts", None)]
    pool = ThreadPoolExecutor(max_workers=min(len(waiting), MAX_WORKERS)) if waiting else None
    try:
        for backend in waiting:
            pool.submit(work, backend, finished.put).add_done_callback(finished.put)
        for backend in backends:
            if not getattr(backend, "attempts", None):
                work(backend, finish)
        running = len(waiting)
        while running:
            message = finished.get()
            if isinstance(message, Future):
                message.result()
                running -= 1
            else:
                finish(message)
    finally:
        stop.set()
        if pool:
            pool.shutdown()
        if sink:
            sink.close()
    records.sort(key=lambda r: r.key)
    if out_path:
        save_results(records, out_path)
    return records


# ---------------------------------------------------------------------------
# Latency / token report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyRow:
    model: str
    condition: str
    mean_latency_ms: float
    mean_output_tokens: float
    over_generating: bool


def latency_report(records: list[TrialRecord], baseline_condition: str = "standard") -> list[LatencyRow]:
    """Mean latency and output tokens per (model, condition); a condition
    is flagged when its mean token count tops the baseline by >20%."""
    cells: dict[tuple[str, str], list[TrialRecord]] = {}
    for r in records:
        cells.setdefault((r.model, r.condition), []).append(r)
    tokens = {key: sum(r.output_tokens for r in cell) / len(cell) for key, cell in cells.items()}
    rows: list[LatencyRow] = []
    for (model, condition), cell in sorted(cells.items()):
        mean_tokens = tokens[model, condition]
        baseline = tokens.get((model, baseline_condition), 0.0)
        over = condition != baseline_condition and baseline > 0 and mean_tokens > 1.2 * baseline
        latency = sum(r.latency_ms for r in cell) / len(cell)
        rows.append(LatencyRow(model, condition, latency, mean_tokens, over))
    return rows


def format_latency_report(rows: list[LatencyRow], csv: bool = False) -> str:
    header = ["model", "condition", "mean_latency_ms", "mean_output_tokens", "flag"]
    body = [
        [
            r.model,
            r.condition,
            f"{r.mean_latency_ms:.1f}",
            f"{r.mean_output_tokens:.1f}",
            "over-generating" if r.over_generating else "",
        ]
        for r in rows
    ]
    return format_table(header, body, csv)


# ---------------------------------------------------------------------------
# Synthetic manifest
# ---------------------------------------------------------------------------

# The arithmetic item kinds: standard wording, dense wording, answer.
_ARITHMETIC = (
    ("the sum of {} and {}", "Sum: {} + {}", operator.add),
    ("the product of {} and {}", "Product: {} * {}", operator.mul),
    ("the difference between {} and {}", "Difference: {} minus {}", operator.sub),
)


def make_synthetic_manifest(n: int, seed: int = 0) -> list[BenchmarkItem]:
    """Generate arithmetic and selection items whose standard text is the
    baseline, ultra_dense is a symbol-heavy rewrite, and diluted comes from
    the dilution transform."""
    rng = random.Random(seed)
    items: list[BenchmarkItem] = []
    for i in range(n):
        if i % 4 < len(_ARITHMETIC):
            wording, dense_wording, answer = _ARITHMETIC[i % 4]
            a, b = rng.randrange(12, 95), rng.randrange(12, 95)
            std = f"Compute {wording.format(a, b)}. Reply with the final integer."
            dense = f"{dense_wording.format(a, b)}. Integer only."
            item_id = f"arith_{i:04d}"
            benchmark = "arithmetic"
            answer_format = AnswerFormat.INTEGER
            truth = str(answer(a, b))
        else:
            values = rng.sample(range(10, 99), 4)
            options = " ".join(f"{L}. {v}" for L, v in zip(MC_LETTERS, values))
            std = (
                f"Which of the following numbers is the largest? {options} "
                "Reply with one letter in the format: The answer is <LETTER>."
            )
            dense = f"Largest: {options} Reply: The answer is <LETTER>."
            item_id = f"choice_{i:04d}"
            benchmark = "choice"
            answer_format = AnswerFormat.MC_LETTER
            truth = MC_LETTERS[max(range(4), key=lambda j: values[j])]
        variants = {
            "standard": std,
            "ultra_dense": dense,
            "diluted": dilute(std, seed=seed * 100003 + i),
        }
        items.append(BenchmarkItem(item_id, benchmark, answer_format, truth, variants))
    return items
