from __future__ import annotations

import csv
import io
import json
import logging
import math
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptdensity import harness
from promptdensity.errors import ManifestError, PromptDensityError
from promptdensity.extraction import MC_LETTERS, AnswerFormat
from promptdensity.harness import (
    BackendDescriptor,
    BackendKind,
    BenchmarkItem,
    HttpChatBackend,
    MAX_WORKERS,
    MockBackend,
    TrialRecord,
    build_backend,
    format_latency_report,
    latency_report,
    load_manifest,
    load_results,
    make_synthetic_manifest,
    manifest_to_json,
    run_experiment,
    save_results,
    validate_manifest,
)
from promptdensity.scoring import analyze
from promptdensity.stats import PairedOutcome, Verdict, mcnemar, wins_losses

from conftest import DATA_DIR


def mock_descriptor(intercept=-2.0, slope=4.0, model="mock-1"):
    return BackendDescriptor(
        kind=BackendKind.MOCK,
        model_id=model,
        params={"intercept": intercept, "slope": slope},
    )


def tiny_items(n=2):
    return make_synthetic_manifest(n, seed=1)


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

def test_mock_probability_examples():
    sigmoid = lambda x: 1 / (1 + math.exp(-x))
    assert sigmoid(-2 + 4 * 0.87) == pytest.approx(0.815, abs=1e-3)
    assert sigmoid(-2 + 4 * 0.29) == pytest.approx(0.302, abs=1e-3)


def test_mock_deterministic_per_key():
    backend = MockBackend(mock_descriptor(), seed=9)
    item = tiny_items(1)[0]
    first = backend.complete(item, "standard", 0, item.variants["standard"], 0.6)
    second = backend.complete(item, "standard", 0, item.variants["standard"], 0.6)
    assert first == second
    other_run = backend.complete(item, "standard", 1, item.variants["standard"], 0.6)
    assert (first[1], first[2]) != (other_run[1], other_run[2]) or first[0] != other_run[0] or True


def test_mock_emits_expected_pattern():
    backend = MockBackend(mock_descriptor(intercept=50.0, slope=0.0), seed=1)
    item = tiny_items(1)[0]
    text, latency, tokens = backend.complete(item, "standard", 0, "x", 0.5)
    assert text == f"The answer is {item.ground_truth}."
    assert latency > 0 and tokens > 0


def test_mock_wrong_answers_are_valid_but_wrong():
    backend = MockBackend(mock_descriptor(intercept=-50.0, slope=0.0), seed=1)
    for item in make_synthetic_manifest(8, seed=3):
        text, _, _ = backend.complete(item, "standard", 0, "x", 0.5)
        assert str(item.ground_truth) not in text
        if item.answer_format is AnswerFormat.MC_LETTER:
            assert text[len("The answer is ")] in "ABCD"


def test_mock_zero_slope_ties_on_most_seeds():
    # With slope 0 accuracy is condition-independent: the paired test ties
    # on at least 95 of 100 seeds.
    items = make_synthetic_manifest(12, seed=2)
    ties = 0
    for seed in range(100):
        backend = build_backend(mock_descriptor(intercept=0.0, slope=0.0), seed=seed)
        records = run_experiment(items, [backend], runs_per_item=1, seed=seed)
        by_key = {}
        for r in records:
            by_key.setdefault((r.benchmark, r.item_id, r.run), {})[r.condition] = r.correct
        pairs = [
            PairedOutcome(f"{b}/{i}", run, c["ultra_dense"], c["diluted"])
            for (b, i, run), c in sorted(by_key.items())
        ]
        if mcnemar(pairs).verdict is Verdict.TIE:
            ties += 1
    assert ties >= 95


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------

def test_record_count_and_unique_keys():
    items = tiny_items(2)
    records = run_experiment(items, [build_backend(mock_descriptor(), seed=4)], runs_per_item=3)
    assert len(records) == 2 * 3 * 3
    assert len({r.key for r in records}) == len(records)


def test_records_cover_cross_product():
    items = tiny_items(3)
    backends = [build_backend(mock_descriptor(model="m1"), seed=1),
                build_backend(mock_descriptor(model="m2"), seed=1)]
    records = run_experiment(items, backends, runs_per_item=2)
    expected = {
        (m, it.benchmark, it.item_id, cond, run)
        for m in ("m1", "m2")
        for it in items
        for cond in it.variants
        for run in range(2)
    }
    assert {r.key for r in records} == expected


def test_density_effect_ordering_and_win():
    items = make_synthetic_manifest(100, seed=5)
    backend = build_backend(mock_descriptor(), seed=5)
    records = run_experiment(items, [backend], runs_per_item=3, seed=5)
    acc = {}
    for condition in ("diluted", "ultra_dense"):
        cell = [r for r in records if r.condition == condition]
        acc[condition] = sum(r.correct for r in cell) / len(cell)
    assert acc["ultra_dense"] > acc["diluted"]
    summary = wins_losses(records)
    assert summary.losses == 0


def test_resume_produces_identical_results(tmp_path):
    items = tiny_items(4)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    backend = lambda: build_backend(mock_descriptor(), seed=7)
    run_experiment(items, [backend()], runs_per_item=3, out_path=str(out_a))
    # Simulate a crash after roughly half the records.
    partial_lines = (tmp_path / "a.json.partial").read_text().splitlines()
    half = partial_lines[: len(partial_lines) // 2]
    (tmp_path / "b.json.partial").write_text("\n".join(half) + "\n")
    run_experiment(items, [backend()], runs_per_item=3, out_path=str(out_b), resume=True)

    def strip_timestamps(path):
        return [
            {k: v for k, v in record.items() if k != "timestamp"}
            for record in json.loads(path.read_text())
        ]

    assert strip_timestamps(out_a) == strip_timestamps(out_b)


def strip_timestamps(path):
    return [
        {k: v for k, v in record.items() if k != "timestamp"}
        for record in json.loads(Path(path).read_text())
    ]


def test_resume_from_torn_partial(tmp_path, caplog):
    items = tiny_items(2)
    backend = lambda: build_backend(mock_descriptor(), seed=7)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_experiment(items, [backend()], runs_per_item=2, out_path=str(out_a))
    # A kill mid-write leaves the last line cut short.
    data = (tmp_path / "a.json.partial").read_bytes()
    cut = data.rindex(b"\n", 0, len(data) // 2) + 20
    (tmp_path / "b.json.partial").write_bytes(data[:cut])
    with caplog.at_level(logging.WARNING, logger="promptdensity.harness"):
        run_experiment(items, [backend()], runs_per_item=2, out_path=str(out_b), resume=True)
    assert "torn last line" in caplog.text
    assert strip_timestamps(out_a) == strip_timestamps(out_b)
    # The fragment was cut off before appending: every line is one record.
    lines = (tmp_path / "b.json.partial").read_text().splitlines()
    assert len(lines) == len(strip_timestamps(out_b))
    assert all(json.loads(line)["model"] == "mock-1" for line in lines)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("finished") / "r.json"
    run_experiment(tiny_items(2), [build_backend(mock_descriptor(), seed=7)],
                   runs_per_item=2, out_path=str(out))
    return Path(str(out) + ".partial").read_bytes(), strip_timestamps(out)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resume_from_any_prefix_converges(finished_run, data):
    partial, expected = finished_run
    cut = data.draw(st.integers(min_value=0, max_value=len(partial)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        Path(str(out) + ".partial").write_bytes(partial[:cut])
        run_experiment(tiny_items(2), [build_backend(mock_descriptor(), seed=7)],
                       runs_per_item=2, out_path=str(out), resume=True)
        assert strip_timestamps(out) == expected
        # No fragment was glued onto an appended record.
        lines = Path(str(out) + ".partial").read_text().splitlines()
        assert len([json.loads(line) for line in lines]) == len(expected)


def test_same_item_id_in_two_benchmarks_scored_by_own_text():
    texts = {
        "alpha": "Compute 17 + 25. Reply with the integer.",
        "beta": "Basically, you know, it is really just sort of simple, honestly, "
                "to be fair. What is 17 plus 25?",
    }
    items = [
        BenchmarkItem("q1", benchmark, AnswerFormat.INTEGER, "42", {"standard": text})
        for benchmark, text in texts.items()
    ]
    scores = {b: round(analyze(t).sde, 4) for b, t in texts.items()}
    assert scores["alpha"] != scores["beta"]
    records = run_experiment(items, [build_backend(mock_descriptor(), seed=1)], runs_per_item=1)
    assert {r.benchmark: r.sde for r in records} == scores


def test_backends_run_concurrently():
    # Each call waits until all three backends have a request in flight, so
    # a runner that sends one request at a time breaks the barrier.
    barrier = threading.Barrier(3, timeout=1)

    def transport(url, headers, payload):
        barrier.wait()
        return 200, {"text": "The answer is 1."}

    backends = [
        HttpChatBackend(http_descriptor(model_id=f"remote-{n}", max_retries=1),
                        transport=transport, sleep=lambda _t: None)
        for n in range(3)
    ]
    records = run_experiment(tiny_items(2), backends, runs_per_item=1)
    assert len(records) == 3 * 2 * 3
    assert [r.error for r in records if r.error] == []


def _echo_transport(url, headers, payload):
    """A deterministic reply of the model to the prompt."""
    words = len((payload["model"] + _prompt(payload)).split())
    return 200, {"text": f"The answer is {words % 4}.", "usage": {"completion_tokens": words}}


def test_concurrent_run_equals_single_backend_runs(tmp_path):
    # Two HTTP backends on worker threads, and a mock on the calling thread.
    def backends():
        return [HttpChatBackend(http_descriptor(model_id=f"remote-{n}"), transport=_echo_transport)
                for n in range(2)] + [build_backend(mock_descriptor(model="m"), seed=3)]

    def mask(records):
        """Sorted by key, with the fields that a clock sets blanked."""
        return sorted((replace(r, timestamp="", latency_ms=r.latency_ms if r.model == "m" else 0.0)
                       for r in records), key=lambda r: r.key)

    def partial_lines(out):
        lines = Path(f"{out}.partial").read_text(encoding="utf-8").splitlines()
        return [TrialRecord.from_json(json.loads(line)) for line in lines]

    items = tiny_items(3)
    out = tmp_path / "all.json"
    # Frequent thread switches, so a lost or duplicated record would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        together = run_experiment(items, backends(), runs_per_item=2, out_path=str(out))
    finally:
        sys.setswitchinterval(interval)
    apart, apart_lines = [], []
    for n, backend in enumerate(backends()):
        alone = tmp_path / f"{n}.json"
        apart += run_experiment(items, [backend], runs_per_item=2, out_path=str(alone))
        apart_lines += partial_lines(alone)
    assert len(apart) == 3 * 2 * sum(len(item.variants) for item in items)
    assert mask(together) == mask(apart)
    assert mask(load_results(str(out))) == mask(apart)
    assert mask(partial_lines(out)) == mask(apart_lines) == mask(apart)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each thread pool built while the test runs."""
    import concurrent.futures

    sizes = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    return sizes


def test_mock_only_run_starts_no_thread(tmp_path, pool_sizes):
    # A mock never waits, so a worker thread per mock only traded the GIL.
    threads = set()

    class RecordingBackend(MockBackend):
        def complete(self, *args):
            threads.add(threading.get_ident())
            return super().complete(*args)

    backends = [RecordingBackend(mock_descriptor(model=f"m{n}"), seed=1) for n in range(3)]
    records = run_experiment(tiny_items(2), backends, runs_per_item=2,
                             out_path=str(tmp_path / "r.json"))
    assert len(records) == 3 * 2 * sum(len(item.variants) for item in tiny_items(2))
    assert threads == {threading.get_ident()}
    assert pool_sizes == []


def test_worker_threads_capped(pool_sizes):
    threads = set()

    def transport(url, headers, payload):
        threads.add(threading.get_ident())
        return _echo_transport(url, headers, payload)

    backends = [HttpChatBackend(http_descriptor(model_id=f"remote-{n}"), transport=transport)
                for n in range(MAX_WORKERS + 2)]
    progress_threads = []
    records = run_experiment(tiny_items(1), backends, runs_per_item=1,
                             progress=lambda *_: progress_threads.append(threading.get_ident()))
    assert len(records) == len(backends) * len(tiny_items(1)[0].variants)
    assert 1 <= len(threads) <= MAX_WORKERS
    assert threading.get_ident() not in threads
    assert progress_threads == [threading.get_ident()] * len(records)
    assert pool_sizes == [MAX_WORKERS]


def test_backend_exception_reaches_caller():
    class BrokenBackend:
        descriptor = mock_descriptor(model="broken")

        def complete(self, item, condition, run, prompt, sde):
            raise RuntimeError("boom")

    backends = [build_backend(mock_descriptor(), seed=1), BrokenBackend()]
    with pytest.raises(RuntimeError, match="boom"):
        run_experiment(tiny_items(2), backends, runs_per_item=1)


def test_duplicate_backend_model_ids_rejected():
    backends = [build_backend(mock_descriptor(), seed=n) for n in range(2)]
    with pytest.raises(PromptDensityError, match="duplicate backend model ids"):
        run_experiment(tiny_items(1), backends)


def test_results_roundtrip(tmp_path):
    items = tiny_items(2)
    out = tmp_path / "r.json"
    records = run_experiment(items, [build_backend(mock_descriptor(), seed=2)],
                             runs_per_item=1, out_path=str(out))
    loaded = load_results(str(out))
    assert loaded == sorted(records, key=lambda r: r.key)
    # field names in the file are the wire contract
    raw = json.loads(out.read_text())[0]
    assert set(raw) >= {
        "model", "benchmark", "item_id", "condition", "run", "correct",
        "response", "latency_ms", "output_tokens", "sde", "timestamp",
    }


def _earlier_to_json(self) -> dict:
    # TrialRecord.to_json as it was before the field table wrote it.
    record = {
        "model": self.model,
        "benchmark": self.benchmark,
        "item_id": self.item_id,
        "condition": self.condition,
        "run": self.run,
        "correct": self.correct,
        "response": self.response,
        "latency_ms": self.latency_ms,
        "output_tokens": self.output_tokens,
        "sde": self.sde,
        "timestamp": self.timestamp,
    }
    if self.error is not None:
        record["error"] = self.error
    return record


_SHORT_TEXT = st.text(max_size=6)
_ANY_RECORD = st.builds(
    TrialRecord,
    model=_SHORT_TEXT,
    benchmark=_SHORT_TEXT,
    item_id=_SHORT_TEXT,
    condition=_SHORT_TEXT,
    run=st.integers(0, 10**6),
    correct=st.booleans(),
    response=st.text(max_size=30),
    latency_ms=st.integers(0, 10**6).map(float) | st.floats(0, 1e6),
    output_tokens=st.integers(0, 10**6),
    sde=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
    timestamp=_SHORT_TEXT,
    error=st.none() | st.text(max_size=20),
)


@settings(max_examples=200, deadline=None)
@given(_ANY_RECORD)
def test_record_json_round_trip(record):
    data = record.to_json()
    # Same keys, order and values as before, so results-file and .partial
    # lines stay byte-identical.
    assert list(data.items()) == list(_earlier_to_json(record).items())
    line = json.dumps(data, ensure_ascii=False)
    assert line == json.dumps(_earlier_to_json(record), ensure_ascii=False)
    assert TrialRecord.from_json(data) == record
    assert TrialRecord.from_json(json.loads(line)) == record
    # A whole number written as a JSON integer is read back as a float.
    whole = {**data, "latency_ms": round(record.latency_ms), "sde": round(record.sde)}
    back = TrialRecord.from_json(json.loads(json.dumps(whole)))
    assert type(back.latency_ms) is float and back.latency_ms == round(record.latency_ms)
    assert type(back.sde) is float and back.sde == round(record.sde)


# Any text a record may hold, lone surrogates included, with the characters
# that JSON escapes or that end a line elsewhere drawn often.
_ODD_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('"\\\n\t\r\u2028\u2029\x00é漢😀'), max_size=12)
_BIG_INT = st.integers(-2**70, 2**70)
_ODD_RECORD = st.builds(
    TrialRecord,
    model=_ODD_TEXT,
    benchmark=_ODD_TEXT,
    item_id=_ODD_TEXT,
    condition=_ODD_TEXT,
    run=_BIG_INT,
    correct=st.booleans(),
    response=_ODD_TEXT,
    latency_ms=st.floats() | _BIG_INT,  # NaN, ±inf and -0.0 among the floats
    output_tokens=_BIG_INT,
    sde=st.floats() | _BIG_INT,
    timestamp=_ODD_TEXT,
    error=st.none() | _ODD_TEXT,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ODD_RECORD, max_size=6))
def test_results_writer_equals_the_indented_encoding(records):
    payload = [r.to_json() for r in records]
    assert "".join(harness.results_json(records)) == json.dumps(payload, indent=2, ensure_ascii=False)
    for data in payload:
        assert harness._encode_line(data) == json.dumps(data, ensure_ascii=False)
    ordered = [r.to_json() for r in sorted(records, key=lambda r: r.key)]
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "r.json"
        try:
            expected = (json.dumps(ordered, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: no file is left, as before
            with pytest.raises(UnicodeEncodeError):
                save_results(records, str(out))
            assert not list(Path(workdir).iterdir())
        else:
            save_results(records, str(out))
            assert out.read_bytes() == expected


def test_duplicate_keys_rejected_on_load(tmp_path):
    record = TrialRecord("m", "b", "i", "standard", 0, True, "x", 1.0, 1, 0.5, "t")
    other = replace(record, item_id="j\nk")
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([r.to_json() for r in (record, other, other, record)]))
    # One line that names the file and the first repeated key.
    with pytest.raises(PromptDensityError) as raised:
        load_results(str(path))
    assert str(raised.value) == f"{path}: duplicate record key ('m', 'b', 'j\\nk', 'standard', 0)"


def test_failed_save_leaves_previous_results_intact(tmp_path):
    out = tmp_path / "r.json"
    records = run_experiment(tiny_items(2), [build_backend(mock_descriptor(), seed=2)],
                             runs_per_item=1, out_path=str(out))
    before = out.read_bytes()
    # Sorted last, this record stops the writer after the others are written.
    last = max(records, key=lambda r: r.key)
    broken = records + [replace(last, run=last.run + 1, response=object())]
    with pytest.raises(TypeError):
        save_results(broken, str(out))
    assert out.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_backend_failure_records_error_flag():
    class FailingBackend:
        descriptor = mock_descriptor(model="flaky")

        def complete(self, item, condition, run, prompt, sde):
            raise PromptDensityError("backend gave up after retries: HTTP 503")

    items = tiny_items(1)
    records = run_experiment(items, [FailingBackend()], runs_per_item=1)
    assert all(r.error and not r.correct for r in records)
    assert len(records) == len(items[0].variants)


# ---------------------------------------------------------------------------
# Manifest validation
# ---------------------------------------------------------------------------

def test_arc_fixture_passes_strict_mode():
    items = load_manifest(str(DATA_DIR / "arc_001.json"), strict=True)
    assert len(items) == 1
    assert items[0].answer_format is AnswerFormat.MC_LETTER


def test_duplicate_item_id_reported():
    data = manifest_to_json(tiny_items(1))
    data["items"].append(dict(data["items"][0]))
    _, issues = validate_manifest(data)
    assert any("duplicate" in issue for issue in issues)
    assert any("arith_0000" in issue for issue in issues)


def test_off_band_ultra_dense_fails_strict():
    data = {
        "items": [
            {
                "id": "x1",
                "benchmark": "b",
                "answer_format": "mc_letter",
                "ground_truth": "A",
                "variants": {
                    "ultra_dense": "Can you maybe tell me which one of these things is heavier than the others?",
                },
            }
        ]
    }
    items, issues = validate_manifest(data, strict=True)
    assert items and any("ultra_dense" in issue for issue in issues)
    _, lax_issues = validate_manifest(data, strict=False)
    assert lax_issues == []


def test_unknown_condition_rejected():
    data = manifest_to_json(tiny_items(1))
    data["items"][0]["variants"]["mystery"] = "text"
    _, issues = validate_manifest(data)
    assert any("unknown condition" in issue for issue in issues)


def test_gradient_conditions_allowed():
    data = manifest_to_json(tiny_items(1))
    data["items"][0]["variants"]["gradient_0.35"] = "some gradient text here"
    _, issues = validate_manifest(data)
    assert issues == []


def test_bad_ground_truth_for_format():
    data = manifest_to_json(tiny_items(1))
    data["items"][0]["answer_format"] = "mc_letter"
    data["items"][0]["ground_truth"] = "Q"
    _, issues = validate_manifest(data)
    assert any("mc_letter" in issue for issue in issues)


def test_missing_items_array():
    _, issues = validate_manifest({})
    assert issues


def test_load_manifest_raises_manifest_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"items": [{"id": "a"}]}))
    with pytest.raises(ManifestError):
        load_manifest(str(path))


# ---------------------------------------------------------------------------
# Latency report
# ---------------------------------------------------------------------------

def _latency_records(rows):
    out = []
    for model, condition, latency, tokens, count in rows:
        for i in range(count):
            out.append(
                TrialRecord(model, "b", f"i{i}", condition, 0, True, "r",
                            latency, tokens, 0.5, "t")
            )
    return out


def test_latency_uniform_means():
    rows = latency_report(_latency_records([
        ("m", "standard", 100.0, 10, 4),
        ("m", "diluted", 100.0, 10, 4),
    ]))
    assert all(r.mean_latency_ms == 100.0 for r in rows)
    assert not any(r.over_generating for r in rows)


def test_latency_overgeneration_flag():
    rows = latency_report(_latency_records([
        ("m", "standard", 100.0, 10, 4),
        ("m", "ultra_dense", 100.0, 13, 4),   # +30% tokens
        ("m", "diluted", 100.0, 11, 4),       # +10% tokens
    ]))
    by_condition = {r.condition: r for r in rows}
    assert by_condition["ultra_dense"].over_generating
    assert not by_condition["diluted"].over_generating
    assert not by_condition["standard"].over_generating


def test_latency_report_formatting():
    rows = latency_report(_latency_records([("m", "standard", 100.0, 10, 2)]))
    text = format_latency_report(rows)
    assert "mean_latency_ms" in text.splitlines()[0]


def test_latency_report_csv_quotes_comma_in_model_name():
    rows = latency_report(_latency_records([("acme,v2", "standard", 100.0, 10, 2)]))
    parsed = list(csv.reader(io.StringIO(format_latency_report(rows, csv=True))))
    assert [len(fields) for fields in parsed] == [5, 5]
    assert parsed[1][0] == "acme,v2"


# ---------------------------------------------------------------------------
# HTTP chat backend (fake transport; no network)
# ---------------------------------------------------------------------------

def http_descriptor(**kwargs):
    defaults = dict(
        kind=BackendKind.HTTP_CHAT,
        model_id="remote-model",
        endpoint="https://example.invalid/v1/chat",
        credential_env="PD_TEST_TOKEN",
        max_retries=3,
    )
    defaults.update(kwargs)
    return BackendDescriptor(**defaults)


@pytest.fixture(autouse=True)
def _token_env(monkeypatch):
    monkeypatch.setenv("PD_TEST_TOKEN", "sekrit")


def test_http_requires_endpoint_and_credential():
    with pytest.raises(PromptDensityError):
        BackendDescriptor(kind=BackendKind.HTTP_CHAT, model_id="x")


def test_http_payload_and_openai_shape():
    captured = {}

    def transport(url, headers, payload):
        captured.update(url=url, headers=headers, payload=payload)
        return 200, {
            "choices": [{"message": {"content": "The answer is B."}}],
            "usage": {"completion_tokens": 12},
        }

    backend = HttpChatBackend(http_descriptor(), transport=transport)
    item = tiny_items(1)[0]
    text, latency, tokens = backend.complete(item, "standard", 0, "prompt text", 0.5)
    assert text == "The answer is B."
    assert tokens == 12
    assert captured["payload"]["model"] == "remote-model"
    assert captured["payload"]["messages"] == [{"role": "user", "content": "prompt text"}]
    assert "temperature" not in captured["payload"]  # provider default preserved
    assert captured["headers"]["Authorization"] == "Bearer sekrit"


def test_http_temperature_sent_when_configured():
    captured = {}

    def transport(url, headers, payload):
        captured.update(payload=payload)
        return 200, {"text": "ok"}

    backend = HttpChatBackend(http_descriptor(params={"temperature": 0.2}), transport=transport)
    backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)
    assert captured["payload"]["temperature"] == 0.2


def test_http_anthropic_style_content_shape():
    def transport(url, headers, payload):
        return 200, {"content": [{"type": "text", "text": "The answer is 7."}]}

    backend = HttpChatBackend(http_descriptor(), transport=transport)
    text, _, tokens = backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)
    assert text == "The answer is 7."
    assert tokens == len(text.split())


def test_http_retries_with_exponential_backoff_then_succeeds():
    calls = {"n": 0}
    sleeps: list[float] = []

    def transport(url, headers, payload):
        calls["n"] += 1
        if calls["n"] < 3:
            return 429, {"error": "rate limited"}
        return 200, {"text": "fine"}

    backend = HttpChatBackend(http_descriptor(), transport=transport, sleep=sleeps.append)
    text, _, _ = backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)
    assert text == "fine"
    assert calls["n"] == 3
    assert sleeps == [1.0, 2.0]  # base 1s, factor 2


@pytest.mark.parametrize("body", [
    {"id": "x", "result": {"answer": "B"}},
    {"choices": ["The answer is B."]},
    ["The answer is B."],
])
def test_http_unparseable_200_raises(body):
    def transport(url, headers, payload):
        return 200, body

    backend = HttpChatBackend(http_descriptor(), transport=transport)
    with pytest.raises(PromptDensityError, match="no reply text"):
        backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4,
)


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(["completion_tokens", "output_tokens"]), count=_ANY_JSON)
@example(key="completion_tokens", count=True)
def test_any_usage_count_gives_records_that_load_back(key, count):
    # Every record a run writes must load again. A count that is no JSON
    # integer, true included, gives way to the reply's word count.
    reply = "The answer is 42."

    def transport(url, headers, payload):
        return 200, {"choices": [{"message": {"content": reply}}], "usage": {key: count}}

    backends = [HttpChatBackend(http_descriptor(), transport=transport)]
    is_int = isinstance(count, int) and not isinstance(count, bool)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        records = run_experiment(tiny_items(1), backends, runs_per_item=1, out_path=str(out))
        assert {r.output_tokens for r in records} == {count if is_int else len(reply.split())}
        assert load_results(str(out)) == records
        written = out.read_bytes()
        assert run_experiment(tiny_items(1), backends, runs_per_item=1, out_path=str(out),
                              resume=True) == records
        assert out.read_bytes() == written


def _post_replying(monkeypatch, status: int, body: bytes) -> None:
    """Make ``requests.post``, under the default transport, answer ``body``."""

    def post(url, headers, json, timeout):
        response = requests.models.Response()
        response.status_code, response._content, response.encoding = status, body, "utf-8"
        return response

    monkeypatch.setattr(requests, "post", post)


def test_a_200_whose_body_is_not_json_is_an_error_record(monkeypatch):
    # A proxy's page sent with status 200 was taken as the reply text and
    # scored, here as a correct answer.
    _post_replying(monkeypatch, 200, b"<html><p>Sign in. The answer is 1.</p></html>")
    records = run_experiment(distinct_prompt_items(1), [HttpChatBackend(http_descriptor())],
                             runs_per_item=1)
    assert len(records) == 2
    for record in records:
        assert "no reply text" in record.error and not record.correct and record.response == ""


def test_an_error_page_is_cut_short_in_the_error(monkeypatch):
    # A 50 KB error page went whole into the error message.
    _post_replying(monkeypatch, 403, b"<html>" + b"denied " * 7000 + b"</html>")
    backend = HttpChatBackend(http_descriptor())
    with pytest.raises(PromptDensityError, match="HTTP 403: '<html>denied") as caught:
        backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)
    assert len(str(caught.value)) < 250


def test_http_gives_up_after_max_retries():
    def transport(url, headers, payload):
        return 503, {"error": "down"}

    backend = HttpChatBackend(http_descriptor(max_retries=4), transport=transport,
                              sleep=lambda _t: None)
    with pytest.raises(PromptDensityError, match="gave up"):
        backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)


def test_http_non_retryable_status_raises_immediately():
    calls = {"n": 0}

    def transport(url, headers, payload):
        calls["n"] += 1
        return 401, {"error": "bad token"}

    backend = HttpChatBackend(http_descriptor(), transport=transport, sleep=lambda _t: None)
    with pytest.raises(PromptDensityError, match="401"):
        backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)
    assert calls["n"] == 1


def test_http_missing_credential_errors(monkeypatch):
    monkeypatch.delenv("PD_TEST_TOKEN", raising=False)
    backend = HttpChatBackend(http_descriptor(), transport=lambda *a: (200, {}))
    with pytest.raises(PromptDensityError, match="credential"):
        backend.complete(tiny_items(1)[0], "standard", 0, "p", 0.5)


def test_http_rate_limit_pacing():
    sleeps: list[float] = []

    def transport(url, headers, payload):
        return 200, {"text": "ok"}

    backend = HttpChatBackend(
        http_descriptor(rate_limit_rpm=600.0), transport=transport, sleep=sleeps.append
    )
    item = tiny_items(1)[0]
    backend.complete(item, "standard", 0, "p", 0.5)
    backend.complete(item, "standard", 1, "p", 0.5)
    assert sleeps and sleeps[0] <= 0.1  # 600 rpm -> 0.1s interval


# ---------------------------------------------------------------------------
# A trial that backs off is set aside while its backend sends the next ones
# ---------------------------------------------------------------------------

def distinct_prompt_items(n):
    """Items whose variants all differ, so a transport tells trials apart by
    their prompt when each runs once."""
    return [
        BenchmarkItem(f"q{i:02d}", "bench", AnswerFormat.INTEGER, "1",
                      {"standard": f"Question {i}, standard.", "diluted": f"Question {i}, diluted."})
        for i in range(n)
    ]


def _prompt(payload) -> str:
    return payload["messages"][0]["content"]


def test_retry_goes_out_after_the_later_trials_of_its_backend():
    # Before, the worker slept out the backoff and sent the retry straight
    # after the failure, so every later trial of the backend waited too.
    sent: list[str] = []

    def transport(url, headers, payload):
        sent.append(_prompt(payload))
        if len(sent) == 1:
            return 503, {"error": "overloaded"}
        return 200, {"text": "The answer is 1."}

    backend = HttpChatBackend(http_descriptor(), transport=transport, sleep=lambda _t: None)
    records = run_experiment(distinct_prompt_items(4), [backend], runs_per_item=1)
    assert [r.error for r in records if r.error] == []
    assert len(sent) == len(records) + 1
    assert sent[-1] == sent[0] and sent[0] not in sent[1:-1]


def test_retry_never_goes_out_before_its_backoff_on_the_real_clock():
    # 24 trials of 50 ms each. The first trial's retry is due while later
    # trials are still going out; the last trial's is due after all of
    # them, so the worker sleeps for it.
    calls: list[tuple[str, float, float, int]] = []
    failing = {"Question 0, diluted.", "Question 11, standard."}

    def transport(url, headers, payload):
        started = time.monotonic()
        time.sleep(0.05)
        prompt = _prompt(payload)
        status = 503 if prompt in failing and all(c[0] != prompt for c in calls) else 200
        calls.append((prompt, started, time.monotonic(), status))
        return status, {"text": "The answer is 1."}

    backend = HttpChatBackend(http_descriptor(), transport=transport)
    records = run_experiment(distinct_prompt_items(12), [backend], runs_per_item=1)
    assert len(records) == 24 and [r.error for r in records if r.error] == []
    assert len(calls) == 26
    positions = []
    for prompt in sorted(failing):
        failed, retry = [n for n, call in enumerate(calls) if call[0] == prompt]
        assert calls[failed][3] == 503 and calls[retry][3] == 200
        assert calls[retry][1] - calls[failed][2] >= 1.0
        positions.append(retry)
    assert 2 < positions[0] < len(calls) - 2 and positions[1] == len(calls) - 1


def test_stopped_run_does_not_wait_out_parked_backoffs():
    # The first trial fails every attempt, so it would back off 1 + 2 s
    # before giving up; the sink fails on the first finished trial.
    sent: list[str] = []

    def transport(url, headers, payload):
        sent.append(_prompt(payload))
        if _prompt(payload) == sent[0]:
            return 503, {"error": "overloaded"}
        return 200, {"text": "The answer is 1."}

    def progress(task_index, task_count, record):
        raise RuntimeError("sink failed")

    backend = HttpChatBackend(http_descriptor(max_retries=3), transport=transport)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="sink failed"):
        run_experiment(distinct_prompt_items(2), [backend], runs_per_item=1, progress=progress)
    assert time.monotonic() - started < 0.5
    assert sent.count(sent[0]) == 1


def test_stopped_run_ends_during_a_429_backoff():
    # A 429 backoff was slept out inside attempts, where the stop could not
    # reach it: the run took 1 + 2 + 4 + 8 s to end and sent 5 requests.
    sent: list[str] = []
    throttled = threading.Event()

    def transport(url, headers, payload):
        sent.append(_prompt(payload))
        throttled.set()
        return 429, {"error": "rate limited"}

    class WaitingMock(MockBackend):
        """Replies once the HTTP backend has been throttled."""

        def complete(self, *trial):
            throttled.wait(5.0)
            return super().complete(*trial)

    def progress(task_index, task_count, record):
        raise RuntimeError("sink failed")

    backends = [HttpChatBackend(http_descriptor(max_retries=5), transport=transport),
                WaitingMock(mock_descriptor())]
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="sink failed"):
        run_experiment(distinct_prompt_items(2), backends, runs_per_item=1, progress=progress)
    assert time.monotonic() - started < 0.5
    assert len(sent) == 1


def test_stopped_run_ends_during_a_pacing_wait():
    # Pacing slept in place on the worker thread, where the stop could not
    # reach it: the run took 10 s to end and sent 2 requests.
    sent: list[str] = []

    def transport(url, headers, payload):
        sent.append(_prompt(payload))
        return 200, {"text": "The answer is 1."}

    def progress(task_index, task_count, record):
        raise RuntimeError("sink failed")

    backend = HttpChatBackend(http_descriptor(rate_limit_rpm=6.0), transport=transport)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="sink failed"):
        run_experiment(distinct_prompt_items(2), [backend], runs_per_item=1, progress=progress)
    assert time.monotonic() - started < 0.5
    assert len(sent) == 1


class FakeClock:
    """A monotonic clock that moves only when a transport call or a sleep
    moves it; backends on several threads share it."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds


_ATTEMPT = st.sampled_from(["ok", "ok", "503", "429", "raise", "400", "junk"])


def _scheduled_transport(schedule, clock, latency, log):
    """A transport whose k-th attempt at a (model, prompt) does what
    ``schedule`` says, "ok" after the schedule runs out. ``log`` gets
    (model, prompt, start, end) per attempt."""

    def transport(url, headers, payload):
        key = (payload["model"], _prompt(payload))
        attempt = sum(1 for entry in log if entry[:2] == key)
        start = clock.now
        clock.sleep(latency[payload["model"]])
        log.append((*key, start, clock.now))
        planned = schedule.get(key, [])
        outcome = planned[attempt] if attempt < len(planned) else "ok"
        if outcome == "raise":
            raise ConnectionError(f"connection reset on attempt {attempt}")
        if outcome == "junk":
            return 200, {"id": "no reply text"}
        if outcome != "ok":
            return int(outcome), {"error": f"attempt {attempt}"}
        return 200, {"choices": [{"message": {"content": f"The answer is {attempt}."}}],
                     "usage": {"completion_tokens": 3 + attempt}}

    return transport


@settings(max_examples=60, deadline=None)
@given(data=st.data(), max_retries=st.integers(1, 4),
       latencies=st.lists(st.sampled_from([0.0, 0.3, 0.7]), min_size=1, max_size=2),
       rpm=st.sampled_from([None, 600.0, 120.0, 40.0]))
def test_parked_retries_give_the_records_of_complete_called_in_turn(data, max_retries, latencies,
                                                                    rpm):
    items = distinct_prompt_items(3)
    models = [f"remote-{n}" for n in range(len(latencies))]
    latency = dict(zip(models, latencies))
    prompts = [text for item in items for text in item.variants.values()]
    schedule = {(model, prompt): data.draw(st.lists(_ATTEMPT, max_size=4))
                for model in models for prompt in prompts}

    def backends(clock, log):
        transport = _scheduled_transport(schedule, clock, latency, log)
        return [HttpChatBackend(http_descriptor(model_id=model, max_retries=max_retries,
                                                rate_limit_rpm=rpm),
                                transport=transport, sleep=clock.sleep) for model in models]

    clock, log = FakeClock(), []
    with mock.patch.object(harness, "time", clock):
        records = run_experiment(items, backends(clock, log), runs_per_item=1)
    got = {r.key: (r.correct, r.response, r.error, r.output_tokens) for r in records}

    expected, in_turn_log = {}, []
    for backend in backends(FakeClock(), in_turn_log):
        for item in items:
            for condition, prompt in item.variants.items():
                try:
                    response, _, tokens = backend.complete(item, condition, 0, prompt, 0.5)
                    error = None
                except PromptDensityError as exc:
                    response, tokens, error = "", 0, str(exc)
                correct = error is None and response == "The answer is 1."
                key = (backend.descriptor.model_id, item.benchmark, item.item_id, condition, 0)
                expected[key] = (correct, response, error, tokens)
    assert got == expected
    attempts = lambda entries: sorted(entry[:2] for entry in entries)
    assert attempts(log) == attempts(in_turn_log)
    # Each retry went out no sooner than its backoff after the failed attempt.
    for key in {entry[:2] for entry in log}:
        times = [entry[2:] for entry in log if entry[:2] == key]
        for n, ((_, failed_end), (retry_start, _)) in enumerate(zip(times, times[1:])):
            assert retry_start - failed_end >= 2.0 ** n - 1e-9
    # Each model's requests went out no closer than its pacing interval.
    for model in models:
        starts = [entry[2] for entry in log if entry[0] == model]
        assert all(b - a >= 60.0 / (rpm or math.inf) - 1e-9 for a, b in zip(starts, starts[1:]))


def _windowed_transport(clock, status, window, log, latency=0.05):
    """Every attempt that starts inside ``window`` fails with ``status``
    (or raises, for "raise"); ``log`` gets each attempt's start time."""

    def transport(url, headers, payload):
        start = clock.now
        clock.sleep(latency)
        log.append(start)
        if window[0] <= start < window[1]:
            if status == "raise":
                raise ConnectionError("connection reset")
            return status, {"error": "unavailable"}
        return 200, {"text": "The answer is 1."}

    return transport


@pytest.mark.parametrize("status", [429, 503, "raise"])
def test_a_failure_window_costs_what_complete_in_turn_costs(status):
    # Before, each trial sent into a window that fails every request was
    # parked and its retries went out on their own: a 20 s 429 window over
    # 40 trials gave 40 error records and 200 requests, against 1 and 47
    # when each trial runs in one complete call.
    items = [BenchmarkItem(f"q{i:02d}", "bench", AnswerFormat.INTEGER, "1", {"standard": f"Q{i}"})
             for i in range(40)]

    def outcome(window, in_turn):
        clock, log = FakeClock(), []
        backend = HttpChatBackend(http_descriptor(max_retries=5), sleep=clock.sleep,
                                  transport=_windowed_transport(clock, status, window, log))
        if in_turn:
            errors = 0
            for item in items:
                try:
                    backend.complete(item, "standard", 0, "Q", 0.5)
                except PromptDensityError:
                    errors += 1
        else:
            with mock.patch.object(harness, "time", clock):
                records = run_experiment(items, [backend], runs_per_item=1)
            errors = sum(1 for r in records if r.error)
        return errors, len(log)

    for start in (0.0, 0.3):
        for length in (0.5, 2.0, 5.0, 14.5, 20.0, 29.5, 45.0):
            window = (start, start + length)
            (errors, sent), (in_turn_errors, in_turn_sent) = outcome(window, False), outcome(window, True)
            # A 429 holds up the backend as complete does. After a 5xx or a
            # transport error one later trial goes out before the backend
            # is held, and it spends one of its attempts in the window.
            slack = 0 if status == 429 else 1
            assert errors <= in_turn_errors + slack, window
            assert sent <= in_turn_sent + slack, window


def test_backend_is_held_after_two_failures_until_a_reply():
    # Trials 0 and 1 fail once each, so the backend is held: no new trial
    # goes out until trial 0's retry gets a reply. Trial 5 fails once
    # after that, and its retry goes out after later trials again.
    clock, sent = FakeClock(), []

    def transport(url, headers, payload):
        clock.sleep(0.05)
        sent.append(int(_prompt(payload).split()[1].rstrip(",")) * 2
                    + _prompt(payload).endswith("standard."))
        if sent.count(sent[-1]) == 1 and sent[-1] in (0, 1, 5):
            return 503, {"error": "overloaded"}
        return 200, {"text": "The answer is 1."}

    backend = HttpChatBackend(http_descriptor(), transport=transport, sleep=clock.sleep)
    with mock.patch.object(harness, "time", clock):
        records = run_experiment(distinct_prompt_items(15), [backend], runs_per_item=1)
    assert [r.error for r in records if r.error] == []
    assert sent[:4] == [0, 1, 0, 1]
    assert sent[4:9] == [2, 3, 4, 5, 6]
    assert sent.index(5, 8) > sent.index(7)


def test_pacing_does_not_hold_a_backend_through_a_backoff():
    # Trial 0 fails once and backs off 1 s. A pacing wait that parked its
    # trial or held the backend would stop the later trials until then;
    # they go out every 0.1 s, as the backend is paced, and so does the retry.
    clock, sent = FakeClock(), []

    def transport(url, headers, payload):
        sent.append((clock.now, _prompt(payload)))
        clock.sleep(0.01)
        if len(sent) == 1:
            return 503, {"error": "overloaded"}
        return 200, {"text": "The answer is 1."}

    backend = HttpChatBackend(http_descriptor(rate_limit_rpm=600.0), transport=transport,
                              sleep=clock.sleep)
    with mock.patch.object(harness, "time", clock):
        records = run_experiment(distinct_prompt_items(6), [backend], runs_per_item=1)
    assert [r.error for r in records if r.error] == []
    starts, prompts = zip(*sent)
    assert [b - a for a, b in zip(starts, starts[1:])] == pytest.approx([0.1] * (len(sent) - 1))
    assert prompts.index(prompts[0], 1) > 10


def test_validate_rejects_exact_string_truth_without_words():
    # match_exact finds no words in such a truth, so every trial scored wrong.
    raw = {"items": [
        {"id": f"q{n}", "benchmark": "b", "answer_format": "exact_string", "ground_truth": truth,
         "variants": {"standard": "Who?"}}
        for n, truth in enumerate(["!!!", "—", "東京", "Москва"])
    ]}
    items, issues = validate_manifest(raw)
    assert issues == ["q0: exact_string ground_truth has no letters or digits",
                      "q1: exact_string ground_truth has no letters or digits"]
    assert [item.ground_truth for item in items] == ["東京", "Москва"]


def test_mock_success_probability_is_the_logistic_of_its_logit():
    # Not saturated: the success probability is about 0.31, so a scaled
    # logit moves some of these 600 keys to the other side.
    intercept, slope, sde, seed = -1.5, 2.5, 0.28, 7
    backend = MockBackend(mock_descriptor(intercept=intercept, slope=slope), seed=seed)
    p_success = harness._sigmoid(intercept + slope * sde)
    assert 0.2 < p_success < 0.4
    hits = 0
    for item in make_synthetic_manifest(100, seed=4):
        for condition in ("standard", "diluted"):
            for run in range(3):
                text, _, _ = backend.complete(item, condition, run, "x", sde)
                key = (seed, "mock-1", item.benchmark, item.item_id, condition, run)
                correct = harness._stable_uniform(*key, "outcome") < p_success
                assert (text == f"The answer is {item.ground_truth}.") is correct
                hits += correct
    assert 0.25 < hits / 600 < 0.37


# Key parts with the separator the key is joined with, and non-ASCII text.
_KEY_PART = st.text(st.sampled_from("ab|é漢😀 ") | st.characters(exclude_categories=("Cs",)),
                    max_size=8)
_TRUTHS = {
    AnswerFormat.MC_LETTER: st.sampled_from(MC_LETTERS),
    AnswerFormat.INTEGER: st.integers(-10**6, 10**6).map(str),
    AnswerFormat.EXACT_STRING: st.sampled_from(["Ada Lovelace", "Zürich", "Morgan Lee", "東京"]),
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2**40, 2**40), model=_KEY_PART, benchmark=_KEY_PART, item_id=_KEY_PART,
       condition=_KEY_PART, run=st.integers(0, 10**6), sde=st.floats(-1.0, 1.0),
       truth=st.sampled_from(list(_TRUTHS)).flatmap(
           lambda answer_format: st.tuples(st.just(answer_format), _TRUTHS[answer_format])))
def test_mock_draws_are_stable_uniforms_of_the_full_key(
        seed, model, benchmark, item_id, condition, run, sde, truth):
    backend = MockBackend(mock_descriptor(intercept=0.0, slope=4.0, model=model), seed=seed)
    item = BenchmarkItem(item_id, benchmark, truth[0], truth[1], {condition: "x"})
    key = (seed, model, benchmark, item_id, condition, run)

    def draw(tag):
        return harness._stable_uniform(*key, tag)

    if draw("outcome") < harness._sigmoid(4.0 * sde):
        answer = truth[1]
    else:
        answer = backend._wrong_answer(item, draw("wrong"))
    response = f"The answer is {answer}."
    expected = (response, round(150.0 + 400.0 * draw("latency"), 1),
                len(response.split()) + int(8 * draw("tokens")))
    assert backend.complete(item, condition, run, "x", sde) == expected
