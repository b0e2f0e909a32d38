from __future__ import annotations

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptdensity.cli import main
from promptdensity.errors import PromptDensityError
from promptdensity.harness import (
    make_synthetic_manifest,
    manifest_to_json,
    read_json,
    validate_manifest,
)

from conftest import DATA_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def results_file(tmp_path_factory):
    td = tmp_path_factory.mktemp("cli")
    manifest = td / "manifest.json"
    manifest.write_text(json.dumps(manifest_to_json(make_synthetic_manifest(30, seed=5))))
    out = td / "results.json"
    code = main([
        "run", "--manifest", str(manifest), "--backend", "mock",
        "--runs", "3", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


def test_score_human(capsys, arc_variants):
    code, out, _ = run_cli(capsys, "score", "--text", arc_variants["ultra_dense"])
    assert code == 0
    assert "ultra_dense" in out
    assert "sde:" in out


def test_score_json_schema(capsys):
    code, out, _ = run_cli(capsys, "score", "--json", "--text", "Solve 2+2. Reply with one integer.")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert set(payload) >= {"sde", "class", "W", "S", "R", "C", "labels"}


def test_score_empty_input_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "score", "--text", "")
    assert code == 1
    assert "empty prompt" in err


def test_score_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Derive dL/dW step-by-step."))
    code, out, _ = run_cli(capsys, "score")
    assert code == 0
    assert "sde:" in out


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_lint_human_output(capsys):
    code, out, _ = run_cli(capsys, "lint", "--text", "Can you please explain X")
    assert code == 0
    assert "filler-preamble" in out


def test_lint_json(capsys):
    code, out, _ = run_cli(capsys, "lint", "--json", "--text", "maybe do it briefly")
    payload = json.loads(out)
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert "hedge" in rules and "vague-quantity" in rules


def test_densify_pipeline(capsys, arc_variants):
    code, out, err = run_cli(capsys, "densify", "--text", arc_variants["diluted"])
    assert code == 0
    assert "mixture" in out
    assert "sde:" in err


def test_dilute_deterministic_cli(capsys):
    code1, out1, _ = run_cli(capsys, "dilute", "--seed", "5", "--text", "Solve 2+2 now.")
    code2, out2, _ = run_cli(capsys, "dilute", "--seed", "5", "--text", "Solve 2+2 now.")
    assert code1 == code2 == 0
    assert out1 == out2


def test_pad_cli(capsys):
    code, out, _ = run_cli(capsys, "pad", "--groups", "3", "--text", "Solve 2+2.")
    assert code == 0
    assert out.strip().endswith("... ... ...")


def test_gradient_cli_json(capsys):
    code, out, _ = run_cli(
        capsys, "gradient", "--json", "--targets", "0.35,0.65", "--text",
        "Compute the sum of 47 and 85. Reply with the final integer.",
    )
    assert code == 0
    payload = json.loads(out)
    assert [v["target"] for v in payload["variants"]] == [0.35, 0.65]


def test_instruction_last_cli(capsys):
    code, out, _ = run_cli(
        capsys, "instruction-last", "--text",
        "Reply: The answer is <LETTER>. Which is a mixture? A. mud B. salt",
    )
    assert code == 0
    assert out.strip().endswith("Reply: The answer is <LETTER>.")


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA_DIR / "arc_001.json"), "--strict")
    assert code == 0
    assert out.startswith("OK")


def test_validate_strict_failure(tmp_path, capsys):
    bad = {
        "items": [
            {
                "id": "z",
                "benchmark": "b",
                "answer_format": "mc_letter",
                "ground_truth": "A",
                "variants": {"ultra_dense": "Can you maybe tell me which thing is heavier overall?"},
            }
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run_cli(capsys, "validate", str(path), "--strict")
    assert code == 1
    assert "ultra_dense" in err


def test_validate_strict_refuses_misordered_thresholds(tmp_path, capsys):
    # With dense_from above ultra_above, validate --strict passed this
    # ultra_dense variant, which scores 0.8333, while score classed it
    # standard.
    manifest = {"items": [{"id": "q1", "benchmark": "b", "answer_format": "integer",
                           "ground_truth": "4",
                           "variants": {"ultra_dense": "Solve 2+2. Reply with one integer."}}]}
    path, config = tmp_path / "m.json", tmp_path / "cfg.json"
    path.write_text(json.dumps(manifest))
    config.write_text(json.dumps({"dense_from": 0.9, "ultra_above": 0.8}))
    code, out, err = run_cli(capsys, "validate", str(path), "--strict", "--config", str(config))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "thresholds must satisfy" in err


def test_run_and_mcnemar_cli(results_file, capsys):
    code, out, _ = run_cli(
        capsys, "mcnemar", str(results_file), "--pair", "ultra_dense:diluted"
    )
    assert code == 0
    assert out.startswith("WIN")
    assert "b=" in out and "c=" in out and "p=" in out


def test_mcnemar_json(results_file, capsys):
    code, out, _ = run_cli(
        capsys, "mcnemar", str(results_file), "--pair", "ultra_dense:diluted", "--json"
    )
    payload = json.loads(out)
    assert payload["verdict"] == "win"
    assert payload["p_value"] < 0.10


def test_mcnemar_bad_pair_flag(results_file, capsys):
    code, _, err = run_cli(capsys, "mcnemar", str(results_file), "--pair", "nonsense")
    assert code == 1
    assert "A:B" in err


@pytest.mark.parametrize("command", ["analyze", "mcnemar"])
@pytest.mark.parametrize("threshold", ["nan", "0", "-1", "2"])
def test_threshold_outside_unit_interval_exits_1(results_file, capsys, command, threshold):
    code, out, err = run_cli(capsys, command, str(results_file), "--threshold", threshold)
    assert code == 1
    assert out == ""
    assert err.startswith("error: threshold must lie in (0, 1]") and err.count("\n") == 1


def test_analyze_table(results_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", str(results_file))
    assert code == 0
    header = out.splitlines()[0]
    for column in ("benchmark", "diluted", "standard", "dense", "delta", "sig"):
        assert column in header


def test_analyze_csv_stable(results_file, capsys):
    code1, out1, _ = run_cli(capsys, "analyze", str(results_file), "--csv")
    code2, out2, _ = run_cli(capsys, "analyze", str(results_file), "--csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "benchmark,diluted,standard,dense,delta,sig"


def test_analyze_json_reports_significant_loss(tmp_path, capsys):
    records = [
        {"model": "m", "benchmark": "b", "item_id": f"i{i}", "condition": condition,
         "run": 0, "correct": condition == "diluted" or i < 10, "response": "",
         "latency_ms": 1.0, "output_tokens": 1, "sde": 0.5, "timestamp": "t"}
        for i in range(60)
        for condition in ("diluted", "ultra_dense")
    ]
    path = tmp_path / "loss.json"
    path.write_text(json.dumps(records))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    row = json.loads(out)["accuracy"][0]
    assert row["delta"] == -83.33
    assert row["significant"] is True
    assert row["verdict"] == "loss"
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert out.splitlines()[1].split()[-2:] == ["-83.3", "-*"]


def test_validate_escapes_unprintable_item_id(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"items": [{"id": "a\nb", "benchmark": "x"}]}))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "'a\\nb': answer_format must be one of" in err


def test_validate_printable_item_id_unchanged(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"items": [{"id": "q 1 é", "benchmark": "x"}]}))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "q 1 é: answer_format must be one of" in err


@pytest.mark.parametrize("field, where", [
    pytest.param("id", "$['items'][0]['id']", id="id"),
    pytest.param("variant", "$['items'][0]['variants']['standard']", id="variant"),
])
def test_lone_surrogate_in_manifest_domain_error(tmp_path, capsys, field, where):
    # Both passed validate; run then died on a UnicodeEncodeError traceback.
    item = {"id": "q1", "benchmark": "x", "answer_format": "integer", "ground_truth": "4",
            "variants": {"standard": "Solve 2+2."}}
    if field == "id":
        item["id"] = "q\ud800"
    else:
        item["variants"]["standard"] = "Solve 2+2.\udc00"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"items": [item]}))  # escaped as \\ud800
    for argv in (["validate", str(path)], ["validate", str(path), "--strict"],
                 ["run", "--manifest", str(path), "--runs", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and f"{path}: the text at {where} holds a lone surrogate" in err


def test_the_first_lone_surrogate_in_document_order_is_named(tmp_path):
    path = tmp_path / "d.json"
    key = "b\ud800"
    path.write_text(json.dumps({"a": ["ok", {key: "\udbff"}], "c": "\udc00"}))
    where = f"$['a'][1][{key!r}]"
    with pytest.raises(PromptDensityError, match=re.escape(f"the text at {where} holds")):
        read_json(str(path))


def test_surrogate_pair_loads(tmp_path, capsys):
    item = {"id": "q1", "benchmark": "x", "answer_format": "integer", "ground_truth": "4",
            "variants": {"standard": "Solve 2+2. \U0001F600"}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"items": [item]}))
    assert "\\ud83d\\ude00" in path.read_text()
    assert read_json(str(path))["items"][0]["variants"]["standard"] == "Solve 2+2. \U0001F600"
    assert run_cli(capsys, "validate", str(path)) == (0, "OK: 1 item(s)\n", "")


def test_item_ids_repeat_across_benchmarks_but_not_within_one(tmp_path, capsys):
    # Records key an item by (benchmark, id), so a manifest merged from two
    # benchmarks that both number their items from q1 must validate and run.
    item = {"id": "q1", "answer_format": "integer", "ground_truth": "42",
            "variants": {"standard": "What is 40 plus 2?", "ultra_dense": "40 + 2 = ?"}}
    merged = {"items": [{**item, "benchmark": benchmark} for benchmark in ("a", "b")]}
    items, issues = validate_manifest(merged)
    assert issues == [] and [it.benchmark for it in items] == ["a", "b"]
    manifest, out = tmp_path / "m.json", tmp_path / "r.json"
    manifest.write_text(json.dumps(merged))
    for argv in (["validate", str(manifest)], ["run", "--manifest", str(manifest), "--out", str(out)],
                 ["analyze", str(out)]):
        assert run_cli(capsys, *argv)[0] == 0
    assert {r["benchmark"] for r in json.loads(out.read_text())} == {"a", "b"}
    twice = {"items": merged["items"] + [merged["items"][1]]}
    assert validate_manifest(twice)[1] == ["q1: duplicate item id"]


def test_missing_file_domain_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/results.json")
    assert code == 1
    assert "error" in err


def test_run_resume_cli(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(manifest_to_json(make_synthetic_manifest(4, seed=2))))
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest), "--out", str(out),
                         "--seed", "2")
    assert code == 0
    first = out.read_text()
    code, _, _ = run_cli(capsys, "run", "--manifest", str(manifest), "--out", str(out),
                         "--seed", "2", "--resume")
    assert code == 0

    def strip(text):
        return [{k: v for k, v in r.items() if k != "timestamp"} for r in json.loads(text)]

    assert strip(first) == strip(out.read_text())


def test_run_scores_prompts_with_the_given_lexicon(tmp_path, capsys):
    # Before, run took no --lexicon and scored every prompt with the default.
    from promptdensity.lexicon import load_lexicon, read_data_file
    from promptdensity.scoring import analyze

    lexicon = tmp_path / "no_hedges.txt"
    lexicon.write_text("\n".join(line for line in read_data_file(None, "lexicon.txt").splitlines()
                                 if not line.startswith("HEDGE\t")), encoding="utf-8")
    items = make_synthetic_manifest(6, seed=2)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(manifest_to_json(items)))
    code, out, _ = run_cli(capsys, "run", "--manifest", str(manifest), "--runs", "1",
                           "--lexicon", str(lexicon))
    assert code == 0
    texts = {(i.benchmark, i.item_id, c): t for i in items for c, t in i.variants.items()}
    lex = load_lexicon(str(lexicon))
    records = json.loads(out)
    got = [r["sde"] for r in records]
    want = [round(analyze(texts[r["benchmark"], r["item_id"], r["condition"]], lex).sde, 4)
            for r in records]
    assert got == want
    assert want != [round(analyze(texts[r["benchmark"], r["item_id"], r["condition"]]).sde, 4)
                    for r in records]


@pytest.fixture
def small_manifest(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest_to_json(make_synthetic_manifest(2, seed=2))))
    return path


def test_backend_without_model_domain_error(tmp_path, small_manifest, capsys):
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"kind": "mock", "params": {}}]))
    code, _, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                           "--backend", str(backend))
    assert code == 1
    assert err.count("\n") == 1 and "'model'" in err


def test_results_missing_fields_domain_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps([{"model": "m", "benchmark": "b"}]))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert err.count("\n") == 1 and "item_id" in err


def test_results_not_json_domain_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("model,benchmark\nm,b\n")
    code, _, err = run_cli(capsys, "mcnemar", str(path))
    assert code == 1
    assert err.count("\n") == 1 and "not valid JSON" in err


def test_run_zero_runs_domain_error(small_manifest, capsys):
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest), "--runs", "0")
    assert code == 1
    assert out == "" and "at least 1" in err


@pytest.mark.parametrize("config, message", [
    pytest.param([1, 2], "config must be a JSON object", id="array"),
    # open(5) would read whatever file descriptor 5 is.
    pytest.param({"lexicon": 5}, "'lexicon' must be a path string", id="lexicon-int"),
    pytest.param({"templates": ["t.txt"]}, "'templates' must be a path string",
                 id="templates-list"),
    pytest.param({"diluted_below": "x"}, "'diluted_below' must be a number", id="threshold-str"),
    pytest.param({"function_words_extra": "abc"},
                 "'function_words_extra' must be a list of strings", id="extras-str"),
    # validate --strict and score would class the same text differently.
    pytest.param({"dense_from": 0.9, "ultra_above": 0.8}, "thresholds must satisfy",
                 id="thresholds-misordered"),
    pytest.param({"redundancy_min_len": 2.5}, "'redundancy_min_len' must be an integer >= 0",
                 id="min-len-fraction"),
    pytest.param({"redundancy_min_len": -3}, "'redundancy_min_len' must be an integer >= 0",
                 id="min-len-negative"),
    # A misspelled key left every class on the default bands, with exit 0.
    pytest.param({"dense_form": 0.9}, "cfg.json: unknown key 'dense_form'", id="unknown-key"),
])
def test_malformed_config_domain_error(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "score", "--text", "x", "--config", str(path))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and message in err


def test_backend_params_not_object_domain_error(tmp_path, small_manifest, capsys):
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"kind": "mock", "model": "m", "params": [1]}]))
    code, _, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                           "--backend", str(backend))
    assert code == 1
    assert err.count("\n") == 1 and "'params' must be an object" in err


def test_prompt_file_not_utf8_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"caf\xe9 au lait\n")
    code, _, err = run_cli(capsys, "score", str(path))
    assert code == 1
    assert err == f"error: {path}: not UTF-8 text\n"


def test_stdin_not_utf8_domain_error(capsys, monkeypatch):
    # Standard input decoded with surrogateescape, as under the C locale.
    monkeypatch.setattr("sys.stdin", io.StringIO(b"caf\xe9".decode("utf-8", "surrogateescape")))
    code, _, err = run_cli(capsys, "score")
    assert code == 1
    assert err == "error: <stdin>: not UTF-8 text\n"


@pytest.mark.parametrize("entry, message", [
    pytest.param({"kind": "http_chat", "rate_limit_rpm": "x"}, "'rate_limit_rpm' must be null",
                 id="rpm-str"),
    pytest.param({"kind": "mock", "rate_limit_rpm": -60}, "'rate_limit_rpm' must be null",
                 id="rpm-negative"),
    pytest.param({"kind": "http_chat", "max_retries": "3"}, "'max_retries' must be an integer",
                 id="retries-str"),
    # With no attempt allowed, every trial would be recorded as "gave up after retries".
    pytest.param({"kind": "http_chat", "max_retries": 0}, "'max_retries' must be an integer",
                 id="retries-zero"),
    pytest.param({"kind": "http_chat", "max_retries": True}, "'max_retries' must be an integer",
                 id="retries-bool"),
    pytest.param({"kind": "mock", "params": {"intercept": "x"}}, "'params.intercept' must be a number",
                 id="intercept-str"),
    pytest.param({"kind": "mock", "params": {"slope": [1]}}, "'params.slope' must be a number",
                 id="slope-list"),
    pytest.param({"kind": "mock", "params": {"slope": False}}, "'params.slope' must be a number",
                 id="slope-bool"),
])
def test_backend_bad_number_domain_error(tmp_path, small_manifest, capsys, monkeypatch,
                                         entry, message):
    # The credential is set so that the http_chat entries would get as far
    # as pacing and retrying; the endpoint is a closed local port.
    monkeypatch.setenv("PROMPTDENSITY_TEST_KEY", "k")
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{
        "model": "m", "endpoint": "http://127.0.0.1:9/v1",
        "credential_env": "PROMPTDENSITY_TEST_KEY", **entry,
    }]))
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                             "--backend", str(backend))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and message in err


def test_mock_extreme_intercept_runs(tmp_path, small_manifest, capsys):
    # exp(1000) overflows a float; the success probability is simply 0.
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"kind": "mock", "model": "m",
                                    "params": {"intercept": -1000}}]))
    code, out, _ = run_cli(capsys, "run", "--manifest", str(small_manifest),
                           "--backend", str(backend), "--runs", "1")
    assert code == 0
    assert not any(r["correct"] for r in json.loads(out))


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "{dir}"], id="results"),
    pytest.param(["score", "--text", "x", "--lexicon", "{dir}"], id="lexicon"),
    pytest.param(["score", "--text", "x", "--config", "{dir}"], id="config"),
    pytest.param(["run", "--manifest", "{dir}"], id="manifest"),
])
def test_directory_path_domain_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "Is a directory" in err


@pytest.mark.parametrize("path, message", [
    pytest.param("lex\u0000icon.txt", "'lexicon' must be a path string", id="nul"),
    # Refused on reading, as every string UTF-8 cannot encode is.
    pytest.param("lex\ud800icon.txt", "the text at $['lexicon'] holds a lone surrogate",
                 id="lone-surrogate"),
])
def test_config_path_not_a_file_name_domain_error(tmp_path, capsys, path, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lexicon": path}))
    code, out, err = run_cli(capsys, "score", "--text", "x", "--config", str(config))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and message in err


_RECORD = {
    "model": "m", "benchmark": "b", "item_id": "q1", "condition": "diluted", "run": 0,
    "correct": False, "response": "The answer is B.", "latency_ms": 150.0,
    "output_tokens": 5, "sde": 0.3, "timestamp": "2026-01-01T00:00:00+00:00",
}


@pytest.mark.parametrize("field, value, message", [
    # Read as bool("false"), this was a correct trial: 100.0% accuracy.
    pytest.param("correct", "false", "'correct' must be true or false", id="correct-str"),
    pytest.param("model", [1], "'model' must be a string", id="model-list"),
    pytest.param("condition", {"a": 1}, "'condition' must be a string", id="condition-object"),
    pytest.param("run", float("inf"), "'run' must be an integer", id="run-infinity"),
    pytest.param("output_tokens", True, "'output_tokens' must be an integer", id="tokens-bool"),
    pytest.param("sde", "0.3", "'sde' must be a number", id="sde-str"),
    pytest.param("error", 5, "'error' must be a string or null", id="error-int"),
])
def test_results_wrong_type_domain_error(tmp_path, capsys, field, value, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps([{**_RECORD, field: value}]))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and message in err


def test_results_nested_too_deeply_domain_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "not valid JSON" in err


# A NaN threshold, intercept or target compares false with everything: before
# these checks the prompt below scored 0.1667 and printed "class: standard".
@pytest.mark.parametrize("value", [
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(10**400, id="int-beyond-float"),
])
def test_config_non_finite_threshold_domain_error(tmp_path, capsys, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"diluted_below": value}))
    code, out, err = run_cli(capsys, "score", "--text", "Could you maybe please explain things?",
                             "--config", str(path))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "'diluted_below' must be a number" in err


@pytest.mark.parametrize("name", ["intercept", "slope"])
def test_backend_nan_param_domain_error(tmp_path, small_manifest, capsys, name):
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"kind": "mock", "model": "m",
                                    "params": {name: float("nan")}}]))
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                             "--backend", str(backend))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and f"'params.{name}' must be a number" in err


@pytest.mark.parametrize("flag, value", [("--mock-intercept", "nan"), ("--mock-slope", "inf")])
def test_mock_flag_non_finite_domain_error(small_manifest, capsys, flag, value):
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest), flag, value)
    assert code == 1
    assert out == "" and err.count("\n") == 1 and f"{flag} must be a finite number" in err


@pytest.mark.parametrize("field, value", [
    pytest.param("sde", float("nan"), id="sde-nan"),
    pytest.param("latency_ms", float("inf"), id="latency-inf"),
    pytest.param("sde", 10**400, id="sde-int-beyond-float"),
])
def test_results_non_finite_number_domain_error(tmp_path, capsys, field, value):
    path = tmp_path / "r.json"
    path.write_text(json.dumps([{**_RECORD, field: value}]))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and f"{field!r} must be a number" in err


@pytest.mark.parametrize("targets", ["nan,0.5", "0.5,inf"])
def test_gradient_non_finite_target_domain_error(capsys, targets):
    # "target": NaN is not JSON.
    code, out, err = run_cli(capsys, "gradient", "--text", "Explain sorting.", "--targets",
                             targets, "--json")
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "targets must lie in (0, 1]" in err


def test_http_unset_credential_fails_before_any_request(tmp_path, small_manifest, capsys,
                                                        monkeypatch):
    # Before, each trial recorded the missing key as its error, run exited 0
    # and analyze read 0.0 everywhere.
    monkeypatch.delenv("PROMPTDENSITY_TEST_KEY", raising=False)
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"model": "m", "endpoint": "http://127.0.0.1:9/v1",
                                    "credential_env": "PROMPTDENSITY_TEST_KEY"}]))
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                             "--backend", str(backend), "--out", str(out_path))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert "'PROMPTDENSITY_TEST_KEY' is unset" in err
    assert not out_path.exists() and not (tmp_path / "r.json.partial").exists()


def test_http_credential_not_a_string_domain_error(tmp_path, small_manifest, capsys):
    # os.environ.get(5) raised a TypeError traceback.
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"model": "m", "endpoint": "http://127.0.0.1:9/v1",
                                    "credential_env": 5}]))
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                             "--backend", str(backend))
    assert code == 1
    assert out == "" and err.count("\n") == 1 and "'credential_env' must be a string" in err


# ---------------------------------------------------------------------------
# Any JSON document as an input file: exit 0 or 1, or a usage error
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@st.composite
def _object(draw, fields: dict):
    """An object with a valid value for each field, of which one in four
    times one is then left out or given any JSON value. A field's strategy
    may draw a dict of several fields that must agree."""
    obj = {}
    for name, value in fields.items():
        drawn = draw(value)
        obj.update(drawn if isinstance(name, tuple) else {name: drawn})
    if draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[name]
        else:
            obj[name] = draw(_JSON)
    return obj


def _key(obj: dict, fields: tuple[str, ...]) -> str:
    """A hashable key of some fields, which may hold any JSON value."""
    return repr([obj.get(name) for name in fields])


_PROMPT = st.sampled_from([
    "Compute 12 + 30. Reply with the final integer.",
    "Largest: A. 1 B. 9 Reply: The answer is <LETTER>.",
    "Can you maybe tell me who wrote the first program?",
])
_ITEM = _object({
    "id": st.sampled_from(["q1", "q2", "q3"]),
    "benchmark": st.sampled_from(["arithmetic", "choice"]),
    ("answer_format", "ground_truth"): st.sampled_from([
        {"answer_format": "integer", "ground_truth": "42"},
        {"answer_format": "mc_letter", "ground_truth": "B"},
        {"answer_format": "exact_string", "ground_truth": "Ada"},
        {"answer_format": "integer", "ground_truth": "B"},
    ]),
    "variants": st.dictionaries(st.sampled_from(["standard", "diluted", "ultra_dense",
                                                 "gradient_0.5"]),
                                _PROMPT, min_size=1, max_size=3),
})
_MANIFEST = _object({
    "items": st.lists(_ITEM, min_size=1, max_size=3,
                      unique_by=lambda item: _key(item, ("benchmark", "id"))),
}) | _JSON
# No "endpoint" field, so no request is sent and no retry waits.
_BACKEND = _object({
    "model": st.sampled_from(["m1", "m2"]),
    "kind": st.sampled_from(["mock", "http_chat"]),
    "credential_env": st.just("PROMPTDENSITY_TEST_KEY"),
    "params": _object({"intercept": st.floats(-5, 5), "slope": st.floats(-5, 5)}),
    "rate_limit_rpm": st.none() | st.floats(1, 600),
    "max_retries": st.integers(1, 5),
})
_BACKENDS = st.lists(_BACKEND, min_size=1, max_size=3) | _BACKEND | _JSON
_CONFIG = _object({
    "lexicon": st.sampled_from(["", "missing.txt", "."]),
    "templates": st.sampled_from(["", "missing.txt", "."]),
    "diluted_below": st.floats(0, 1),
    "dense_from": st.floats(0, 1),
    "ultra_above": st.floats(0, 1),
    "redundancy_min_len": st.integers(0, 4),
    "function_words_extra": st.lists(st.text(max_size=5), max_size=2),
    "abstract_words_extra": st.lists(st.text(max_size=5), max_size=2),
}) | _JSON
# Few distinct keys, so that ultra_dense and diluted trials pair up.
_TRIAL = _object({
    "model": st.just("m1"),
    "benchmark": st.sampled_from(["b1", "b2"]),
    "item_id": st.just("q1"),
    "condition": st.sampled_from(["ultra_dense", "diluted", "standard"]),
    "run": st.integers(0, 1),
    "correct": st.booleans(),
    "response": st.text(max_size=6),
    "latency_ms": st.floats(0, 1000),
    "output_tokens": st.integers(0, 50),
    "sde": st.floats(0, 1),
    "timestamp": st.text(max_size=6),
    "error": st.none() | st.text(max_size=6),
})
_RESULTS = st.lists(_TRIAL, min_size=1, max_size=4, unique_by=lambda trial: _key(
    trial, ("model", "benchmark", "item_id", "condition", "run"))) | _JSON


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """An empty directory with a fixed 2-item manifest, where relative paths
    in generated files name nothing else."""
    path = tmp_path_factory.mktemp("anyjson")
    (path / "fixed.json").write_text(json.dumps(manifest_to_json(make_synthetic_manifest(2, 2))))
    return path


def _main_in(workdir, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` run in ``workdir``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv), out.getvalue(), err.getvalue()
    finally:
        os.chdir(cwd)


def _exits_cleanly(workdir, argv: list[str]) -> None:
    try:
        code, _, err = _main_in(workdir, argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1)
    assert "Traceback" not in err


def _write_json(workdir, name: str, document) -> str:
    (workdir / name).write_text(json.dumps(document))
    return name


@settings(max_examples=100, deadline=None)
@given(manifest=_MANIFEST, strict=st.booleans())
def test_any_manifest_exits_cleanly(workdir, manifest, strict):
    path = _write_json(workdir, "manifest.json", manifest)
    _exits_cleanly(workdir, ["validate", path] + (["--strict"] if strict else []))
    _exits_cleanly(workdir, ["run", "--manifest", path, "--backend", "mock", "--runs", "1"])


@settings(max_examples=100, deadline=None)
@given(backends=_BACKENDS)
def test_any_backend_file_exits_cleanly(workdir, backends):
    path = _write_json(workdir, "backends.json", backends)
    _exits_cleanly(workdir, ["run", "--manifest", "fixed.json", "--backend", path, "--runs", "1"])


@settings(max_examples=100, deadline=None)
@given(config=_CONFIG)
def test_any_config_exits_cleanly(workdir, config):
    path = _write_json(workdir, "config.json", config)
    _exits_cleanly(workdir, ["score", "--text", "Compute 12 + 30.", "--config", path])


@settings(max_examples=100, deadline=None)
@given(results=_RESULTS)
def test_any_results_file_exits_cleanly(workdir, results):
    path = _write_json(workdir, "results.json", results)
    _exits_cleanly(workdir, ["analyze", path])
    _exits_cleanly(workdir, ["mcnemar", path])


@settings(max_examples=100, deadline=None)
@given(prompt=st.binary(max_size=40))
def test_any_prompt_bytes_exit_cleanly(workdir, prompt):
    (workdir / "prompt.txt").write_bytes(prompt)
    _exits_cleanly(workdir, ["score", "prompt.txt"])


def _strings_replaced(value, replace):
    """``value`` with each string, key or value, passed through ``replace``
    in document order."""
    if isinstance(value, str):
        return replace(value)
    if isinstance(value, dict):
        return {_strings_replaced(k, replace): _strings_replaced(v, replace)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_strings_replaced(v, replace) for v in value]
    return value


@st.composite
def _with_lone_surrogate(draw, document):
    """``document`` with one lone surrogate put into one of its strings."""
    strings = []
    _strings_replaced(document, strings.append)
    chosen = draw(st.integers(0, len(strings) - 1))
    surrogate = chr(draw(st.integers(0xD800, 0xDFFF)))
    order = iter(range(len(strings)))

    def put(text):
        if next(order) != chosen:
            return text
        at = draw(st.integers(0, len(text)))
        return text[:at] + surrogate + text[at:]

    return _strings_replaced(document, put)


_SMALL_MANIFEST = manifest_to_json(make_synthetic_manifest(1, 2))
_SMALL_RESULTS = [
    {"model": "m1", "benchmark": "b1", "item_id": "q1", "condition": condition, "run": 0,
     "correct": True, "response": "The answer is 4.", "latency_ms": 200.0, "output_tokens": 5,
     "sde": 0.5, "timestamp": "2026-01-01T00:00:00+00:00", "error": None}
    for condition in ("ultra_dense", "diluted")
]


@settings(max_examples=60, deadline=None)
@given(manifest=_with_lone_surrogate(_SMALL_MANIFEST),
       results=_with_lone_surrogate(_SMALL_RESULTS))
def test_a_lone_surrogate_anywhere_is_one_line(workdir, manifest, results):
    # json.dumps escapes the surrogate, as \\ud800, which json.load gives back.
    manifest_path = _write_json(workdir, "manifest.json", manifest)
    results_path = _write_json(workdir, "results.json", results)
    for argv in (["validate", manifest_path], ["run", "--manifest", manifest_path, "--runs", "1"],
                 ["analyze", results_path]):
        code, out, err = _main_in(workdir, argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "holds a lone surrogate" in err


@pytest.mark.parametrize("endpoint", [5, None, "not a url", "ftp://example.com/v1", "https://",
                                      "http:///v1", "http://[::1/v1", ["https://example.com"]])
def test_http_endpoint_must_be_an_http_url(tmp_path, small_manifest, capsys, monkeypatch,
                                           endpoint):
    # Before, "endpoint": 5 gave one error record per trial ("Invalid URL
    # '5': No scheme supplied"), each after its retries, and exit 0.
    monkeypatch.setenv("PROMPTDENSITY_TEST_KEY", "k")
    backend = tmp_path / "backends.json"
    backend.write_text(json.dumps([{"model": "m", "endpoint": endpoint, "max_retries": 1,
                                    "credential_env": "PROMPTDENSITY_TEST_KEY"}]))
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "run", "--manifest", str(small_manifest),
                             "--backend", str(backend), "--out", str(out_path))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert "'endpoint' must be an http:// or https:// URL with a host" in err
    assert not out_path.exists() and not (tmp_path / "r.json.partial").exists()
