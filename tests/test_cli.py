from __future__ import annotations

import io
import json

import pytest

from promptdensity.cli import main
from promptdensity.harness import make_synthetic_manifest, manifest_to_json

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
