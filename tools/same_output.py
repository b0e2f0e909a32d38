"""Compare the CLI output of two source trees of promptdensity.

    python tools/same_output.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout (it holds ``src/promptdensity``).
The script builds one set of inputs with PARENT_DIR's code: the
``tests/data`` fixtures, a 40-item synthetic manifest, a manifest of
exact-string items whose truths are ASCII, accented, Cyrillic and CJK, and
results files from mock runs, one of them with missing records and errored
trials. It
then runs the same matrix of ``promptdensity`` commands against each tree,
each tree in its own Python subprocess: score, lint, densify, dilute
(seed 0, and seed 7 at intensity 3), pad (0 and 5 period groups),
instruction-last, gradient (also at five seeds with targets from 0.05,
where preambles are inserted, to 1.0, often out of reach, on each text and
on all texts joined into one), score, lint, densify and gradient again
under two --config files (redundancy_min_len 0 and 4, extra function and
abstract words, moved class thresholds) and under a --lexicon with no HEDGE entries and extra
UNIT entries, score and lint (plain, and under both --config files and the --lexicon) on a
seeded text of more distinct words than the tokenizer's and scorer's 4,096-entry memos
hold, some of them non-ASCII and a few too long for the memos, validate --strict (also under both --config files), run
(stdout, and --out with the results and .partial files), run --resume from a .partial file cut to its first
lines and half a line (some of those lines with replies that JSON escapes: a quote, a
backslash, a newline, a tab, U+2028, non-ASCII text and an emoji; one of them with an error),
analyze (text, --csv, --json) and mcnemar at several thresholds and condition pairs.
Timestamps and temporary paths are masked. It prints how many outputs are identical
and how many differ, with the first differing lines of each difference, and exits 1 if
any differ.

Standard library only; it is not part of the test suite.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

SHOWN_LINES = 12  # lines of each difference printed
TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(?:\.\d+)?(?:[+-]\d\d:\d\d|Z)?")
THRESHOLDS = ("0.1", "0.05", "0.5", "1", "nan", "0", "2")
GRADIENT_SEEDS = ("0", "1", "2", "3", "4")
GRADIENT_TARGETS = "0.05,0.20,0.50,0.80,1.0"
# Each text command with its flags, run on every text fixture, plain and --json.
TEXT_COMMANDS = (["score"], ["lint"], ["densify"], ["gradient"],
                 ["dilute", "--seed", "0"], ["dilute", "--seed", "7", "--intensity", "3"],
                 ["pad", "--groups", "0"], ["pad", "--groups", "5"], ["instruction-last"])
PAIRS = ("ultra_dense:diluted", "diluted:ultra_dense", "standard:diluted",
         "ultra_dense:standard", "ultra_dense:padding")
TWO_MOCKS = [
    {"kind": "mock", "model": "mock-a"},
    {"kind": "mock", "model": "mock-b", "params": {"intercept": -1.0, "slope": 2.5}},
]
# Extra words that occur in the fixtures, and thresholds off the defaults.
CONFIG = {"function_words_extra": ["list", "reply", "integer"],
          "abstract_words_extra": ["Water", "french", "gold"],
          "diluted_below": 0.3, "dense_from": 0.5, "ultra_above": 0.7}
# Fixture words that are abstract ("-ence") or plain without these entries.
EXTRA_UNITS = ("science", "plants", "moons")
# Exact-string items: benchmark, truth, standard and ultra-dense wording.
EXACT_STRINGS = (
    ("people", "Ada Lovelace", "Who wrote the first published algorithm for Babbage's "
     "Analytical Engine? Reply with the full name.",
     "First algorithm author, Analytical Engine (1843): full name."),
    ("cities", "Zürich", "Which Swiss city hosts the ETH technical university? "
     "Reply with the city name.", "ETH host city, Switzerland: name."),
    ("cities", "Москва", "Which city is the capital of Russia? "
     "Reply with the city name in Cyrillic.", "Capital, Russia: Cyrillic name."),
    ("cities", "東京", "Which city is the capital of Japan? "
     "Reply with the city name in Japanese script.", "Capital, Japan: kanji name."),
)
# Distinct words of the seeded text that overflows the word memos, and the
# letters, suffixes and edge marks they are made of.
OVERFLOW_WORDS = 6000
OVERFLOW_LETTERS = "abcdefghijklmnopqrstuvwxyz" * 10 + "éüßçσжя漢"
OVERFLOW_SUFFIXES = ("", "", "", "s", "ing", "ed", "ness", "ity", "ment", "ence")
OVERFLOW_MARKS = ("", "", "", "", "(", ")", ".", ",", ":", "«", "»")
# Lines of the two-model run's 480-line .partial file that a resumed run
# starts from: all of one model's and some of the other's.
RESUME_KEPT = 300
# Every ESCAPED_EVERY-th kept line has ESCAPED_REPLY added to its reply.
ESCAPED_EVERY = 37
ESCAPED_REPLY = ' She said "no" \\ then\nleft\tat 5\u2028pm, née Zoë, 東京 😀'


def _two_model_run(inputs: str) -> list[str]:
    """The backends, run count and seed of the two-model run."""
    return ["--backend", os.path.join(inputs, "two_mocks.json"), "--runs", "2", "--seed", "3"]


def _subprocess(tree: str, *args: str) -> None:
    """Run this script with ``args`` under the promptdensity of ``tree``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    subprocess.run([sys.executable, os.path.abspath(__file__), *args], env=env, check=True)


def _import_cli(tree: str):
    import promptdensity.cli

    expected = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(promptdensity.cli.__file__).startswith(expected + os.sep):
        sys.exit(f"imported promptdensity from {promptdensity.cli.__file__}, not {expected}")
    return promptdensity.cli


def _call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _overflow_text(seed: int = 33) -> str:
    """OVERFLOW_WORDS distinct words, some capitalised or between edge marks,
    each used once or twice, with units, numbers, noise phrases and a few
    words too long for the memos (over 64 characters) between."""
    rng = random.Random(seed)
    words: dict[str, None] = {}  # insertion-ordered, so the text is the same every run
    while len(words) < OVERFLOW_WORDS:
        word = "".join(rng.choice(OVERFLOW_LETTERS) for _ in range(rng.randrange(2, 9)))
        words[word + rng.choice(OVERFLOW_SUFFIXES)] = None
    pieces = []
    for word in words:
        for _ in range(rng.choice((1, 1, 2))):
            shown = word.capitalize() if rng.random() < 0.2 else word
            pieces.append(rng.choice(OVERFLOW_MARKS) + shown + rng.choice(OVERFLOW_MARKS))
        if rng.random() < 0.1:
            pieces.append(rng.choice(("12 km", "3.5", "basically", "in order to", "I think")))
        if rng.random() < 0.01:
            pieces.append(word * (65 // len(word) + 1) + rng.choice(OVERFLOW_MARKS))
    return " ".join(pieces)


def _write_json(path: str, document) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, ensure_ascii=False)
    return path


# ---------------------------------------------------------------------------
# Inputs, built once with the parent tree
# ---------------------------------------------------------------------------

def prepare(tree: str, inputs: str) -> None:
    cli = _import_cli(tree)
    from promptdensity.harness import make_synthetic_manifest, manifest_to_json
    from promptdensity.rewrite import dilute

    data = os.path.join(tree, "tests", "data")
    shutil.copy(os.path.join(data, "arc_001.json"), inputs)
    with open(os.path.join(data, "corpus.txt"), encoding="utf-8") as fh:
        texts = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    with open(os.path.join(data, "arc_001.json"), encoding="utf-8") as fh:
        texts += list(json.load(fh)["items"][0]["variants"].values())
    for number, text in enumerate(texts):
        with open(os.path.join(inputs, f"text_{number:02d}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(inputs, "long_joined.txt"), "w", encoding="utf-8") as fh:
        fh.write(" ".join(texts))
    with open(os.path.join(inputs, "memo_overflow.txt"), "w", encoding="utf-8") as fh:
        fh.write(_overflow_text())
    for min_len in (0, 4):
        _write_json(os.path.join(inputs, f"config_min{min_len}.json"),
                    {**CONFIG, "redundancy_min_len": min_len})
    with open(os.path.join(tree, "src", "promptdensity", "data", "lexicon.txt"),
              encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("HEDGE")]
    with open(os.path.join(inputs, "lexicon_no_hedges.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(lines + [f"UNIT\t{unit}\n" for unit in EXTRA_UNITS])
    manifest = _write_json(os.path.join(inputs, "manifest40.json"),
                           manifest_to_json(make_synthetic_manifest(40, seed=2)))
    _write_json(os.path.join(inputs, "two_mocks.json"), TWO_MOCKS)
    _write_json(os.path.join(inputs, "exact_strings.json"), {"items": [
        {"id": f"exact_{n}", "benchmark": benchmark, "answer_format": "exact_string",
         "ground_truth": truth,
         "variants": {"standard": std, "ultra_dense": dense, "diluted": dilute(std, seed=n)}}
        for n, (benchmark, truth, std, dense) in enumerate(EXACT_STRINGS)
    ]})

    base = os.path.join(inputs, "results_base.json")
    multi = os.path.join(inputs, "results_two_models.json")
    for argv in (["run", "--manifest", manifest, "--out", base],
                 ["run", "--manifest", manifest, *_two_model_run(inputs), "--out", multi]):
        if _call(cli, argv)["code"] != 0:
            sys.exit(f"parent tree failed: {argv}")
    # The partial file of a killed run: its first lines in key order, then
    # the first half of the next line.
    with open(multi + ".partial", encoding="utf-8") as fh:
        lines = sorted(fh)
    # Some kept lines get replies that the writers must escape, and one an
    # error, so the resumed results file compares them through both trees.
    for number in range(0, RESUME_KEPT, ESCAPED_EVERY):
        record = json.loads(lines[number])
        record["response"] += ESCAPED_REPLY
        if number == 0:
            record.update(correct=False, error=f"backend gave up after retries:{ESCAPED_REPLY}")
        lines[number] = json.dumps(record, ensure_ascii=False) + "\n"
    with open(os.path.join(inputs, "resume.partial"), "w", encoding="utf-8") as fh:
        fh.writelines(lines[:RESUME_KEPT])
        fh.write(lines[RESUME_KEPT][:len(lines[RESUME_KEPT]) // 2])
    for path in (base, multi):
        os.remove(path + ".partial")
    with open(base, encoding="utf-8") as fh:
        records = json.load(fh)
    # Missing records and errored trials, as a run with failing backends leaves them.
    holes = []
    for number, record in enumerate(records):
        if number % 7 == 3:
            continue
        if number % 11 == 5:
            record = {**record, "correct": False, "response": "", "latency_ms": 0.0,
                      "output_tokens": 0, "error": "backend gave up after retries: HTTP 503"}
        holes.append(record)
    _write_json(os.path.join(inputs, "results_holes.json"), holes)
    _write_json(os.path.join(inputs, "results_no_diluted.json"),
                [r for r in records if r["condition"] != "diluted"])
    # 60 items where one condition is always right and the other on 10.
    for name, strong in (("loss", "diluted"), ("win", "ultra_dense")):
        _write_json(os.path.join(inputs, f"results_{name}.json"), [
            {"model": "m", "benchmark": "b", "item_id": f"i{i:02d}", "condition": condition,
             "run": 0, "correct": condition == strong or i < 10, "response": "",
             "latency_ms": 1.0, "output_tokens": 1, "sde": 0.5, "timestamp": "t"}
            for i in range(60)
            for condition in ("diluted", "ultra_dense")
        ])


# ---------------------------------------------------------------------------
# The command matrix, run once per tree
# ---------------------------------------------------------------------------

def _results_cases(results: str) -> list[list[str]]:
    cases = [["analyze", results], ["analyze", results, "--csv"], ["analyze", results, "--json"]]
    for threshold in THRESHOLDS:
        cases.append(["analyze", results, "--threshold", threshold])
        cases.append(["mcnemar", results, "--threshold", threshold])
    for pair in PAIRS:
        cases.append(["mcnemar", results, "--pair", pair])
        cases.append(["mcnemar", results, "--pair", pair, "--json"])
    return cases


def collect(tree: str, inputs: str, outdir: str, report: str) -> None:
    cli = _import_cli(tree)
    texts = sorted(n for n in os.listdir(inputs) if n.startswith("text_"))
    results = sorted(n for n in os.listdir(inputs) if n.startswith("results_"))
    cases: list[tuple[list[str], str | None]] = []
    for name in texts:
        path = os.path.join(inputs, name)
        for command, *flags in TEXT_COMMANDS:
            argv = [command, path, *flags]
            cases += [(argv, None), (argv + ["--json"], None)]
    configs = [["--config", os.path.join(inputs, f"config_min{n}.json")] for n in (0, 4)]
    settings = configs + [["--lexicon", os.path.join(inputs, "lexicon_no_hedges.txt")]]
    for name in texts:
        path = os.path.join(inputs, name)
        for setting in settings:
            for command in ("score", "lint", "densify", "gradient"):
                cases.append(([command, path, "--json", *setting], None))
    overflow = os.path.join(inputs, "memo_overflow.txt")
    for setting in [[]] + settings:
        for command in ("score", "lint"):
            cases.append(([command, overflow, "--json", *setting], None))
    for name in texts + ["long_joined.txt"]:
        path = os.path.join(inputs, name)
        for seed in GRADIENT_SEEDS:
            argv = ["gradient", path, "--seed", seed, "--targets", GRADIENT_TARGETS, "--json"]
            cases.append((argv, None))
    for manifest in ("arc_001.json", "manifest40.json", "exact_strings.json"):
        path = os.path.join(inputs, manifest)
        for setting in [[]] + configs:
            cases += [(["validate", path, "--strict", *setting], None),
                      (["validate", path, "--strict", "--json", *setting], None)]
        cases.append((["run", "--manifest", path, "--runs", "1"], None))
        for label, backend in (("mock", ["--backend", "mock"]),
                               ("two_mocks", ["--backend", os.path.join(inputs, "two_mocks.json")])):
            out = os.path.join(outdir, f"{manifest[:-5]}_{label}.json")
            cases.append((["run", "--manifest", path, *backend, "--seed", "1", "--out", out], out))
            cases += [(argv, None) for argv in _results_cases(out)]
    resumed = os.path.join(outdir, "resumed.json")
    shutil.copy(os.path.join(inputs, "resume.partial"), resumed + ".partial")
    cases.append((["run", "--manifest", os.path.join(inputs, "manifest40.json"),
                   *_two_model_run(inputs), "--resume", "--out", resumed], resumed))
    for name in results:
        cases += [(argv, None) for argv in _results_cases(os.path.join(inputs, name))]

    captured = []
    for argv, written in cases:
        result = _call(cli, argv)
        if written:
            with open(written, encoding="utf-8") as fh:
                result["results file"] = fh.read()
            with open(written + ".partial", encoding="utf-8") as fh:
                # Completion order varies between backends; each line must not.
                result[".partial lines, sorted"] = "".join(sorted(fh))
        captured.append({"argv": argv, **result})
    _write_json(report, captured)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _render(case: dict, workdir: str, outdir: str) -> str:
    parts = [f"exit {case['code']}"]
    parts += [f"--- {name}\n{value}" for name, value in case.items() if name not in ("argv", "code")]
    text = "\n".join(parts).replace(outdir, "<OUT>").replace(workdir, "<TMP>")
    return TIMESTAMP_RE.sub("<TIME>", text)


def _command(case: dict, workdir: str, outdir: str) -> str:
    return " ".join(case["argv"]).replace(outdir, "<OUT>").replace(workdir, "<TMP>")


def compare(parent: str, change: str) -> int:
    with tempfile.TemporaryDirectory(prefix="same_output_") as workdir:
        inputs = os.path.join(workdir, "inputs")
        os.mkdir(inputs)
        _subprocess(parent, "--prepare", parent, inputs)
        rendered = []
        for label, tree in (("parent", parent), ("change", change)):
            outdir = os.path.join(workdir, f"out_{label}")
            os.mkdir(outdir)
            report = os.path.join(workdir, f"{label}.json")
            _subprocess(tree, "--collect", tree, inputs, outdir, report)
            with open(report, encoding="utf-8") as fh:
                cases = json.load(fh)
            rendered.append([(_command(c, workdir, outdir), _render(c, workdir, outdir))
                             for c in cases])
    differing = 0
    for (command, before), (_, after) in zip(*rendered):
        if before == after:
            continue
        differing += 1
        print(f"DIFFERS: promptdensity {command}")
        diff = difflib.unified_diff(before.splitlines(), after.splitlines(), "parent", "change",
                                    lineterm="", n=1)
        for line in list(diff)[2:2 + SHOWN_LINES]:
            print(f"    {line}")
    print(f"{len(rendered[0]) - differing} identical, {differing} differing "
          f"of {len(rendered[0])} outputs")
    return 1 if differing else 0


def main() -> int:
    # Internal modes, run by compare() in a subprocess per tree.
    if sys.argv[1:2] == ["--prepare"]:
        prepare(*sys.argv[2:])
        return 0
    if sys.argv[1:2] == ["--collect"]:
        collect(*sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    args = parser.parse_args()
    return compare(os.path.abspath(args.parent), os.path.abspath(args.change))


if __name__ == "__main__":
    sys.exit(main())
