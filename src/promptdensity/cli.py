"""Command-line front end.

One binary, subcommand style: score, lint, densify, dilute, pad,
gradient, validate, run, analyze, mcnemar. Every subcommand reads
standard input when no file or --text is given, writes results to
standard output, and logs to standard error. ``--json`` switches to the
versioned structured output. Exit codes: 0 success, 1 domain error,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from urllib.parse import urlsplit

from .errors import ManifestError, PromptDensityError
from .harness import (
    BackendDescriptor,
    BackendKind,
    build_backend,
    is_integer,
    is_number,
    load_manifest,
    load_results,
    read_json,
    results_json,
    latency_report,
    format_latency_report,
    run_experiment,
    validate_manifest,
)
from .lexicon import Lexicon, default_lexicon, load_lexicon
from .rewrite import (
    TemplateBank,
    default_templates,
    densify,
    dilute,
    gradient_variants,
    instruction_last,
    lint,
    load_templates,
    pad,
)
from .scoring import DEFAULT_CONFIG, ScoreConfig, analyze
from .stats import (
    DEFAULT_THRESHOLD, accuracy_table, format_accuracy_table, paired_test, record_index,
)

SCHEMA_VERSION = "1"
# Every key a --config file may hold; any other key is an error.
CONFIG_KEYS = ("lexicon", "templates", "diluted_below", "dense_from", "ultra_above",
               "redundancy_min_len", "function_words_extra", "abstract_words_extra")


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _is_path(value) -> bool:
    """Whether a JSON value is a string that ``open`` takes as a file name;
    ``read_json`` has refused every string that UTF-8 cannot encode."""
    return isinstance(value, str) and "\0" not in value


def _is_http_url(value) -> bool:
    """Whether a JSON value is an http:// or https:// URL with a host."""
    if not isinstance(value, str):
        return False
    try:
        parts = urlsplit(value)
    except ValueError:  # such as an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _read_text(args) -> str:
    source = "--text"
    text = getattr(args, "text", None)
    try:
        if text is None and getattr(args, "input", None):
            source = args.input
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        elif text is None:
            source, text = "<stdin>", sys.stdin.read()
        # Arguments and stdin carry bytes that are not UTF-8 as lone surrogates.
        text.encode("utf-8")
    except UnicodeError:
        raise PromptDensityError(f"{source}: not UTF-8 text") from None
    return text


def _load_context(args) -> tuple[Lexicon, ScoreConfig, TemplateBank]:
    settings: dict = {}
    if getattr(args, "config", None):
        settings = read_json(args.config)
        if not isinstance(settings, dict):
            raise PromptDensityError(f"{args.config}: config must be a JSON object")
        unknown = next((key for key in settings if key not in CONFIG_KEYS), None)
        if unknown is not None:
            raise PromptDensityError(f"{args.config}: unknown key {unknown!r}")
    for name in ("lexicon", "templates"):
        if not _is_path(settings.get(name, "")):
            raise PromptDensityError(f"{args.config}: {name!r} must be a path string")
    lexicon_path = getattr(args, "lexicon", None) or settings.get("lexicon")
    lex = load_lexicon(lexicon_path) if lexicon_path else default_lexicon()
    templates_path = settings.get("templates")
    bank = load_templates(templates_path) if templates_path else default_templates()
    overrides = {}
    for name in ("diluted_below", "dense_from", "ultra_above", "redundancy_min_len"):
        if name in settings:
            value = settings[name]
            if not is_number(value):
                raise PromptDensityError(f"{args.config}: {name!r} must be a number")
            if name == "redundancy_min_len" and not (is_integer(value) and value >= 0):
                raise PromptDensityError(f"{args.config}: {name!r} must be an integer >= 0")
            overrides[name] = value
    for name in ("function_words", "abstract_words"):
        words = settings.get(f"{name}_extra") or []
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise PromptDensityError(f"{args.config}: '{name}_extra' must be a list of strings")
        if words:
            overrides[name] = getattr(DEFAULT_CONFIG, name) | frozenset(w.lower() for w in words)
    config = replace(DEFAULT_CONFIG, **overrides) if overrides else DEFAULT_CONFIG
    if not 0 <= config.diluted_below <= config.dense_from <= config.ultra_above <= 1:
        raise PromptDensityError(f"{args.config}: thresholds must satisfy 0 <= diluted_below "
                                 "<= dense_from <= ultra_above <= 1")
    return lex, config, bank


def _add_context_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--lexicon", help="lexicon file overriding the shipped default")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.add_argument("--text", help="literal prompt text instead of a file")
    p.add_argument("--json", action="store_true", help="structured output")
    _add_context_flags(p)


def _cmd_score(args) -> int:
    lex, config, _ = _load_context(args)
    analysis = analyze(_read_text(args), lex, config)
    if args.json:
        _emit(analysis.to_report())
    else:
        print(f"sde:   {analysis.sde:.4f}")
        print(f"class: {analysis.klass.value}")
        print(
            f"W={analysis.word_count} S={analysis.semantic_count} "
            f"R={analysis.redundancy:.4f} C={analysis.concreteness:.4f}"
        )
    return 0


def _cmd_lint(args) -> int:
    lex, config, _ = _load_context(args)
    text = _read_text(args)
    diagnostics = lint(text, lex, config)
    if args.json:
        _emit({"diagnostics": [d.to_report() for d in diagnostics]})
        return 0
    if not diagnostics:
        print("clean: no findings")
        return 0
    raw = text.encode("utf-8")
    for d in diagnostics:
        snippet = raw[d.start : d.end].decode("utf-8", "replace")
        fix = f" -> {d.replacement!r}" if d.replacement else ""
        print(f"{d.start}..{d.end} [{d.rule}] {d.severity.value}: {snippet!r} {d.message}{fix}")
    return 0


def _print_rewrite(args, output: str, before: float, after: float, **extra) -> int:
    """Print a rewrite's output and scores; ``extra`` fields end the JSON."""
    if args.json:
        _emit({"output": output, "sde_before": round(before, 4), "sde_after": round(after, 4),
               **extra})
    else:
        print(output)
        print(f"sde: {before:.4f} -> {after:.4f}", file=sys.stderr)
    return 0


def _cmd_densify(args) -> int:
    lex, config, _ = _load_context(args)
    result = densify(_read_text(args), lex, config)
    return _print_rewrite(args, result.output, result.sde_before, result.sde_after,
                          applied=[d.to_report() for d in result.applied],
                          structural_edits=list(result.structural_edits))


def _report_rewrite(args, transform) -> int:
    """Print ``transform(text, bank)`` of the input and the score before and after."""
    lex, config, bank = _load_context(args)
    text = _read_text(args)
    before = analyze(text, lex, config).sde
    output = transform(text, bank)
    return _print_rewrite(args, output, before, analyze(output, lex, config).sde)


def _cmd_dilute(args) -> int:
    return _report_rewrite(
        args, lambda text, bank: dilute(text, seed=args.seed, intensity=args.intensity, bank=bank)
    )


def _cmd_pad(args) -> int:
    return _report_rewrite(args, lambda text, _: pad(text, args.groups))


def _cmd_gradient(args) -> int:
    lex, config, bank = _load_context(args)
    try:
        targets = [float(t) for t in args.targets.split(",") if t.strip()]
    except ValueError:
        raise PromptDensityError(f"bad --targets value {args.targets!r}") from None
    variants = gradient_variants(
        _read_text(args), targets, seed=args.seed, lex=lex, config=config, bank=bank
    )
    if args.json:
        _emit(
            {
                "variants": [
                    {
                        "target": v.target,
                        "achieved": round(v.achieved, 4),
                        "reachable": v.reachable,
                        "text": v.text,
                    }
                    for v in variants
                ]
            }
        )
    else:
        for v in variants:
            status = "ok" if v.reachable else "unreachable"
            print(f"target {v.target:.2f}  achieved {v.achieved:.4f}  [{status}]")
            print(f"  {v.text}")
    return 0


def _cmd_instruction_last(args) -> int:
    result = instruction_last(_read_text(args))
    if args.json:
        _emit({"output": result.output, "found": result.found, "moved": result.moved})
    else:
        print(result.output)
        if not result.found:
            print("warning: no format-instruction sentence found", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    lex, config, _ = _load_context(args)
    items, issues = validate_manifest(read_json(args.manifest), strict=args.strict, lex=lex,
                                      config=config)
    if args.json:
        _emit({"valid": not issues, "items": len(items), "issues": issues})
    else:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        print(f"{'OK' if not issues else 'INVALID'}: {len(items)} item(s)")
    return 1 if issues else 0


def _parse_backends(args) -> list:
    if args.backend == "mock":
        for flag, value in (("--mock-intercept", args.mock_intercept),
                            ("--mock-slope", args.mock_slope)):
            if not is_number(value):
                raise PromptDensityError(f"{flag} must be a finite number")
        descriptor = BackendDescriptor(
            kind=BackendKind.MOCK,
            model_id=args.model,
            params={"intercept": args.mock_intercept, "slope": args.mock_slope},
        )
        return [build_backend(descriptor, seed=args.seed)]
    raw = read_json(args.backend)
    entries = raw if isinstance(raw, list) else [raw]
    backends = []
    for number, entry in enumerate(entries):
        where = f"{args.backend}: backend {number}"
        if not isinstance(entry, dict) or not isinstance(entry.get("model"), str):
            raise PromptDensityError(f"{where} needs a 'model' string")
        try:
            kind = BackendKind(entry.get("kind", "http_chat"))
        except ValueError:
            raise PromptDensityError(f"{where} has unknown kind {entry['kind']!r}") from None
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise PromptDensityError(f"{where} 'params' must be an object")
        rpm = entry.get("rate_limit_rpm")
        if rpm is not None and not (is_number(rpm) and rpm > 0):
            raise PromptDensityError(f"{where} 'rate_limit_rpm' must be null or a positive number")
        retries = entry.get("max_retries", 5)
        if not (is_integer(retries) and retries >= 1):
            raise PromptDensityError(f"{where} 'max_retries' must be an integer of at least 1")
        for name in ("intercept", "slope"):
            if kind is BackendKind.MOCK and name in params and not is_number(params[name]):
                raise PromptDensityError(f"{where} 'params.{name}' must be a number")
        credential = entry.get("credential_env")
        if credential is not None and not isinstance(credential, str):
            raise PromptDensityError(f"{where} 'credential_env' must be a string")
        endpoint = entry.get("endpoint")
        if kind is BackendKind.HTTP_CHAT and not _is_http_url(endpoint):
            raise PromptDensityError(f"{where} 'endpoint' must be an http:// or https:// URL "
                                     "with a host")
        descriptor = BackendDescriptor(
            kind=kind,
            model_id=entry["model"],
            endpoint=endpoint,
            credential_env=credential,
            params=params,
            rate_limit_rpm=rpm,
            max_retries=retries,
        )
        # Checked before any request, so that no trial records the missing key.
        if kind is BackendKind.HTTP_CHAT and not os.environ.get(credential):
            raise PromptDensityError(
                f"{where}: credential environment variable {credential!r} is unset"
            )
        backends.append(build_backend(descriptor, seed=args.seed))
    return backends


def _cmd_run(args) -> int:
    lex, config, _ = _load_context(args)
    items = load_manifest(args.manifest)
    backends = _parse_backends(args)
    records = run_experiment(
        items,
        backends,
        runs_per_item=args.runs,
        out_path=args.out,
        resume=args.resume,
        lex=lex,
        config=config,
    )
    if args.out:
        print(f"{len(records)} records -> {args.out}", file=sys.stderr)
    else:
        print("".join(results_json(records)))
    return 0


def _cmd_analyze(args) -> int:
    records = load_results(args.results)
    rows = accuracy_table(records, threshold=args.threshold)
    latency = latency_report(records)
    if args.json:
        _emit(
            {
                "accuracy": [
                    {
                        "benchmark": r.benchmark,
                        "accuracy": {k: round(v, 2) for k, v in r.accuracy.items()},
                        "delta": None if r.delta is None else round(r.delta, 2),
                        "significant": r.significant,
                        "verdict": None if r.verdict is None else r.verdict.value,
                    }
                    for r in rows
                ],
                "latency": [
                    {
                        "model": r.model,
                        "condition": r.condition,
                        "mean_latency_ms": round(r.mean_latency_ms, 1),
                        "mean_output_tokens": round(r.mean_output_tokens, 1),
                        "over_generating": r.over_generating,
                    }
                    for r in latency
                ],
            }
        )
    else:
        print(format_accuracy_table(rows, csv=args.csv))
        print()
        print(format_latency_report(latency, csv=args.csv))
    return 0


def _cmd_mcnemar(args) -> int:
    records = load_results(args.results)
    try:
        cond_a, cond_b = args.pair.split(":", 1)
    except ValueError:
        raise PromptDensityError(f"--pair must look like A:B, got {args.pair!r}") from None
    result = paired_test(record_index(records).values(), cond_a, cond_b, args.threshold)
    if result is None:
        raise PromptDensityError(f"no paired records for {cond_a!r} vs {cond_b!r}")
    if args.json:
        _emit({"pair": [cond_a, cond_b], **result.to_report()})
    else:
        stat = "" if result.statistic is None else f" statistic={result.statistic:.4f}"
        print(
            f"{result.verdict.value.upper()} ({cond_a} vs {cond_b}): "
            f"b={result.b} c={result.c} p={result.p_value:.6g} "
            f"method={result.method.value}{stat}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptdensity",
        description="Score, lint, and rewrite prompts by semantic density; "
        "run and analyze paired prompt-condition experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a prompt")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("lint", help="report removable noise and suggestions")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("densify", help="apply safe deletions and replacements")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_densify)

    p = sub.add_parser("dilute", help="lower density with seeded noise templates")
    _add_input_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intensity", type=int, default=2)
    p.set_defaults(func=_cmd_dilute)

    p = sub.add_parser("pad", help="append density-neutral period groups")
    _add_input_flags(p)
    p.add_argument("--groups", type=int, default=20, help="number of period groups")
    p.set_defaults(func=_cmd_pad)

    p = sub.add_parser("gradient", help="build a ladder of density targets")
    _add_input_flags(p)
    p.add_argument("--targets", default="0.20,0.35,0.50,0.65,0.80")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradient)

    p = sub.add_parser("instruction-last", help="move the format instruction to the end")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_instruction_last)

    p = sub.add_parser("validate", help="validate a prompt manifest")
    p.add_argument("manifest")
    p.add_argument("--strict", action="store_true", help="also check variant score bands")
    p.add_argument("--json", action="store_true", help="structured output")
    _add_context_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run the experiment over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--backend", default="mock", help="'mock' or a backend JSON file")
    p.add_argument("--model", default="mock-1", help="model id for the mock backend")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out", help="results file (JSON array)")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mock-intercept", type=float, default=-2.0)
    p.add_argument("--mock-slope", type=float, default=4.0)
    _add_context_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="accuracy and latency tables from results")
    p.add_argument("results")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mcnemar", help="paired test between two conditions")
    p.add_argument("results")
    p.add_argument("--pair", default="ultra_dense:diluted", help="condition pair A:B")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mcnemar)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return 1
    except (PromptDensityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
