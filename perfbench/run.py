#!/usr/bin/env python3
"""promptdensity benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload prompt_corpus|mock_experiment|http_experiment
        [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the checkout's ``src/``. Each run:

1. times the package's cold start (import, first default_lexicon() and
   default_templates()) in several fresh interpreters;
2. builds the workload's inputs from the seed (``inputs.py``);
3. runs one warm-up pass, then timed passes for about ``--seconds``,
   checking the outputs of every pass (``workloads.py``);
4. prints a run record (interpreter, cores, commit, seed, load average at
   start, every pass's time) as a JSON line, then the result as the last
   line: ``{"correct", "attempted", "failed", "metrics"}``.

Times are host-speed normalised (``hostspeed.py``); the run record keeps
the raw wall times beside them.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
``setup_s`` (median cold start), ``peak_rss_mb`` (peak resident memory of
the benchmark process) and ``ops_per_s`` (operations of a pass over the
median pass time). With ``--trace 1`` they are the per-layer ones: passes
alternate untraced and traced, where every public function of the program
is wrapped in spans (``tracing.py``). The spans go to
``perfbench/out/spans-<workload>.jsonl``; the metrics are per-pass medians
of counts and times over the traced passes, stage throughputs over the
untraced ones, and the tracing overhead (traced minus untraced pass time).
A per-layer metric of a layer the workload does not use reads 0.

Exit status: 0 when every check passed, 1 when one failed (the result is
still printed), 2 when the program cannot be found or a run cannot start.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracing import Tracer, summarize, write_spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 15
MIN_PASSES = 3
SETUP_STEPS = ("import", "default_lexicon", "default_templates")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "promptdensity").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def measure_setup() -> list[dict[str, float]]:
    """Cold-start samples from fresh interpreters; the first one, which may
    compile bytecode, is dropped. The samples are normalised with the median
    of calibrations taken here between them: one taken inside an
    interpreter would meet the threads numpy's import starts, and a single
    calibration is noisier than the import it would scale."""
    probes = []
    calibrations = [hostspeed.calibrate()]
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        calibrations.append(hostspeed.calibrate())
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        probes.append(json.loads(done.stdout))
    calibration = statistics.median(calibrations)
    samples = []
    for probe in probes[1:]:
        sample = {
            step: hostspeed.normalise(probe["wall"][step], probe["cpu"][step], calibration)
            for step in SETUP_STEPS
        }
        sample["total"] = sum(sample.values())
        sample["wall"] = sum(probe["wall"].values())
        samples.append(sample)
    return samples


class Pass:
    """One timed pass: raw and normalised time, per-stage normalised times,
    failures and per-layer values."""

    def __init__(self, out, timer: hostspeed.StageTimer, layer: dict[str, float]):
        self.wall = sum(timer.wall.values())
        self.norm = sum(timer.norm.values())
        self.stages = timer.norm
        self.failed = out.failed
        self.layer = layer


def run_passes(workload, seconds, problems, tracer=None, spans_out=None):
    """Timed passes until the next one would end after ``seconds``.

    With a tracer, passes alternate untraced and traced, so that both kinds
    meet the same phases of the host. Returns (untraced, traced) passes.
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(traced) < len(untraced)
        timer = hostspeed.StageTimer()
        if tracing:
            tracer.install()
        try:
            out = workload.run_pass(timer)
        finally:
            if tracing:
                tracer.uninstall()
        layer = {}
        if tracing:
            spans = tracer.take()
            spans_out.append(spans)
            # Span times are normalised with their pass.
            scale = sum(timer.norm.values()) / sum(timer.wall.values())
            layer = {k: v * scale if k.endswith("_s") or k.endswith(".s") else v
                     for k, v in summarize(spans).items()}
        problems.extend(p for p in workload.check(out) if p not in problems)
        layer.update(workload.layer_values(out))
        (traced if tracing else untraced).append(Pass(out, timer, layer))
        typical = statistics.median(p.wall for p in untraced + traced)
        enough = len(untraced) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() - start + typical > seconds:
            return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "promptdensity" / "__init__.py").is_file():
        fail(f"no promptdensity package under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    e2e_units, layer_units = metric_units()
    sys.path.insert(0, str(SRC))
    import promptdensity as pd
    import promptdensity.cli  # noqa: F401  (makes pd.cli available)

    if not os.path.abspath(pd.__file__).startswith(str(SRC) + os.sep):
        fail(f"imported promptdensity from {pd.__file__}, not {SRC}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "loadavg_start": list(os.getloadavg()),
    }
    setup = measure_setup()

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    tracer, spans = (Tracer(), []) if args.trace else (None, None)
    try:
        workload = WORKLOADS[args.workload](args.seed, pd, workdir)
        warm = workload.run_pass(hostspeed.StageTimer())
        problems.extend(workload.check(warm))
        untraced, traced = run_passes(workload, args.seconds, problems, tracer, spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        write_spans(OUT / f"spans-{args.workload}.jsonl", spans)

    def median_norm(passes: list[Pass]) -> float:
        return statistics.median(p.norm for p in passes)

    record.update({
        "setup_s": [s["total"] for s in setup],
        "setup_wall_s": [s["wall"] for s in setup],
        "pass_s": [p.norm for p in untraced],
        "pass_wall_s": [p.wall for p in untraced],
        "traced_pass_s": [p.norm for p in traced],
        "stage_s": {s: [p.stages[s] for p in untraced] for s in untraced[0].stages},
        "problems": problems,
    })
    if args.trace:
        values = {name: 0.0 for name in layer_units}
        for name in {k for p in traced for k in p.layer} & set(values):
            values[name] = statistics.median(p.layer.get(name, 0.0) for p in traced)
        for name, (stage, work) in workload.stage_work.items():
            values[name] = work / statistics.median(p.stages[stage] for p in untraced)
        for step in SETUP_STEPS:
            values[f"setup.{step}_s"] = statistics.median(s[step] for s in setup)
        values["pass_s"] = median_norm(untraced)
        values["trace.overhead_s"] = median_norm(traced) - median_norm(untraced)
        units = layer_units
    else:
        values = {
            "setup_s": statistics.median(s["total"] for s in setup),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": workload.ops / median_norm(untraced),
        }
        units = e2e_units
    mismatch = set(units) ^ set(values)
    if mismatch:
        fail(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")

    passes = [warm] + untraced + traced
    result = {
        "correct": not problems,
        "attempted": workload.ops * len(passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
