from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import promptdensity
from promptdensity.cli import main
from promptdensity.errors import PromptDensityError
from promptdensity.harness import (
    BackendDescriptor,
    BackendKind,
    TrialRecord,
    build_backend,
    make_synthetic_manifest,
    run_experiment,
)
from promptdensity.stats import (
    CANONICAL_CONDITIONS,
    DEFAULT_THRESHOLD,
    EXACT_BRANCH_LIMIT,
    AccuracyRow,
    CellVerdict,
    McNemarMethod,
    PairedOutcome,
    RegressionFit,
    Verdict,
    WinLossSummary,
    accuracy_table,
    chi2_sf_1df,
    format_accuracy_table,
    logistic_fit,
    mcnemar,
    mcnemar_counts,
    paired_test,
    record_index,
    wins_losses,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _pascal_row(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def log_likelihood(
    observations: list[tuple[bool, float, str]], coefficients: dict[str, float]
) -> float:
    """Bernoulli log-likelihood of the logistic model at the given coefficients."""
    benchmarks = sorted({b for _, _, b in observations})
    total = 0.0
    for ok, score, bench in observations:
        eta = coefficients["intercept"] + coefficients["sde"] * score
        if bench != benchmarks[0]:
            eta += coefficients.get(f"benchmark[{bench}]", 0.0)
        eta = max(min(eta, 500.0), -500.0)
        p = 1.0 / (1.0 + math.exp(-eta))
        p = min(max(p, 1e-15), 1.0 - 1e-15)
        total += math.log(p) if ok else math.log(1.0 - p)
    return total


def exact_binomial_oracle(b: int, c: int) -> float:
    """Two-sided binomial tail via Pascal's triangle (addition only)."""
    n = b + c
    if n == 0:
        return 1.0
    row = _pascal_row(n)
    k = max(b, c)
    tail = sum(row[k:])
    return min(1.0, 2.0 * tail / 2.0**n)


def upper_gamma_q_half(x: float) -> float:
    """Regularized upper incomplete gamma Q(1/2, x) by series (small x) or
    Lentz continued fraction (large x); chi-square(1) sf is Q(1/2, x/2)."""
    a = 0.5
    if x <= 0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        for n in range(1, 500):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return 1.0 - p
    tiny = 1e-300
    b0 = x + 1.0 - a
    c0 = 1.0 / tiny
    d0 = 1.0 / b0
    h = d0
    for i in range(1, 500):
        an = -i * (i - a)
        b0 += 2.0
        d0 = an * d0 + b0
        if abs(d0) < tiny:
            d0 = tiny
        c0 = b0 + an / c0
        if abs(c0) < tiny:
            c0 = tiny
        d0 = 1.0 / d0
        delta = d0 * c0
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - lg) * h


def test_chi2_sf_matches_incomplete_gamma_oracle():
    for i in range(0, 501):
        x = i * 0.1
        assert chi2_sf_1df(x) == pytest.approx(upper_gamma_q_half(x / 2.0), abs=1e-9)


def test_exact_branch_agrees_with_enumeration_for_all_small_counts():
    for n in range(1, 25):
        for b in range(n + 1):
            c = n - b
            result = mcnemar_counts(b, c)
            assert result.method is McNemarMethod.EXACT_BINOMIAL
            assert result.p_value == pytest.approx(exact_binomial_oracle(b, c), abs=1e-12)


# ---------------------------------------------------------------------------
# McNemar behavior
# ---------------------------------------------------------------------------

def test_exact_case_from_counts():
    result = mcnemar_counts(10, 2)
    assert result.method is McNemarMethod.EXACT_BINOMIAL
    assert result.p_value == pytest.approx(2 * (66 + 12 + 1) / 4096, abs=1e-12)
    assert result.p_value == pytest.approx(0.0386, abs=0.001)
    assert result.verdict is Verdict.WIN


def test_chi_square_case():
    result = mcnemar_counts(40, 20)
    assert result.method is McNemarMethod.CHI_SQUARE_CC
    assert result.statistic == pytest.approx(361 / 60, abs=1e-9)
    assert result.statistic == pytest.approx(6.017, abs=0.001)
    assert result.p_value == pytest.approx(0.0142, abs=0.001)
    assert result.verdict is Verdict.WIN


def test_balanced_counts_tie():
    result = mcnemar_counts(7, 7)
    assert result.p_value == 1.0
    assert result.verdict is Verdict.TIE


def test_zero_discordant_ties():
    result = mcnemar_counts(0, 0)
    assert result.p_value == 1.0
    assert result.verdict is Verdict.TIE


def test_symmetry_property_on_random_pairs():
    rng = random.Random(2024)
    flip = {Verdict.WIN: Verdict.LOSS, Verdict.LOSS: Verdict.WIN, Verdict.TIE: Verdict.TIE}
    for _ in range(1000):
        b, c = rng.randrange(0, 80), rng.randrange(0, 80)
        fwd = mcnemar_counts(b, c)
        rev = mcnemar_counts(c, b)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-15)
        assert (rev.b, rev.c) == (fwd.c, fwd.b)
        assert rev.verdict is flip[fwd.verdict]


def test_mcnemar_over_pairs():
    pairs = [PairedOutcome("i", r, a, b) for r, (a, b) in enumerate(
        [(True, False)] * 10 + [(False, True)] * 2 + [(True, True)] * 5
    )]
    result = mcnemar(pairs)
    assert (result.b, result.c, result.n_concordant) == (10, 2, 5)
    assert result.b + result.c + result.n_concordant == len(pairs)


def test_mcnemar_rejects_empty_and_duplicates():
    with pytest.raises(PromptDensityError):
        mcnemar([])
    dup = [PairedOutcome("x", 0, True, False), PairedOutcome("x", 0, False, True)]
    with pytest.raises(PromptDensityError):
        mcnemar(dup)


def test_p_equal_to_threshold_is_a_tie():
    # Exact p for b=2, c=0 is 2 * (1/2)**2 = 0.5: a win needs p below the level.
    result = mcnemar_counts(2, 0, threshold=0.5)
    assert result.p_value == 0.5
    assert result.verdict is Verdict.TIE


def test_exact_branch_ends_below_limit():
    # Below EXACT_BRANCH_LIMIT discordant pairs the test is exact; from it on,
    # chi-square.
    assert EXACT_BRANCH_LIMIT == 25
    for b in range(25):
        assert mcnemar_counts(b, 24 - b).method is McNemarMethod.EXACT_BINOMIAL
    for b in range(26):
        assert mcnemar_counts(b, 25 - b).method is McNemarMethod.CHI_SQUARE_CC


@pytest.mark.parametrize("threshold", [0.0, 1.5, -1.0, math.nan, math.inf])
def test_threshold_outside_unit_interval_rejected(threshold):
    with pytest.raises(PromptDensityError, match=r"threshold must lie in \(0, 1\]"):
        mcnemar_counts(3, 1, threshold=threshold)


def test_threshold_of_one_accepted():
    assert mcnemar_counts(3, 1, threshold=1.0).verdict is Verdict.WIN


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FakeRecord:
    model: str
    benchmark: str
    item_id: str
    condition: str
    run: int
    correct: bool


def _records(rows):
    out = []
    for benchmark, condition, flags in rows:
        for i, ok in enumerate(flags):
            out.append(FakeRecord("m", benchmark, f"item{i}", condition, 0, ok))
    return out


def test_accuracy_simple_ratio():
    rows = accuracy_table(_records([("b1", "standard", [True, True, True, False])]))
    assert rows[0].accuracy["standard"] == pytest.approx(75.0)


def test_delta_column():
    rows = accuracy_table(
        _records(
            [
                ("b1", "ultra_dense", [True] * 8 + [False] * 2),
                ("b1", "diluted", [True] * 6 + [False] * 4),
            ]
        )
    )
    assert rows[0].delta == pytest.approx(20.0)


def test_identical_cells_no_stars():
    flags = [True] * 5 + [False] * 5
    rows = accuracy_table(
        _records([("b1", "ultra_dense", flags), ("b1", "diluted", flags)])
    )
    assert rows[0].delta == pytest.approx(0.0)
    assert not rows[0].significant


def test_significant_loss_is_marked():
    # diluted is always right, ultra_dense right on 10 of 60 items.
    rows = accuracy_table(
        _records(
            [("b1", "ultra_dense", [True] * 10 + [False] * 50), ("b1", "diluted", [True] * 60)]
        )
    )
    assert rows[0].verdict is Verdict.LOSS
    assert rows[0].significant
    assert format_accuracy_table(rows, csv=True).splitlines()[1] == "b1,100.0,,16.7,-83.3,-*"


def test_significant_win_keeps_star():
    rows = accuracy_table(
        _records(
            [("b1", "ultra_dense", [True] * 60), ("b1", "diluted", [True] * 10 + [False] * 50)]
        )
    )
    assert rows[0].verdict is Verdict.WIN
    assert format_accuracy_table(rows, csv=True).splitlines()[1] == "b1,16.7,,100.0,+83.3,*"


def test_table_formatting_column_order():
    rows = accuracy_table(
        _records(
            [
                ("b1", "diluted", [False, True]),
                ("b1", "standard", [True, True]),
                ("b1", "ultra_dense", [True, True]),
            ]
        )
    )
    csv = format_accuracy_table(rows, csv=True)
    header = csv.splitlines()[0]
    assert header == "benchmark,diluted,standard,dense,delta,sig"
    assert CANONICAL_CONDITIONS == ("diluted", "standard", "ultra_dense")


def test_wins_losses_symmetric_data_all_tie():
    records = []
    for i in range(30):
        records.append(FakeRecord("m", "b", f"i{i}", "ultra_dense", 0, i % 2 == 0))
        records.append(FakeRecord("m", "b", f"i{i}", "diluted", 0, i % 2 == 1))
    summary = wins_losses(records)
    assert summary.wins == 0 and summary.losses == 0
    assert summary.ties == len(summary.cells)


def test_wins_losses_single_cell():
    records = [
        FakeRecord("m", "b", "i0", "ultra_dense", 0, True),
        FakeRecord("m", "b", "i0", "diluted", 0, False),
    ]
    summary = wins_losses(records)
    assert len(summary.cells) == 1


def test_two_benchmark_table_ends_with_overall_row():
    items = make_synthetic_manifest(40, seed=2)
    records = run_experiment(items, [build_backend(BackendDescriptor(BackendKind.MOCK, "mock-1"))])
    assert format_accuracy_table(accuracy_table(records), csv=True) == (
        "benchmark,diluted,standard,dense,delta,sig\n"
        "arithmetic,15.6,53.3,80.0,+64.4,*\n"
        "choice,26.7,83.3,76.7,+50.0,*\n"
        "Overall,18.3,60.8,79.2,+60.8,*"
    )


def test_record_index_groups_by_cell_item_condition_run():
    records = [
        FakeRecord("m", "b", "i0", "diluted", 1, True),
        FakeRecord("m", "b", "i0", "diluted", 0, False),
        FakeRecord("m", "c", "i0", "standard", 0, True),
    ]
    assert record_index(records) == {
        ("m", "b"): {"i0": {"diluted": {1: True, 0: False}}},
        ("m", "c"): {"i0": {"standard": {0: True}}},
    }


def test_record_index_rejects_a_repeated_key():
    records = [FakeRecord("m", "b", "i0", "diluted", 0, True)] * 2
    with pytest.raises(PromptDensityError, match="duplicate record: m/b/i0 diluted run 0"):
        record_index(records)


def test_paired_test_pairs_only_runs_under_both_conditions():
    records = [
        FakeRecord("m", "b", "i0", "ultra_dense", 0, True),
        FakeRecord("m", "b", "i0", "diluted", 0, False),
        FakeRecord("m", "b", "i0", "ultra_dense", 1, True),
        FakeRecord("m", "b", "i1", "diluted", 0, True),
    ]
    cells = record_index(records).values()
    result = paired_test(cells, "ultra_dense", "diluted")
    assert (result.b, result.c, result.n_concordant) == (1, 0, 0)
    assert paired_test(cells, "ultra_dense", "standard") is None


# ---------------------------------------------------------------------------
# The record index gives what the per-group filters gave: the earlier
# pair_up, accuracy_table and wins_losses, kept verbatim as an oracle
# ---------------------------------------------------------------------------

def _oracle_pair_up(records: list, cond_a: str, cond_b: str) -> list[PairedOutcome]:
    """Outcomes of the same (model, benchmark, item, run) under both conditions."""
    by_key: dict[tuple, dict[str, bool]] = {}
    for r in records:
        key = (r.model, r.benchmark, r.item_id, r.run)
        by_key.setdefault(key, {})[r.condition] = r.correct
    pairs = []
    for (model, bench, item, run), conds in sorted(by_key.items()):
        if cond_a in conds and cond_b in conds:
            pairs.append(
                PairedOutcome(f"{model}/{bench}/{item}", run, conds[cond_a], conds[cond_b])
            )
    return pairs


def _oracle_accuracy_table(
    records: list, threshold: float = DEFAULT_THRESHOLD
) -> list[AccuracyRow]:
    """Per-benchmark accuracy by condition, the ultra-dense minus diluted
    delta, and the paired test's verdict. Ends with an Overall row pooling
    every benchmark."""
    if not records:
        raise PromptDensityError("no records to aggregate")
    benchmarks = sorted({r.benchmark for r in records})
    rows: list[AccuracyRow] = []
    groups = [(b, [r for r in records if r.benchmark == b]) for b in benchmarks]
    if len(benchmarks) > 1:
        groups.append(("Overall", list(records)))
    for name, group in groups:
        acc: dict[str, float] = {}
        for condition in sorted({r.condition for r in group}):
            cell = [r for r in group if r.condition == condition]
            acc[condition] = 100.0 * sum(r.correct for r in cell) / len(cell)
        delta = verdict = None
        if "ultra_dense" in acc and "diluted" in acc:
            delta = acc["ultra_dense"] - acc["diluted"]
            pairs = _oracle_pair_up(group, "ultra_dense", "diluted")
            if pairs:
                verdict = mcnemar(pairs, threshold).verdict
        rows.append(AccuracyRow(name, acc, delta, verdict))
    return rows


def _oracle_wins_losses(
    records: list,
    cond_a: str = "ultra_dense",
    cond_b: str = "diluted",
    threshold: float = DEFAULT_THRESHOLD,
) -> WinLossSummary:
    """Per (model, benchmark) paired-test verdicts for cond_a vs cond_b."""
    cells: list[CellVerdict] = []
    keys = sorted({(r.model, r.benchmark) for r in records})
    for model, benchmark in keys:
        group = [r for r in records if r.model == model and r.benchmark == benchmark]
        pairs = _oracle_pair_up(group, cond_a, cond_b)
        if not pairs:
            continue
        cells.append(CellVerdict(model, benchmark, mcnemar(pairs, threshold)))
    wins = sum(1 for c in cells if c.result.verdict is Verdict.WIN)
    losses = sum(1 for c in cells if c.result.verdict is Verdict.LOSS)
    return WinLossSummary(wins, losses, len(cells) - wins - losses, tuple(cells))


_KNOWN_CONDITIONS = ("diluted", "standard", "ultra_dense", "ultra_dense_ipe", "padding")
_CONDITION_PAIRS = (("ultra_dense", "diluted"), ("ultra_dense_ipe", "diluted"), ("standard", "padding"))


@st.composite
def _record_sets(draw):
    """Records with unique keys, in any order: 1-3 models, 1-3 benchmarks
    (one may be named Overall), 1-3 runs, any subset of the known
    conditions per item, any correct flags, and a run missing now and then."""
    models = draw(st.lists(st.sampled_from(["m1", "m2", "m3"]), min_size=1, max_size=3, unique=True))
    benchmarks = draw(
        st.lists(st.sampled_from(["arc", "gsm", "Overall"]), min_size=1, max_size=3, unique=True)
    )
    runs = draw(st.integers(1, 3))
    records = []
    for model in models:
        for benchmark in benchmarks:
            for item in range(draw(st.integers(0, 3))):
                for condition in sorted(draw(st.sets(st.sampled_from(_KNOWN_CONDITIONS)))):
                    # One base-3 digit per run: 0 no record, 1 wrong, 2 correct.
                    digits = draw(st.integers(0, 3**runs - 1))
                    for run in range(runs):
                        if digits // 3**run % 3:
                            records.append(FakeRecord(model, benchmark, f"i{item}", condition,
                                                      run, digits // 3**run % 3 == 2))
    return draw(st.permutations(records))


def _rows(rows: list[AccuracyRow]) -> list[tuple]:
    # Every field, and the order of the condition columns, which --json keeps.
    return [(r.benchmark, list(r.accuracy.items()), r.delta, r.verdict) for r in rows]


def _cli_mcnemar_json(records: list, pair: str, threshold: float) -> tuple[int, str]:
    trials = [
        TrialRecord(r.model, r.benchmark, r.item_id, r.condition, r.run, r.correct,
                    "", 1.0, 1, 0.5, "t").to_json()
        for r in records
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trials, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["mcnemar", path, "--pair", pair, "--threshold", repr(threshold), "--json"])
    return code, out.getvalue() or err.getvalue()


@settings(max_examples=100, deadline=None)
@given(records=_record_sets(), threshold=st.sampled_from([0.05, 0.1, 0.5, 1.0]))
def test_record_index_equals_per_group_filters(records, threshold):
    if not records:
        for table in (accuracy_table, _oracle_accuracy_table):
            with pytest.raises(PromptDensityError, match="no records"):
                table(records, threshold)
    else:
        assert _rows(accuracy_table(records, threshold)) == _rows(
            _oracle_accuracy_table(records, threshold)
        )
    for cond_a, cond_b in _CONDITION_PAIRS:
        assert wins_losses(records, cond_a, cond_b, threshold) == _oracle_wins_losses(
            records, cond_a, cond_b, threshold
        )
    cond_a, cond_b = _CONDITION_PAIRS[0]
    pairs = _oracle_pair_up(records, cond_a, cond_b)
    code, output = _cli_mcnemar_json(records, f"{cond_a}:{cond_b}", threshold)
    if not pairs:
        assert (code, output) == (1, f"error: no paired records for {cond_a!r} vs {cond_b!r}\n")
    else:
        report = {"schema_version": "1", "pair": [cond_a, cond_b],
                  **mcnemar(pairs, threshold).to_report()}
        assert (code, json.loads(output)) == (0, report)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

def _synthetic(n, seed, intercept=-2.0, slope=4.0, benchmarks=("synthetic",)):
    rng = random.Random(seed)
    obs = []
    for i in range(n):
        s = rng.uniform(0.1, 0.9)
        bench = benchmarks[i % len(benchmarks)]
        p = 1.0 / (1.0 + math.exp(-(intercept + slope * s)))
        obs.append((rng.random() < p, s, bench))
    return obs


def test_slope_recovery_on_synthetic_data():
    fit = logistic_fit(_synthetic(5000, seed=42))
    assert fit.converged
    assert 3.4 <= fit.coefficients["sde"] <= 4.6


def test_null_data_slope_within_two_se():
    rng = random.Random(7)
    obs = [(rng.random() < 0.5, rng.uniform(0.1, 0.9), "b") for _ in range(3000)]
    fit = logistic_fit(obs)
    assert fit.converged
    assert abs(fit.coefficients["sde"]) < 2 * fit.standard_errors["sde"]


def test_all_correct_reports_separation():
    rng = random.Random(3)
    fit = logistic_fit([(True, rng.uniform(0.1, 0.9), "b") for _ in range(100)])
    assert fit.separation_detected
    assert not fit.converged


def test_perfectly_separable_scores_detected():
    obs = [(s > 0.5, s, "b") for s in [i / 100 for i in range(1, 100)]]
    fit = logistic_fit(obs)
    assert fit.separation_detected
    assert not fit.converged


def test_zero_variance_rejected():
    with pytest.raises(PromptDensityError):
        logistic_fit([(True, 0.5, "b"), (False, 0.5, "b")])


def test_benchmark_fixed_effects_reference_level():
    obs = _synthetic(4000, seed=11, benchmarks=("alpha", "beta", "gamma"))
    fit = logistic_fit(obs)
    assert fit.reference_benchmark == "alpha"
    assert "benchmark[beta]" in fit.coefficients
    assert "benchmark[gamma]" in fit.coefficients
    assert "benchmark[alpha]" not in fit.coefficients
    assert fit.converged


def test_gradient_first_order_optimality():
    obs = _synthetic(2000, seed=5, benchmarks=("a", "b"))
    fit = logistic_fit(obs)
    assert fit.converged
    benchmarks = sorted({b for _, _, b in obs})
    # max-norm of the score vector at the fitted coefficients
    grads = {name: 0.0 for name in fit.coefficients}
    for ok, s, bench in obs:
        eta = fit.coefficients["intercept"] + fit.coefficients["sde"] * s
        if bench != benchmarks[0]:
            eta += fit.coefficients[f"benchmark[{bench}]"]
        mu = 1.0 / (1.0 + math.exp(-eta))
        resid = (1.0 if ok else 0.0) - mu
        grads["intercept"] += resid
        grads["sde"] += resid * s
        if bench != benchmarks[0]:
            grads[f"benchmark[{bench}]"] += resid
    assert max(abs(g) for g in grads.values()) < 1e-6


def test_loglik_gradient_matches_finite_differences():
    obs = _synthetic(400, seed=13, benchmarks=("a", "b"))
    rng = random.Random(17)
    benchmarks = sorted({b for _, _, b in obs})
    for _ in range(5):
        point = {
            "intercept": rng.uniform(-2, 2),
            "sde": rng.uniform(-2, 2),
            "benchmark[b]": rng.uniform(-2, 2),
        }
        eps = 1e-6
        for name in point:
            hi = dict(point)
            lo = dict(point)
            hi[name] += eps
            lo[name] -= eps
            fd = (log_likelihood(obs, hi) - log_likelihood(obs, lo)) / (2 * eps)
            # analytic gradient
            grad = 0.0
            for ok, s, bench in obs:
                eta = point["intercept"] + point["sde"] * s
                if bench != benchmarks[0]:
                    eta += point[f"benchmark[{bench}]"]
                mu = 1.0 / (1.0 + math.exp(-eta))
                resid = (1.0 if ok else 0.0) - mu
                if name == "intercept":
                    grad += resid
                elif name == "sde":
                    grad += resid * s
                elif name == f"benchmark[{bench}]":
                    grad += resid
            assert grad == pytest.approx(fd, abs=1e-4)


def test_score_confounded_with_benchmark_is_not_a_fit():
    # The score is constant within each benchmark, so it cannot be told
    # apart from the benchmark dummy: the information matrix is singular.
    obs = [(i < 1, 0.2, "alpha") for i in range(4)] + [(i < 2, 0.6, "beta") for i in range(4)]
    fit = logistic_fit(obs)
    assert fit.separation_detected
    assert not fit.converged


def test_benchmark_with_one_outcome_is_not_a_fit():
    # Every alpha answer is correct, so the intercept has no finite
    # estimate. IRLS on the full design stopped here with converged=True
    # once alpha's prediction rounded to exactly 1.
    obs = [(False, 0.0, "beta"), (False, 0.03, "beta"), (True, 0.0, "beta"),
           (True, 0.0, "beta"), (False, 0.01, "beta"), (False, 0.0, "beta"),
           (True, 0.09, "beta"), (True, 0.57, "alpha")]
    fit = logistic_fit(obs)
    assert fit.separation_detected
    assert not fit.converged


def _numpy_irls(np, observations):
    """Reference fit: IRLS over the full n-by-k design matrix with numpy."""
    scores = np.array([s for _, s, _ in observations], dtype=float)
    y = np.array([1.0 if ok else 0.0 for ok, _, _ in observations])
    benchmarks = sorted({b for _, _, b in observations})
    names = ["intercept", "sde"] + [f"benchmark[{b}]" for b in benchmarks[1:]]
    n, k = len(observations), 2 + len(benchmarks) - 1
    x = np.zeros((n, k))
    x[:, 0] = 1.0
    x[:, 1] = scores
    for j, bench in enumerate(benchmarks[1:], start=2):
        x[:, j] = [1.0 if b == bench else 0.0 for _, _, b in observations]

    beta = np.zeros(k)
    converged = False
    separated = False
    iterations = 0
    for iterations in range(1, 101):
        eta = np.clip(x @ beta, -500, 500)
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        hessian = x.T @ (w[:, None] * x)
        gradient = x.T @ (y - mu)
        try:
            delta = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            separated = True
            break
        beta = beta + delta
        if np.max(np.abs(beta)) > 30.0:
            separated = True
            break
        if np.max(np.abs(delta)) < 1e-8:
            converged = True
            break

    eta = np.clip(x @ beta, -500, 500)
    mu = 1.0 / (1.0 + np.exp(-eta))
    w = mu * (1.0 - mu)
    info = x.T @ (w[:, None] * x)
    try:
        se = np.sqrt(np.clip(np.diag(np.linalg.inv(info)), 0.0, None))
    except np.linalg.LinAlgError:
        se = np.full(k, float("nan"))
    return RegressionFit(
        coefficients=dict(zip(names, beta.tolist())),
        standard_errors=dict(zip(names, se.tolist())),
        converged=converged and not separated,
        iterations=iterations,
        reference_benchmark=benchmarks[0],
        separation_detected=separated,
    )


@st.composite
def _designs(draw):
    names = ("alpha", "beta", "gamma", "delta")[: draw(st.integers(1, 4))]
    observation = st.tuples(
        st.booleans(), st.integers(0, 100).map(lambda i: i / 100), st.sampled_from(names)
    )
    return draw(st.lists(observation, min_size=2, max_size=80))


def test_fit_matches_numpy_irls_oracle():
    np = pytest.importorskip("numpy")

    @settings(max_examples=200, deadline=None)
    @given(_designs())
    def check(observations):
        scores: dict[str, set[float]] = {}
        for _, s, bench in observations:
            scores.setdefault(bench, set()).add(s)
        assume(any(len(distinct) > 1 for distinct in scores.values()))
        fit, oracle = logistic_fit(observations), _numpy_irls(np, observations)
        if any(len({ok for ok, _, b in observations if b == bench}) == 1 for bench in scores):
            # A benchmark with one outcome has no finite estimate. The numpy
            # IRLS can stop there as "converged": once its predictions round
            # to exactly 0 or 1, weight and gradient vanish.
            assert fit.separation_detected and not fit.converged
            return
        assert fit.converged == oracle.converged
        assert fit.separation_detected == oracle.separation_detected
        if oracle.converged:
            for name, value in oracle.coefficients.items():
                assert fit.coefficients[name] == pytest.approx(value, rel=0, abs=1e-8)
                se = oracle.standard_errors[name]
                assert fit.standard_errors[name] == pytest.approx(se, rel=1e-8)

    check()


def test_cli_import_leaves_numpy_unloaded():
    src = Path(promptdensity.__file__).resolve().parents[1]
    code = "import sys, promptdensity.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
