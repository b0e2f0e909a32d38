"""Paired significance testing, accuracy aggregation, and the density
ablation regression.

``record_index`` is the one grouping of trial records: every accuracy
figure and paired test below is read from it.

McNemar's test runs on discordant pair counts: exact two-sided binomial
for small counts, continuity-corrected chi-square otherwise. The
regression fits correct ~ score + benchmark fixed effects by iteratively
reweighted least squares with separation detection.
"""
from __future__ import annotations

import csv as _csv
import io
import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import PromptDensityError

EXACT_BRANCH_LIMIT = 25  # discordant pairs below this use the exact test
DEFAULT_THRESHOLD = 0.10


class McNemarMethod(Enum):
    EXACT_BINOMIAL = "exact_binomial"
    CHI_SQUARE_CC = "chi_square_cc"


class Verdict(Enum):
    WIN = "win"
    LOSS = "loss"
    TIE = "tie"


@dataclass(frozen=True)
class PairedOutcome:
    """Correctness of the same (item, run) under two conditions."""

    item_id: str
    run: int
    a_correct: bool
    b_correct: bool


@dataclass(frozen=True)
class McNemarResult:
    b: int  # A correct, B incorrect
    c: int  # A incorrect, B correct
    n_concordant: int
    statistic: float | None
    p_value: float
    method: McNemarMethod
    verdict: Verdict

    def to_report(self) -> dict:
        return {
            "b": self.b,
            "c": self.c,
            "n_concordant": self.n_concordant,
            "statistic": None if self.statistic is None else round(self.statistic, 4),
            "p_value": round(self.p_value, 6),
            "method": self.method.value,
            "verdict": self.verdict.value,
        }


def chi2_sf_1df(x: float) -> float:
    """Survival function of the chi-square distribution with one degree of
    freedom: P(X >= x) = erfc(sqrt(x/2))."""
    if x < 0:
        raise PromptDensityError("chi-square statistic must be non-negative")
    return math.erfc(math.sqrt(x / 2.0))


def _exact_binomial_p(b: int, c: int) -> float:
    n = b + c
    k = max(b, c)
    tail = sum(math.comb(n, i) for i in range(k, n + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def mcnemar_counts(b: int, c: int, threshold: float = DEFAULT_THRESHOLD) -> McNemarResult:
    """McNemar test from the discordant counts alone, at a significance
    level ``threshold`` in (0, 1]."""
    if not 0.0 < threshold <= 1.0:
        raise PromptDensityError(f"threshold must lie in (0, 1], got {threshold}")
    if b < 0 or c < 0:
        raise PromptDensityError("counts must be non-negative")
    n = b + c
    if n == 0:
        return McNemarResult(b, c, 0, None, 1.0, McNemarMethod.EXACT_BINOMIAL, Verdict.TIE)
    if n < EXACT_BRANCH_LIMIT:
        p = _exact_binomial_p(b, c)
        statistic = None
        method = McNemarMethod.EXACT_BINOMIAL
    else:
        # Continuity correction clamps at zero so b == c gives p = 1 exactly.
        statistic = max(abs(b - c) - 1.0, 0.0) ** 2 / n
        p = chi2_sf_1df(statistic)
        method = McNemarMethod.CHI_SQUARE_CC
    if p < threshold and b > c:
        verdict = Verdict.WIN
    elif p < threshold and c > b:
        verdict = Verdict.LOSS
    else:
        verdict = Verdict.TIE
    return McNemarResult(b, c, 0, statistic, p, method, verdict)


def mcnemar(pairs: list[PairedOutcome], threshold: float = DEFAULT_THRESHOLD) -> McNemarResult:
    """McNemar test over paired (item, run) outcomes; A wins count in b."""
    if not pairs:
        raise PromptDensityError("empty pair set")
    keys = {(p.item_id, p.run) for p in pairs}
    if len(keys) != len(pairs):
        raise PromptDensityError("duplicate (item, run) pair in comparison set")
    b = sum(1 for p in pairs if p.a_correct and not p.b_correct)
    c = sum(1 for p in pairs if not p.a_correct and p.b_correct)
    return replace(mcnemar_counts(b, c, threshold), n_concordant=len(pairs) - b - c)


# ---------------------------------------------------------------------------
# Accuracy aggregation
# ---------------------------------------------------------------------------

CANONICAL_CONDITIONS = ("diluted", "standard", "ultra_dense")
TABLE_COLUMNS = ("benchmark", "diluted", "standard", "dense", "delta", "sig")


@dataclass(frozen=True)
class AccuracyRow:
    benchmark: str
    accuracy: dict[str, float]  # condition -> percent
    delta: float | None  # ultra_dense minus diluted, percentage points
    verdict: Verdict | None  # paired test of ultra_dense vs diluted, if any pairs

    @property
    def significant(self) -> bool:
        return self.verdict in (Verdict.WIN, Verdict.LOSS)


def record_index(records: list) -> dict:
    """Records grouped in one pass as (model, benchmark) -> item ->
    condition -> {run: correct}; a repeated record key is an error."""
    index: dict = {}
    for r in records:
        item = index.setdefault((r.model, r.benchmark), {}).setdefault(r.item_id, {})
        runs = item.setdefault(r.condition, {})
        if r.run in runs:
            raise PromptDensityError(f"duplicate record: {r.model}/{r.benchmark}/{r.item_id} "
                                     f"{r.condition} run {r.run}")
        runs[r.run] = r.correct
    return index


def paired_test(cells, cond_a: str, cond_b: str,
                threshold: float = DEFAULT_THRESHOLD) -> McNemarResult | None:
    """McNemar test over every (item, run) of the ``record_index`` cells
    with an outcome under both conditions, or None if there is none; A wins
    count in b."""
    b = c = pairs = 0
    for cell in cells:
        for conditions in cell.values():
            if cond_a in conditions and cond_b in conditions:
                runs_a, runs_b = conditions[cond_a], conditions[cond_b]
                for run in runs_a.keys() & runs_b.keys():
                    pairs += 1
                    b += runs_a[run] and not runs_b[run]
                    c += runs_b[run] and not runs_a[run]
    if not pairs:
        return None
    return replace(mcnemar_counts(b, c, threshold), n_concordant=pairs - b - c)


def accuracy_table(records: list, threshold: float = DEFAULT_THRESHOLD) -> list[AccuracyRow]:
    """Per-benchmark accuracy by condition, the ultra-dense minus diluted
    delta, and the paired test's verdict. Ends with an Overall row pooling
    every benchmark."""
    index = record_index(records)
    if not index:
        raise PromptDensityError("no records to aggregate")
    benchmarks = sorted({benchmark for _, benchmark in index})
    # A list of (name, cells), as a benchmark may itself be named Overall.
    groups = [(b, [cell for (_, name), cell in index.items() if name == b]) for b in benchmarks]
    if len(groups) > 1:
        groups.append(("Overall", list(index.values())))
    rows: list[AccuracyRow] = []
    for name, cells in groups:
        tallies: dict[str, list[int]] = {}  # condition -> [correct, trials]
        for cell in cells:
            for conditions in cell.values():
                for condition, runs in conditions.items():
                    tally = tallies.setdefault(condition, [0, 0])
                    tally[0] += sum(runs.values())
                    tally[1] += len(runs)
        acc = {cond: 100.0 * correct / n for cond, (correct, n) in sorted(tallies.items())}
        delta = None
        if "ultra_dense" in acc and "diluted" in acc:
            delta = acc["ultra_dense"] - acc["diluted"]
        result = paired_test(cells, "ultra_dense", "diluted", threshold)
        rows.append(AccuracyRow(name, acc, delta, None if result is None else result.verdict))
    return rows


def format_table(header: list[str], body: list[list[str]], csv: bool = False) -> str:
    """Render a header and rows as left-aligned text columns or as CSV."""
    rows = [header, *body]
    if csv:
        buf = io.StringIO()
        _csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue().removesuffix("\n")
    widths = [max(len(cells[i]) for cells in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(cells, widths)) for cells in rows)


_SIG_MARKS = {Verdict.WIN: "*", Verdict.LOSS: "-*"}


def format_accuracy_table(rows: list[AccuracyRow], csv: bool = False) -> str:
    """Render rows in the fixed column order, aligned text or CSV; ``sig``
    marks a significant win ``*`` and a significant loss ``-*``."""
    body: list[list[str]] = []
    for row in rows:
        cells = [row.benchmark]
        for condition in CANONICAL_CONDITIONS:
            value = row.accuracy.get(condition)
            cells.append("" if value is None else f"{value:.1f}")
        cells.append("" if row.delta is None else f"{row.delta:+.1f}")
        cells.append(_SIG_MARKS.get(row.verdict, ""))
        body.append(cells)
    return format_table(list(TABLE_COLUMNS), body, csv)


@dataclass(frozen=True)
class CellVerdict:
    model: str
    benchmark: str
    result: McNemarResult


@dataclass(frozen=True)
class WinLossSummary:
    wins: int
    losses: int
    ties: int
    cells: tuple[CellVerdict, ...]


def wins_losses(
    records: list,
    cond_a: str = "ultra_dense",
    cond_b: str = "diluted",
    threshold: float = DEFAULT_THRESHOLD,
) -> WinLossSummary:
    """Per (model, benchmark) paired-test verdicts for cond_a vs cond_b."""
    cells: list[CellVerdict] = []
    for (model, benchmark), cell in sorted(record_index(records).items()):
        result = paired_test([cell], cond_a, cond_b, threshold)
        if result is not None:
            cells.append(CellVerdict(model, benchmark, result))
    wins = sum(1 for c in cells if c.result.verdict is Verdict.WIN)
    losses = sum(1 for c in cells if c.result.verdict is Verdict.LOSS)
    return WinLossSummary(wins, losses, len(cells) - wins - losses, tuple(cells))


# ---------------------------------------------------------------------------
# Logistic regression (density ablation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionFit:
    """IRLS fit of correct ~ score + benchmark fixed effects."""

    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    converged: bool
    iterations: int
    reference_benchmark: str
    separation_detected: bool = False


_MAX_ITER = 100
_TOL = 1e-8
_DIVERGENCE_BOUND = 30.0


def _fisher_system(cells: dict, beta: list[float]) -> tuple[list[list[float]], list[float]]:
    """X'WX and X'(y - mu) for the design [1, score, benchmark dummies]
    from per-benchmark sums. ``cells`` maps the benchmarks in column order
    to {score: [trials, successes]}; the dummy of the j-th is column j + 1
    (none for the reference, j = 0)."""
    k = len(beta)
    hessian = [[0.0] * k for _ in range(k)]
    gradient = [0.0] * k
    for j, group in enumerate(cells.values()):
        offset = beta[0] + (beta[j + 1] if j else 0.0)
        sw = sws = swss = sr = srs = 0.0
        for score, (trials, successes) in group.items():
            eta = min(max(offset + beta[1] * score, -500.0), 500.0)
            mu = 1.0 / (1.0 + math.exp(-eta))
            w = trials * mu * (1.0 - mu)
            r = successes - trials * mu
            sw += w
            sws += w * score
            swss += w * score * score
            sr += r
            srs += r * score
        # Each entry is a sum of w, w*score or w*score**2 by how many of
        # its two columns are the score column (1).
        columns = (0, 1, j + 1) if j else (0, 1)
        for a in columns:
            gradient[a] += srs if a == 1 else sr
            for b in columns:
                hessian[a][b] += (sw, sws, swss)[(a == 1) + (b == 1)]
    return hessian, gradient


def _invert(matrix: list[list[float]]) -> list[list[float]] | None:
    """Inverse by Gauss-Jordan elimination with partial pivoting, or None
    when a pivot is at most 1e-12 times the largest entry (singular)."""
    k = len(matrix)
    floor = 1e-12 * max(abs(v) for row in matrix for v in row)
    rows = [row + [float(i == r) for i in range(k)] for r, row in enumerate(matrix)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if abs(rows[pivot][col]) <= floor:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(k):
            factor = rows[r][col]
            if r != col and factor != 0.0:
                rows[r] = [v - factor * u for v, u in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def logistic_fit(observations: list[tuple[bool, float, str]]) -> RegressionFit:
    """Maximum-likelihood logistic regression via Newton/IRLS.

    Observations are (correct, score, benchmark id) triples. Benchmarks
    enter as fixed-effect dummies against the lexicographically first
    benchmark. Diverging coefficients (complete separation) and a singular
    information matrix (separation, or a score confounded with benchmark;
    standard errors are then NaN) yield converged=False, not fake estimates.
    """
    if len(observations) < 2:
        raise PromptDensityError("need at least two observations")
    scores = [float(s) for _, s, _ in observations]
    if min(scores) == max(scores):
        raise PromptDensityError("score has zero variance")
    benchmarks = sorted({b for _, _, b in observations})
    names = ["intercept", "sde"] + [f"benchmark[{b}]" for b in benchmarks[1:]]
    # Observations with the same benchmark and score share a prediction.
    cells: dict[str, dict[float, list[int]]] = {b: {} for b in benchmarks}
    for (ok, _, bench), score in zip(observations, scores):
        cell = cells[bench].setdefault(score, [0, 0])
        cell[0] += 1
        cell[1] += 1 if ok else 0

    beta = [0.0] * len(names)
    converged = False
    separated = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        hessian, gradient = _fisher_system(cells, beta)
        inverse = _invert(hessian)
        if inverse is None:
            separated = True
            break
        delta = [sum(a * g for a, g in zip(row, gradient)) for row in inverse]
        beta = [b + d for b, d in zip(beta, delta)]
        if max(abs(b) for b in beta) > _DIVERGENCE_BOUND:
            separated = True
            break
        if max(abs(d) for d in delta) < _TOL:
            converged = True
            break

    cov = _invert(_fisher_system(cells, beta)[0])
    se = [math.sqrt(max(cov[i][i], 0.0)) if cov else math.nan for i in range(len(names))]
    return RegressionFit(
        coefficients=dict(zip(names, beta)),
        standard_errors=dict(zip(names, se)),
        converged=converged and not separated,
        iterations=iterations,
        reference_benchmark=benchmarks[0],
        separation_detected=separated,
    )
