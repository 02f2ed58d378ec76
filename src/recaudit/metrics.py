"""Measurement math: daily conspiratorial-recommendation frequencies, rolling
averages, exact binomial (Clopper-Pearson) intervals, the calibration curve,
and the filter-bubble conditional matrix.

All operations are pure functions over immutable inputs. "Undefined" results
(no classifiable edges, empty bins) are returned as ``None`` rather than 0 so
downstream reports can render gaps instead of fabricated zeros.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import EdgeColumns

# ---------------------------------------------------------------------------
# Regularized incomplete beta and the exact binomial interval
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 1e-15
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by the modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction stalled for a={a} b={b} x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def beta_quantile(q: float, a: float, b: float, tol: float = 1e-9) -> float:
    """Inverse of I_x(a, b) by bisection on [0, 1], down to interval width ``tol``."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for k successes in n trials.

    Lower bound is the alpha/2 Beta(k, n-k+1) quantile (0 when k = 0), upper
    bound the 1-alpha/2 Beta(k+1, n-k) quantile (1 when k = n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    low = 0.0 if k == 0 else beta_quantile(alpha / 2.0, k, n - k + 1, tol=1e-12)
    high = 1.0 if k == n else beta_quantile(1.0 - alpha / 2.0, k + 1, n - k, tol=1e-12)
    return low, high


# ---------------------------------------------------------------------------
# Per-day frequencies
# ---------------------------------------------------------------------------

LikelihoodMap = Mapping[str, Optional[float]]

# The array forms below sum with np.bincount, which adds each group's values
# one after another in the order given: the edges' file order. So every sum
# is the left-to-right sum over those edges, on every Python version.


def _lookup(ids: Sequence[str], mapping: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Per id: whether ``mapping`` gives it a value that is not None, and that
    value as a float (0 where it gives none)."""
    values = [mapping.get(vid) for vid in ids]
    known = np.array([value is not None for value in values], dtype=bool)
    return known, np.array([0.0 if value is None else value for value in values], dtype=float)


def daily_frequencies(
    days: Sequence[EdgeColumns],
    likelihoods: LikelihoodMap,
    source_views: Mapping[str, int],
    threshold: float = 0.5,
) -> list[tuple[Optional[float], Optional[float], float]]:
    """(raw frequency, weighted frequency, coverage) of each day's edges, as
    :func:`raw_frequency`, :func:`weighted_frequency` and :func:`coverage`
    define them. A negative view count raises ValueError naming the source of
    the first classifiable edge, in day and file order, on a day whose
    sources all have a view count."""
    edges = EdgeColumns.concat(days)
    n = len(days)
    day = np.repeat(np.arange(n), [len(d) for d in days])
    known, like_of = _lookup(edges.ids, likelihoods)
    has_views, views_of = _lookup(edges.ids, source_views)
    scored = known[edges.recommended]
    like = like_of[edges.recommended]
    above = scored & (like > threshold)  # a NaN likelihood is scored, never above
    # A day is weighted only when every one of its sources has a view count.
    weighed = np.bincount(day[~has_views[edges.source]], minlength=n) == 0
    views = views_of[edges.source]
    negative = np.flatnonzero(scored & weighed[day] & (views < 0))
    if len(negative):
        raise ValueError(f"negative view count for source video {edges.ids[edges.source[negative[0]]]}")
    columns = (
        np.bincount(day, minlength=n),
        np.bincount(day[scored], minlength=n),
        np.bincount(day[above], weights=like[above], minlength=n),
        weighed,
        np.bincount(day[scored], weights=views[scored], minlength=n),
        np.bincount(day[above], weights=views[above] * like[above], minlength=n),
    )
    return [
        (
            above_sum / count if count else None,
            numerator / denominator if complete and denominator != 0.0 else None,
            count / total if total else 0.0,
        )
        for total, count, above_sum, complete, denominator, numerator in zip(*(c.tolist() for c in columns))
    ]


def raw_frequency(
    edges: EdgeColumns,
    likelihoods: LikelihoodMap,
    threshold: float = 0.5,
) -> Optional[float]:
    """Likelihood-weighted share of above-threshold recommendations.

    Sums the likelihoods of classifiable edges whose likelihood exceeds the
    threshold and divides by the count of classifiable edges. Edges whose
    recommended video has no likelihood (unclassifiable) drop out of both
    numerator and denominator. ``None`` when nothing is classifiable.
    """
    return daily_frequencies([edges], likelihoods, {}, threshold)[0][0]


def weighted_frequency(
    edges: EdgeColumns,
    likelihoods: LikelihoodMap,
    source_views: Mapping[str, int],
    threshold: float = 0.5,
) -> Optional[float]:
    """Raw frequency with each edge weighted by its source video's view count.
    Undefined (None) when any edge's source video has no view count, or when
    the classifiable edges' sources have no views at all."""
    return daily_frequencies([edges], likelihoods, source_views, threshold)[0][1]


def coverage(edges: EdgeColumns, likelihoods: LikelihoodMap) -> float:
    """Share of edges whose recommended video could be classified."""
    return daily_frequencies([edges], likelihoods, {})[0][2]


def apply_calibration(likelihoods: LikelihoodMap, curve) -> dict[str, Optional[float]]:
    """Map each likelihood to its calibration bin's empirical proportion.

    The optional calibrated frequency mode: instead of trusting the raw
    classifier likelihood as a weight, replace it with the measured share of
    truly positive videos at that score level. Likelihoods falling in a bin
    with no calibration data keep their raw value; unclassifiable entries stay
    unclassifiable.
    """
    bins = curve.bins
    out: dict[str, Optional[float]] = {}
    for vid, like in likelihoods.items():
        if like is None:
            out[vid] = None
            continue
        b = min(int(like * len(bins)), len(bins) - 1)
        proportion = bins[b].proportion
        out[vid] = proportion if proportion is not None else like
    return out


# ---------------------------------------------------------------------------
# Trend series and rolling average
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendPoint:
    date: dt.date
    raw: Optional[float]
    weighted: Optional[float]
    coverage: float


@dataclass(frozen=True)
class TrendSeries:
    points: tuple[TrendPoint, ...]

    def __post_init__(self):
        points = tuple(self.points)
        for prev, cur in zip(points, points[1:]):
            if cur.date <= prev.date:
                raise ValueError("trend dates must be strictly increasing")
        for p in points:
            for value in (p.raw, p.weighted):
                if value is not None and not 0.0 <= value <= 1.0:
                    raise ValueError(f"frequency {value} outside [0, 1] on {p.date}")
        object.__setattr__(self, "points", points)


def rolling_mean(
    rows: Sequence[tuple[dt.date, Optional[float]]], window_days: int = 7
) -> list[tuple[dt.date, Optional[float]]]:
    """Trailing mean over a calendar-day window including the current day.

    The window is truncated at the start of the series (the first output is
    the first value itself) and undefined values are excluded from both the
    numerator and the denominator. A day whose window holds no defined value
    stays undefined.
    """
    dates = [d for d, _ in rows]
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise ValueError("dates must be strictly increasing")
    out: list[tuple[dt.date, Optional[float]]] = []
    for i, (day, _) in enumerate(rows):
        start = day - dt.timedelta(days=window_days - 1)
        values = [v for d, v in rows[: i + 1] if d >= start and v is not None]
        out.append((day, sum(values) / len(values) if values else None))
    return out


# ---------------------------------------------------------------------------
# Calibration curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    n: int
    k: int
    proportion: Optional[float]
    ci_low: Optional[float]
    ci_high: Optional[float]

    def __post_init__(self):
        for name in ("proportion", "ci_low", "ci_high"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:  # NaN fails too
                raise ValueError(f"{name} {value} outside [0, 1]")


@dataclass(frozen=True)
class CalibrationCurve:
    bins: tuple[CalibrationBin, ...]


def calibration_curve(
    predictions: Sequence[float],
    labels: Sequence[int],
    bin_count: int = 10,
    alpha: float = 0.05,
) -> CalibrationCurve:
    """Empirical positive proportion per equal-width likelihood bin.

    Each prediction pairs with a binary human label. Bins partition [0, 1]
    without gaps or overlap; the last bin is closed at 1. Empty bins are
    emitted with n = 0 and undefined proportion.
    """
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must align")
    if not predictions:
        raise ValueError("nothing to calibrate")
    if bin_count < 1:
        raise ValueError("need at least one bin")
    ns = [0] * bin_count
    ks = [0] * bin_count
    for p, y in zip(predictions, labels):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"prediction {p} outside [0, 1]")
        if y not in (0, 1):
            raise ValueError(f"label {y} is not binary")
        b = min(int(p * bin_count), bin_count - 1)
        ns[b] += 1
        ks[b] += y
    bins = []
    for b in range(bin_count):
        lower, upper = b / bin_count, (b + 1) / bin_count
        if ns[b] == 0:
            bins.append(CalibrationBin(lower, upper, 0, 0, None, None, None))
        else:
            low, high = clopper_pearson(ks[b], ns[b], alpha)
            bins.append(CalibrationBin(lower, upper, ns[b], ks[b], ks[b] / ns[b], low, high))
    return CalibrationCurve(bins=tuple(bins))


# ---------------------------------------------------------------------------
# Filter-bubble conditional matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Period:
    start: dt.date
    end: dt.date  # inclusive

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"period ends {self.end} before it starts {self.start}")

    def __contains__(self, day: dt.date) -> bool:
        return self.start <= day <= self.end


@dataclass(frozen=True)
class FilterBubbleMatrix:
    periods: tuple[Period, ...]
    bin_count: int
    # cells[period_index][bin_index]; None marks an empty cell (rendered as a gap).
    cells: tuple[tuple[Optional[float], ...], ...]
    edge_counts: tuple[tuple[int, ...], ...]


def filter_bubble_matrix(
    edges: EdgeColumns,
    likelihoods: LikelihoodMap,
    periods: Sequence[Period],
    source_bins: int = 10,
    threshold: float = 0.5,
) -> FilterBubbleMatrix:
    """Conspiratorial-recommendation proportion conditioned on the source.

    Each cell is the raw frequency restricted to edges whose source-video
    likelihood falls in the bin and whose date falls in the period. Edges
    lacking a likelihood on either endpoint are excluded. An edge counts in
    every period that holds its date.
    """
    if source_bins < 1:
        raise ValueError("need at least one source bin")
    known, like = _lookup(edges.ids, likelihoods)
    both = known[edges.source] & known[edges.recommended]
    scaled = like[edges.source][both] * source_bins
    if not np.isfinite(scaled).all():  # a NaN or infinite source likelihood has no bin:
        int(scaled[~np.isfinite(scaled)][0])  # int() raises for the first, as it always has
    # A negative bin holds a likelihood below 0; no cell counts it.
    bins = np.clip(np.trunc(scaled), -1, source_bins - 1).astype(np.int64)
    rec_like = like[edges.recommended][both]
    dates = edges.date[both]
    cells = []
    counts = []
    for period in periods:
        cell = (dates >= period.start.toordinal()) & (dates <= period.end.toordinal()) & (bins >= 0)
        above = cell & (rec_like > threshold)
        count = np.bincount(bins[cell], minlength=source_bins)
        total = np.bincount(bins[above], weights=rec_like[above], minlength=source_bins)
        row_counts = count.tolist()
        cells.append(tuple(t / c if c else None for t, c in zip(total.tolist(), row_counts)))
        counts.append(tuple(row_counts))
    return FilterBubbleMatrix(
        periods=tuple(periods),
        bin_count=source_bins,
        cells=tuple(cells),
        edge_counts=tuple(counts),
    )
