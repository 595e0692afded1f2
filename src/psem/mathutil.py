"""Numerics shared by the estimators.

Contains the logistic function, a normal CDF built on the stdlib complementary
error function (absolute error well below 1e-12, no external dependency),
memoized quantiles by bisection, elementwise checks over array computations
with the copy (``fresh``) by which a stored failure raises, the closed-form
two-component logit-offset mixture solve used by all selection-bias models,
and a two-sided Fisher exact test by hypergeometric enumeration.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import Callable

import numpy as np

from .errors import IncompatibleSensitivityError, PsemError


def expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of an increasing f on [lo, hi] by plain bisection: the bracket
    halves until narrower than ``tol``, then its midpoint is returned."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def norm_quantile(q: float) -> float:
    """Inverse standard normal CDF by bisection on norm_cdf to a bracket of
    1e-12, memoized: a pure function of q, and intervals ask for the same few."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile requires q in (0,1), got {q}")
    return bisect(lambda x: norm_cdf(x) - q, -40.0, 40.0, 1e-12)


class Checks:
    """Checks over the elements of an array computation.

    Without a ``shape`` (one point), a failed check raises at once. With
    one, the object array ``failed`` of that shape keeps each element's first
    failure (else None), built once (later checks skip the element), and the
    computation carries on; its caller reads ``failed`` afterwards.
    """

    def __init__(self, shape: tuple[int, ...] | None = None):
        self.failed = None if shape is None else np.full(shape, None, dtype=object)

    def ok(self) -> np.ndarray:
        """Which elements no check failed."""
        return np.equal(self.failed, None)

    def __call__(self, bad, error: type[PsemError], message: Callable[..., str],
                 *values) -> None:
        """Fail each element where ``bad`` holds with
        ``error(message(*values))``, at that element's values."""
        if not (bad.any() if isinstance(bad, np.ndarray) else bad):
            return
        shape = np.shape(bad) if self.failed is None else self.failed.shape
        new = np.broadcast_to(bad, shape) & (self.failed is None or self.ok())
        cols = [np.broadcast_to(v, shape)[new].tolist() for v in values]
        for k, i in enumerate(np.flatnonzero(new).tolist()):
            exc = error(message(*(float(c[k]) for c in cols)))
            if self.failed is None:
                raise exc
            self.failed.flat[i] = exc


def fresh(error: Exception) -> Exception:
    """A copy of a stored failure to raise in its place: raised itself, it would
    gather every raise's frames and take its context from the raising handler."""
    return copy.copy(error)


def _mixture_root(t, w, k, sqrt_disc):
    """The root in (0, 1) of A x^2 + B x - t with A = (1 - w) k and
    B = 1 + k (w - t), in the form free of cancellation."""
    a, b = (1.0 - w) * k, 1.0 + k * (w - t)
    return np.where(b >= 0.0, 2.0 * t / (b + sqrt_disc), (sqrt_disc - b) / (2.0 * a))


_LOGIT_BOUND = 45.0
_EXPIT_LOW = expit(-_LOGIT_BOUND)


def solve_logit_mixture(target, w1, delta, checks: Checks | None = None):
    """Solve logit(p1) = logit(p2) + delta, w1*p1 + (1-w1)*p2 = target, elementwise.

    Every selection-bias constraint here has this shape: a 2x2 table with
    given margins and odds ratio, which has a closed form (Plackett, 1965).
    With k = expm1(delta), A = (1 - w1) k and B = 1 + k (w1 - target), p2
    is the root of A p2^2 + B p2 - target and p1 = exp(delta) p2 /
    (1 - p2 + exp(delta) p2). The quadratic is -target at 0 and
    (1 + k)(1 - target) at 1, so exactly one root lies in (0, 1) for any
    w1, also w1 > 1 (reversed-ordering data).

    Targets 0 and 1 return (target, target), and w1 = 0 and w1 = 1 the
    identified member; these and delta = 0 are exact, without range check. A
    target outside [0, 1], or any other root whose logit lies outside
    [-45, 45], fails its element with IncompatibleSensitivityError through
    ``checks`` (default: raise). Returns (p1, p2); failed elements hold no
    meaningful value.
    """
    checks = checks or Checks()
    t, w = np.asarray(target, dtype=float)[()], np.asarray(w1, dtype=float)[()]
    checks(t < 0.0, IncompatibleSensitivityError, lambda v: f"mixture target {v} < 0", t)
    checks(t > 1.0, IncompatibleSensitivityError, lambda v: f"mixture target {v} > 1", t)
    edge = (t <= 0.0) | (t >= 1.0)
    with np.errstate(all="ignore"):
        eb, k, kc = np.exp(delta), np.expm1(delta), np.expm1(-delta)
        # 1 - p2 is the same root of the complement problem (1 - target, w1,
        # -delta), whose discriminant is exp(-2 delta) times this one. As
        # (k (w1 - t) - 1)^2 + 4 k w1 (1 - t), a discriminant is a sum of
        # nonnegative terms where its k >= 0: take each from that problem.
        d, dc = (np.sqrt(np.square(kk * (w - tt) - 1.0) + 4.0 * kk * w * (1.0 - tt))
                 for kk, tt in ((k, t), (kc, 1.0 - t)))
        p2 = _mixture_root(t, w, k, np.where(k >= 0.0, d, eb * dc))
        q2 = _mixture_root(1.0 - t, w, kc, np.where(k >= 0.0, d / eb, dc))
        # each root is accurate relative to itself: keep the smaller one
        near_one = p2 > q2
        p2, q2 = np.where(near_one, 1.0 - q2, p2), np.where(near_one, q2, 1.0 - p2)
        exact = edge | (w == 0.0)
        p2, q2 = np.where(exact, t, p2), np.where(exact, 1.0 - t, q2)
        p1 = np.where(w == 1.0, t, eb * p2 / (q2 + eb * p2))
    # logit(p2) = log(p2 / q2) is in [-45, 45] iff neither is below expit(-45)
    inside = (p2 >= _EXPIT_LOW) & (q2 >= _EXPIT_LOW) & np.isfinite(p1)
    checks(~(inside | edge | (w == 0.0) | (w == 1.0) | (k == 0.0)),
           IncompatibleSensitivityError,
           lambda: f"no sign change of the constraint on [{-_LOGIT_BOUND}, "
           f"{_LOGIT_BOUND}]; sensitivity parameters are incompatible with the data")
    return p1[()], p2[()]


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _walk(logp, start: int, step: int, count: int) -> np.ndarray:
    """``logp`` of the tables start, start + step, ... (``count`` of them), 1024
    at a time, up to and including the first whose exp() underflows (<= -800)."""
    lp = np.empty(0)
    for d in range(0, count, 1024):
        lp = np.concatenate((lp, logp(start + step * np.arange(d, min(d + 1024, count)))))
        if (under := np.flatnonzero(lp <= -800.0)).size:
            return lp[:under[0] + 1]
    return lp


def fisher_exact_two_sided(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p for the 2x2 table [[a, b], [c, d]].

    Point-probability method: sum hypergeometric probabilities of all
    tables (same margins) no more probable than the observed one. Each
    ``math.lgamma`` argument is evaluated once per call, in aligned blocks of 64,
    and combined as in ``_log_comb``, so every probability keeps its bits."""
    for v in (a, b, c, d):
        if v < 0:
            raise ValueError("table entries must be nonnegative")
    row1, row2 = a + b, c + d
    col1 = a + c
    n = row1 + row2
    if n == 0:
        return 1.0
    lo = max(0, col1 - row2)
    hi = min(col1, row1)
    blocks = {}     # j -> math.lgamma of the integers 64 j + 1, ..., 64 j + 64

    def lgamma(x):  # of a run of integers >= 1, each evaluated once per call
        i = np.asarray(x) - 1
        run = range(int(i.min()) // 64, int(i.max()) // 64 + 1)
        for j in set(run) - blocks.keys():
            blocks[j] = np.fromiter(map(math.lgamma, range(64 * j + 1, 64 * j + 65)), float, 64)
        return np.concatenate([blocks[j] for j in run])[i - 64 * run.start]

    denom = lgamma(n + 1) - lgamma(col1 + 1) - lgamma(n - col1 + 1)    # _log_comb(n, col1)

    def logp(k):    # _log_comb(row1, k) + _log_comb(row2, col1 - k) - denom, per k
        g1, g2, g3, g4 = map(lgamma, (k + 1, row1 - k + 1, col1 - k + 1, row2 - col1 + k + 1))
        return ((lgamma(row1 + 1) - g1 - g2) + (lgamma(row2 + 1) - g3 - g4)) - denom

    # the pmf is log-concave: walk out from its mode until exp() underflows
    # to 0.0 (below about -745), so the terms left out would add nothing
    mode = min(max((row1 + 1) * (col1 + 1) // (n + 2), lo), hi)
    down = _walk(logp, mode - 1, -1, mode - lo)
    lp = np.concatenate((down[::-1], _walk(logp, mode, 1, hi - mode + 1)))
    i = a - mode + len(down)
    if not 0 <= i < len(lp):
        return 0.0      # the observed table's own probability underflows
    # tolerance absorbs round-off among tables of exactly equal probability
    total = sum(map(math.exp, lp[lp <= lp[i] + 1e-9].tolist()))
    return min(1.0, total)
