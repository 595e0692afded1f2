"""Scalar numerics shared by the estimators.

Contains the logistic link, a normal CDF built on the stdlib complementary
error function (absolute error well below 1e-12, no external dependency),
quantiles by bisection, a safeguarded scalar root finder, the two-component
logit-offset mixture solve used by all selection-bias models, and a
two-sided Fisher exact test by hypergeometric enumeration.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, IncompatibleSensitivityError


def expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires p in (0,1), got {p}")
    return math.log(p / (1.0 - p))


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


def norm_quantile(q: float, tol: float = 1e-12) -> float:
    """Inverse standard normal CDF by bisection on norm_cdf."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile requires q in (0,1), got {q}")
    return bisect(lambda x: norm_cdf(x) - q, -40.0, 40.0, tol)


def solve_bracketed(f, lo: float, hi: float, tol: float = 1e-14,
                    max_iter: int = 200, scan: int = 64):
    """Root of f on [lo, hi]: bisection safeguarded by Newton (secant) steps.

    If f(lo) and f(hi) share a sign, the interval is scanned for a sign
    change first; failure to bracket raises IncompatibleSensitivityError,
    since in this package all scalar solves encode sensitivity-model
    constraints whose non-solvability signals parameter/data conflict.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        grid = [lo + (hi - lo) * k / scan for k in range(scan + 1)]
        vals = [f(x) for x in grid]
        for k in range(scan):
            if vals[k] == 0.0:
                return grid[k]
            if vals[k] * vals[k + 1] < 0.0:
                lo, hi, flo, fhi = grid[k], grid[k + 1], vals[k], vals[k + 1]
                break
        else:
            raise IncompatibleSensitivityError(
                f"no sign change of the constraint on [{lo}, {hi}]; "
                "sensitivity parameters are incompatible with the data")
    x_prev, f_prev = lo, flo
    x_cur, f_cur = hi, fhi
    for _ in range(max_iter):
        # secant proposal, safeguarded to remain inside the bracket
        denom = f_cur - f_prev
        if denom != 0.0:
            x_new = x_cur - f_cur * (x_cur - x_prev) / denom
        else:
            x_new = 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        f_new = f(x_new)
        if f_new == 0.0 or (hi - lo) < tol:
            return x_new
        if flo * f_new < 0.0:
            hi, fhi = x_new, f_new
        else:
            lo, flo = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
    raise ConvergenceError(
        f"scalar solve did not converge: bracket [{lo}, {hi}], |f|={abs(f_cur):.3e}",
        theta=x_cur, residual=abs(f_cur))


def solve_logit_mixture(target: float, w1: float, delta: float,
                        bound: float = 45.0) -> tuple[float, float]:
    """Solve the pair  logit(p1) = logit(p2) + delta,  w1*p1 + (1-w1)*p2 = target.

    This is the common shape of every selection-bias constraint here: an
    odds-ratio link between two probabilities plus a known mixture of them.
    For w1 in [0,1] the mixture is strictly increasing in logit(p2) so the
    root is unique; w1 slightly outside [0,1] (reversed-ordering data) is
    tolerated via the safeguarded bracketed solve.

    Returns (p1, p2). Degenerate targets 0 and 1 return (target, target).
    """
    if target <= 0.0:
        if target < 0.0:
            raise IncompatibleSensitivityError(f"mixture target {target} < 0")
        return 0.0, 0.0
    if target >= 1.0:
        if target > 1.0:
            raise IncompatibleSensitivityError(f"mixture target {target} > 1")
        return 1.0, 1.0
    if delta == 0.0:
        return target, target
    if w1 == 0.0:
        return expit(logit(target) + delta), target
    if w1 == 1.0:
        return target, expit(logit(target) - delta)

    def f(u):
        return w1 * expit(u + delta) + (1.0 - w1) * expit(u) - target

    u = solve_bracketed(f, -bound, bound)
    return expit(u + delta), expit(u)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact_two_sided(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p for the 2x2 table [[a, b], [c, d]].

    Point-probability method: sum hypergeometric probabilities of all
    tables (same margins) no more probable than the observed one.
    """
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
    denom = _log_comb(n, col1)
    # the pmf is log-concave: walk out from its mode until exp() underflows
    # to 0.0 (below about -745), so the terms left out would add nothing
    logp = {}
    mode = min(max((row1 + 1) * (col1 + 1) // (n + 2), lo), hi)
    for ks in (range(mode, hi + 1), range(mode - 1, lo - 1, -1)):
        for k in ks:
            logp[k] = _log_comb(row1, k) + _log_comb(row2, col1 - k) - denom
            if logp[k] <= -800.0:
                break
    if a not in logp:
        return 0.0      # the observed table's own probability underflows
    # tolerance absorbs round-off among tables of exactly equal probability
    total = sum(math.exp(logp[k]) for k in sorted(logp) if logp[k] <= logp[a] + 1e-9)
    return min(1.0, total)
