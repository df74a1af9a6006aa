"""Effect estimation with one-sided lower confidence bounds.

All estimators are ordinary least squares with the classical homoskedastic
covariance (the generating process has homoskedastic Gaussian noise, so the
robust variant is a documented swap point, not a need).  The lower bound is
Wald-type with a standard normal quantile.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .frames import Frame

__all__ = [
    "EffectEstimate",
    "EstimationError",
    "adjusted_effect",
    "unadjusted_difference",
    "frontdoor_effect",
    "provenance_hash",
    "one_sided_z",
]

# Rank detection: an elimination pivot below this multiple of the largest
# diagonal of X'X marks the design singular.
_PIVOT_RTOL = 1e-10
_ZERO_VARIANCE_ATOL = 1e-24


class EstimationError(ValueError):
    """Estimation cannot proceed (singular design, positivity violation)."""


class DegenerateRegressorWarning(UserWarning):
    """A zero-variance adjustment column was dropped."""


@functools.lru_cache(maxsize=64)
def one_sided_z(alpha: float) -> float:
    """Standard normal quantile for a one-sided 1-alpha bound (memoized)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return float(ndtri(1.0 - alpha))


@dataclass(frozen=True)
class EffectEstimate:
    theta_hat: float
    std_err: float
    lcb: float
    alpha: float
    n: int
    adjustment_set: tuple[str, ...]


def _check_treatment(t: np.ndarray) -> None:
    treated = t == 1.0
    control = t == 0.0
    if not np.all(treated | control):
        raise EstimationError("treatment column must be binary 0/1")
    if treated.all() or control.all():
        raise EstimationError("positivity violation: only one treatment arm present")


def _pivot_rank_ok(xtx: np.ndarray) -> bool:
    # The pivots of Gaussian elimination without pivoting on the (tiny)
    # normal matrix are the squared diagonal of its Cholesky factor; a
    # failed factorization means a pivot at or below zero.
    tol = _PIVOT_RTOL * float(np.max(np.diag(xtx)))
    try:
        chol = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.diag(chol) ** 2 > tol))


def _fits(d: Frame) -> dict:
    """Successful fits on ``d``, keyed by (kind, set, alpha, treatment, outcome).

    Kept on the frame, like its digest, because the frame is immutable.  Only
    a fit that raised nothing and dropped no column is kept, so an error is
    raised, and a dropped column warned about, on every call.
    """
    return d.__dict__.setdefault("_fits", {})


def _ols_theta(y: np.ndarray, design: np.ndarray, coef_index: int, alpha: float,
               n: int, adjustment_set: tuple[str, ...]) -> EffectEstimate:
    xtx = design.T @ design
    if not _pivot_rank_ok(xtx):
        raise EstimationError("singular design matrix")
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    dof = n - design.shape[1]
    sigma2 = max(float(resid @ resid), 0.0) / dof
    cov = sigma2 * np.linalg.inv(xtx)
    var = max(float(cov[coef_index, coef_index]), 0.0)
    se = float(np.sqrt(var))
    theta = float(beta[coef_index])
    lcb = theta - one_sided_z(alpha) * se
    return EffectEstimate(theta_hat=theta, std_err=se, lcb=lcb, alpha=alpha,
                          n=n, adjustment_set=adjustment_set)


def adjusted_effect(d: Frame, adjustment_set, alpha: float = 0.05, *,
                    treatment_col: str = "T", outcome_col: str = "Y") -> EffectEstimate:
    """OLS of the outcome on [1, treatment, adjustment columns]; the
    treatment coefficient is the effect.

    Zero-variance adjustment columns are dropped with a warning rather than
    failing; constant covariates can arise at small row counts.  A fit that
    dropped nothing is kept on the frame and returned again (``_fits``).
    """
    requested = tuple(adjustment_set)
    key = ("backdoor", requested, alpha, treatment_col, outcome_col)
    known = _fits(d).get(key)
    if known is not None:
        return known
    t = d.column(treatment_col)
    y = d.column(outcome_col)
    _check_treatment(t)
    used: list[str] = []
    cols: list[np.ndarray] = []
    for name in requested:
        col = d.column(name)
        if float(np.var(col)) <= _ZERO_VARIANCE_ATOL:
            warnings.warn(
                f"dropping zero-variance adjustment column '{name}'",
                DegenerateRegressorWarning,
                stacklevel=2,
            )
            continue
        used.append(name)
        cols.append(col)
    n = d.n_rows
    if n <= len(used) + 2:
        raise EstimationError(
            f"need more than {len(used) + 2} rows to adjust for {len(used)} covariates"
        )
    design = np.column_stack([np.ones(n), t, *cols])
    est = _ols_theta(y, design, coef_index=1, alpha=alpha, n=n,
                     adjustment_set=tuple(used))
    if len(used) == len(requested):
        _fits(d)[key] = est
    return est


def unadjusted_difference(d: Frame, alpha: float = 0.05, *,
                          treatment_col: str = "T",
                          outcome_col: str = "Y") -> EffectEstimate:
    """Difference in arm means with a pooled-variance Wald standard error.

    Closed form; algebraically identical to ``adjusted_effect`` with an
    empty adjustment set.
    """
    t = d.column(treatment_col)
    y = d.column(outcome_col)
    _check_treatment(t)
    y1 = y[t == 1.0]
    y0 = y[t == 0.0]
    n1, n0 = y1.size, y0.size
    if n1 + n0 < 3:
        raise EstimationError("need at least 3 rows for a pooled-variance difference")
    delta = float(y1.mean() - y0.mean())
    rss = float(((y1 - y1.mean()) ** 2).sum() + ((y0 - y0.mean()) ** 2).sum())
    sigma2 = max(rss, 0.0) / (n1 + n0 - 2)
    se = float(np.sqrt(sigma2 * (1.0 / n1 + 1.0 / n0)))
    lcb = delta - one_sided_z(alpha) * se
    return EffectEstimate(theta_hat=delta, std_err=se, lcb=lcb, alpha=alpha,
                          n=n1 + n0, adjustment_set=())


def frontdoor_effect(d: Frame, mediator_set, alpha: float = 0.05, *,
                     treatment_col: str = "T", outcome_col: str = "Y") -> EffectEstimate:
    """Product-of-paths estimate through a single mediator.

    Two OLS stages: mediator on treatment, then outcome on mediator holding
    treatment fixed.  The standard error comes from the delta method.  Only
    single-mediator sets are supported; larger sets raise so callers can
    refuse conservatively.  A successful fit is kept on the frame (``_fits``).
    """
    mediators = tuple(mediator_set)
    if len(mediators) != 1:
        raise EstimationError("frontdoor estimation supports exactly one mediator")
    key = ("frontdoor", mediators, alpha, treatment_col, outcome_col)
    known = _fits(d).get(key)
    if known is not None:
        return known
    t = d.column(treatment_col)
    y = d.column(outcome_col)
    m = d.column(mediators[0])
    _check_treatment(t)
    n = d.n_rows
    if n <= 4:
        raise EstimationError("too few rows for the two-stage frontdoor fit")
    stage1 = _ols_theta(m, np.column_stack([np.ones(n), t]), 1, alpha, n, ())
    stage2 = _ols_theta(y, np.column_stack([np.ones(n), m, t]), 1, alpha, n, ())
    a, b = stage1.theta_hat, stage2.theta_hat
    var = b * b * stage1.std_err**2 + a * a * stage2.std_err**2
    se = float(np.sqrt(max(var, 0.0)))
    theta = float(a * b)
    est = EffectEstimate(theta_hat=theta, std_err=se,
                         lcb=theta - one_sided_z(alpha) * se,
                         alpha=alpha, n=n, adjustment_set=mediators)
    _fits(d)[key] = est
    return est


def provenance_hash(d: Frame) -> str:
    """SHA-256 of the row-ordered canonical serialization, lowercase hex.

    The digest is cached on the frame, so each frame is serialized once.
    """
    return d.sha256()
