"""Effect estimation with one-sided lower confidence bounds.

All estimators are ordinary least squares with the classical homoskedastic
covariance, so the bound assumes one noise variance for every row.  The
benchmark's generating process draws every row's noise with one variance;
data whose arms differ in noise break the assumption.  With unbalanced arms
and a noisier minority arm, the one-sided bound misses up to 3.7 times as
often as alpha allows (ROADMAP item 3, a robust bound).  The lower bound is
Wald-type with a standard normal quantile, computed by a port of the
Cephes Math Library's ``ndtri`` (Stephen L. Moshier), the routine that
``scipy.special.ndtri`` compiles: same coefficients, same Horner and
operation order, so the same bits, without importing scipy.

Two guards of the backdoor fit only decide a boolean, and decide it from
Python scalars where they can.  A zero-variance adjustment column is
dropped when ``np.var(col) <= 1e-24``.  For any two entries a and b of an
n-row column, (a - c)**2 + (b - c)**2 >= (a - b)**2 / 2 whatever mean c is
subtracted, so the variance is at least (a - b)**2 / (2n); each rounding in
``np.var`` is relative, of order eps, so the computed value stays above
(a - b)**2 / (4n).  So (a - b)**2 > 8 * n * 1e-24 proves from the first two
entries that the column stays, and ``np.var`` runs only when that proof
fails: the decision is the one ``np.var`` gives.  The entries are Python
floats, so an overflowing difference is ``inf`` and not a numpy warning
(the column stays, as it does when ``np.var`` overflows to inf or NaN), and
a NaN fails the proof.  The rank test compares each squared diagonal entry
of the Cholesky factor with the same column's diagonal entry of X'X as
Python floats, which is the comparison numpy makes (``x ** 2`` is
``x * x``).

The fit calls LAPACK through numpy's own gufuncs (``cholesky_lo`` for the
rank test, ``lstsq`` and ``inv`` from ``numpy.linalg._umath_linalg``) with
the arguments that ``np.linalg.cholesky``, ``np.linalg.lstsq(rcond=None)``
and ``np.linalg.inv`` pass them: the same signatures, ``rcond`` and
right-hand-side shape, so the same bits, without the wrappers' per-call
type checks and error-state contexts: a fit enters one, ``_QUIET``, and the
rank test runs under it.  It needs numpy 2.0 or later, whose least squares
is one gufunc.  A factorization or solve that fails comes back as NaN
rather than as ``LinAlgError``: the rank test then finds the design
singular, and a NaN estimate or bound fails rule 3's finiteness check, so
the gate abstains.

Rule 3 needs the exact lcb only to back an EXECUTE: a refusal needs only the
sign of lcb - tau_u and the six digits its reason prints.  So the backdoor
fit has a second end, ``adjusted_effect_bound``, that shares the fit's
front (the column reads, the treatment check, the zero-variance drops and
their warnings, the design, X'X, the rank test and inv(X'X)) and bounds the
exact lcb by [lo, hi] from the normal equations: b~ = inv(X'X) X'y, its
residual r~, and the lcb they give, widened by a margin.  The margin is
first-order error analysis (Higham 2002, *Accuracy and Stability of
Numerical Algorithms*, ch. 14 and 20).  Let u be the unit roundoff,
e = n p u, k = trace(X'X) |inv(X'X)|_F, which is at least
cond2(X'X) = cond2(X)**2, and S = |inv(X'X)|_F |X'y| + |r~| / sqrt(trace).
- LAPACK's least squares is backward stable with an error of order e, so its
  solution is within e (cond2(X) |b| + cond2(X)**2 |r| / |X|_2) of the exact
  least-squares solution b, which is at most e k S to first order
  (|b| <= |inv(X'X)|_F |X'y|, and cond2(X)**2 / |X|_2 <= k / sqrt(trace)).
  Forming X'X and X'y costs n u each, and a product with an explicit
  inverse is accurate to about p u cond2(X'X) |inv(X'X)| |X'y|, so b~ is
  within e k S too.  The two treatment coefficients differ by at most
  2 e k S.
- The residual norms differ by at most |X|_2 times the solutions' distance,
  plus the roundings of both residuals and sums of squares: 4 e k sqrt(trace)
  S in all.  The standard errors share inv(X'X)[1, 1], so they differ by that
  times q = sqrt(inv(X'X)[1, 1] / (n - p)).  The last products and the
  difference add e k S (1 + |z| q sqrt(trace)).
- So the two lcbs differ by at most e k S (3 + 5 |z| q sqrt(trace)).  The
  margin is ten times that.  Where the first-order premise fails
  (10 e k >= 1), or a quantity is not finite, the bound is the whole line.

On the default run (seeds 42-48) the margin was at least 32,000 times the
distance between the bound's centre and the exact lcb, and at most 1.8e-7;
the bound settles every refusal whose six printed digits it does not
straddle.  A refusal may rest on the bound because it carries no
certificate and its text is proved to be the exact path's: an error in the
bound could cost an EXECUTE, never cause one.  An EXECUTE rests on LAPACK's
least squares alone: its certificate holds those floats, and replay, which
runs rule 3 again, compares them; no certificate holds a number of the bound.
A query keeps one entry on the frame: its bound, until the exact estimate
overwrites it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .frames import Frame

__all__ = [
    "EffectEstimate",
    "EstimationError",
    "LcbBound",
    "adjusted_effect",
    "adjusted_effect_bound",
    "unadjusted_difference",
    "frontdoor_effect",
    "provenance_hash",
    "one_sided_z",
]

# Rank detection: an elimination pivot below this multiple of its own
# column's diagonal of X'X marks the design singular.  Their ratio is
# 1 - R**2 of that column on the columns before it, which no column's scale
# changes.
_PIVOT_RTOL = 1e-10
_ZERO_VARIANCE_ATOL = 1e-24
_EPS = float(np.finfo(np.float64).eps)
_UNIT_ROUNDOFF = _EPS / 2
# The bound's margin over its first-order error terms (module docstring).
_HEADROOM = 10.0


class EstimationError(ValueError):
    """Estimation cannot proceed (singular design, positivity violation)."""


class DegenerateRegressorWarning(UserWarning):
    """A zero-variance adjustment column was dropped."""


# Cephes ndtri coefficients, highest power first.  P0/Q0 cover the central
# region |y - 0.5| <= 0.5 - exp(-2); P1/Q1 the tail with x = sqrt(-2 log y)
# in [2, 8); P2/Q2 the tail with x >= 8.  Cephes evaluates Q0-Q2 with
# p1evl, which takes their leading 1 as given; 1.0 * x + c is x + c exactly.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, in Cephes' order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF for ``0 <= y0 <= 1`` (Cephes)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


@functools.lru_cache(maxsize=64)
def one_sided_z(alpha: float) -> float:
    """Standard normal quantile for a one-sided 1-alpha bound (memoized)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return _ndtri(1.0 - alpha)


@dataclass(frozen=True, slots=True)
class EffectEstimate:
    theta_hat: float
    std_err: float
    lcb: float
    alpha: float
    n: int
    adjustment_set: tuple[str, ...]


def _check_treatment(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The treated and control masks of a binary 0/1 column with both arms."""
    treated, control = t == 1.0, t == 0.0
    n_treated = np.count_nonzero(treated)
    n_control = np.count_nonzero(control)
    if n_treated + n_control != t.size:
        raise EstimationError("treatment column must be binary 0/1")
    if not n_treated or not n_control:
        raise EstimationError("positivity violation: only one treatment arm present")
    return treated, control


def _pivot_rank_ok(xtx: np.ndarray) -> bool:
    # The pivots of Gaussian elimination without pivoting on the (tiny)
    # normal matrix are the squared diagonal of its Cholesky factor; a
    # failed factorization is all NaN, so no pivot clears the tolerance.
    # The diagonals are compared as Python floats: ``p * p`` is the
    # ``p ** 2`` numpy computes.  It runs under its caller's ``_QUIET``.
    chol = _lapack.cholesky_lo(xtx, signature="d->d")
    return all(p * p > _PIVOT_RTOL * d
               for p, d in zip(chol.diagonal().tolist(), xtx.diagonal().tolist()))


def _zero_variance(col: np.ndarray) -> bool:
    """``np.var(col) <= 1e-24``, proved false from the first two entries
    where the module docstring's bound allows, without the array pass."""
    n = col.shape[0]
    if n >= 2:
        a, b = col[:2].tolist()
        d = a - b
        if d * d > 8.0 * n * _ZERO_VARIANCE_ATOL:
            return False
    return float(col.var()) <= _ZERO_VARIANCE_ATOL


def _fits(d: Frame) -> dict:
    """Successful fits on ``d``, keyed by the kind and the arguments of the fit.

    Kept in the frame's declared ``_fits`` field, made on the first fit, like
    its digest, because the frame is immutable.  Only a fit that raised
    nothing and dropped no column is kept, so an error is raised, and a
    dropped column warned about, on every call.  A backdoor query's one
    entry holds its bound until the exact estimate overwrites it.
    """
    fits = d._fits
    if fits is None:
        fits = {}
        object.__setattr__(d, "_fits", fits)
    return fits


def _design(n: int, *cols: np.ndarray) -> np.ndarray:
    """The C-ordered design [1, *cols] that ``np.column_stack`` would build."""
    design = np.empty((n, 1 + len(cols)))
    design[:, 0] = 1.0
    for j, col in enumerate(cols, 1):
        design[:, j] = col
    return design


# Data near the float maximum overflow the products; the estimate or bound is
# then not finite, and the gate refuses it.
_QUIET = dict(invalid="ignore", divide="ignore", over="ignore")


def _normal_equations(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X'X and its inverse, once the rank test has passed the design."""
    xtx = design.T @ design
    if not _pivot_rank_ok(xtx):
        raise EstimationError("singular design matrix")
    return xtx, _lapack.inv(xtx, signature="d->d")


def _exact_fit(y: np.ndarray, design: np.ndarray, xtx_inv: np.ndarray, coef_index: int,
               alpha: float, n: int, adjustment_set: tuple[str, ...]) -> EffectEstimate:
    """LAPACK's least squares, and the covariance from the front's inverse
    (called under ``_QUIET``)."""
    p = design.shape[1]
    solution = _lapack.lstsq(design, y[:, None], _EPS * max(n, p), signature="ddd->ddid")[0]
    beta = solution[:, 0]
    resid = y - design @ beta
    rss = float(resid @ resid)
    sigma2 = max(rss, 0.0) / (n - p)
    # Only one entry of the covariance sigma2 * inv(X'X) is needed.
    var = max(sigma2 * float(xtx_inv[coef_index, coef_index]), 0.0)
    se = math.sqrt(var)
    theta = float(beta[coef_index])
    lcb = theta - one_sided_z(alpha) * se
    return EffectEstimate(theta_hat=theta, std_err=se, lcb=lcb, alpha=alpha,
                          n=n, adjustment_set=adjustment_set)


def _ols_theta(y: np.ndarray, design: np.ndarray, coef_index: int, alpha: float,
               n: int, adjustment_set: tuple[str, ...]) -> EffectEstimate:
    with np.errstate(**_QUIET):
        _, xtx_inv = _normal_equations(design)
        return _exact_fit(y, design, xtx_inv, coef_index, alpha, n, adjustment_set)


class LcbBound(NamedTuple):
    """An interval that holds a backdoor fit's exact one-sided bound, with the
    fit's row count and the adjustment columns it used.  It is (-inf, inf)
    where no finite interval is certified.  Rule 3 may refuse on it; only
    the exact fit may back an EXECUTE."""

    lo: float
    hi: float
    n: int
    adjustment_set: tuple[str, ...]

    @classmethod
    def of(cls, est: EffectEstimate) -> LcbBound:
        """An exact fit's bound: zero-width, or the whole line if not finite."""
        lcb = est.lcb
        if math.isfinite(lcb):
            return cls(lcb, lcb, est.n, est.adjustment_set)
        return cls(-math.inf, math.inf, est.n, est.adjustment_set)


def _lcb_bound(y: np.ndarray, design: np.ndarray, xtx: np.ndarray, xtx_inv: np.ndarray,
               alpha: float, n: int, adjustment_set: tuple[str, ...]) -> LcbBound:
    """The normal-equation bound on the treatment coefficient's lcb, called
    under ``_QUIET`` (the module docstring derives the margin)."""
    p = design.shape[1]
    xty = design.T @ y
    beta = xtx_inv @ xty
    resid = y - design @ beta
    rho = math.sqrt(float(resid @ resid))
    inv_norm = math.sqrt(float(np.vdot(xtx_inv, xtx_inv)))
    xty_norm = math.hypot(*xty.tolist())
    trace = sum(xtx.diagonal().tolist())
    c11 = float(xtx_inv[1, 1])
    if not c11 > 0.0:  # also NaN; its square root is taken below
        return LcbBound(-math.inf, math.inf, n, adjustment_set)
    z = one_sided_z(alpha)
    q = math.sqrt(c11 / (n - p))
    root_trace = math.sqrt(trace)
    lcb = float(beta[1]) - z * (rho * q)
    eps_kappa = n * p * _UNIT_ROUNDOFF * trace * inv_norm
    scale = inv_norm * xty_norm + rho / root_trace
    margin = _HEADROOM * eps_kappa * scale * (3.0 + 5.0 * abs(z) * q * root_trace)
    if not (_HEADROOM * eps_kappa < 1.0 and math.isfinite(lcb) and math.isfinite(margin)):
        return LcbBound(-math.inf, math.inf, n, adjustment_set)
    return LcbBound(lcb - margin, lcb + margin, n, adjustment_set)


def _backdoor_design(d: Frame, requested: tuple[str, ...], treatment_col: str,
                     outcome_col: str) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The outcome, the design [1, treatment, adjustment columns] and the
    columns kept, after the treatment check and the zero-variance drops."""
    t = d.column(treatment_col)
    y = d.column(outcome_col)
    _check_treatment(t)
    used: list[str] = []
    cols: list[np.ndarray] = []
    for name in requested:
        col = d.column(name)
        if _zero_variance(col):
            warnings.warn(
                f"dropping zero-variance adjustment column '{name}'",
                DegenerateRegressorWarning,
                stacklevel=3,
            )
            continue
        used.append(name)
        cols.append(col)
    n = d.n_rows
    if n <= len(used) + 2:
        raise EstimationError(
            f"need more than {len(used) + 2} rows to adjust for {len(used)} covariates"
        )
    return y, _design(n, t, *cols), tuple(used)


def adjusted_effect(d: Frame, adjustment_set, alpha: float = 0.05, *,
                    treatment_col: str = "T", outcome_col: str = "Y") -> EffectEstimate:
    """OLS of the outcome on [1, treatment, adjustment columns]; the
    treatment coefficient is the effect.

    Zero-variance adjustment columns are dropped with a warning rather than
    failing; constant covariates can arise at small row counts.  A fit that
    dropped nothing is kept on the frame and returned again (``_fits``); a
    bound kept under the same key is not an answer, and the fit overwrites it.
    """
    requested = tuple(adjustment_set)
    key = ("backdoor", requested, alpha, treatment_col, outcome_col)
    known = _fits(d).get(key)
    if isinstance(known, EffectEstimate):
        return known
    y, design, used = _backdoor_design(d, requested, treatment_col, outcome_col)
    est = _ols_theta(y, design, coef_index=1, alpha=alpha, n=d.n_rows, adjustment_set=used)
    if len(used) == len(requested):
        _fits(d)[key] = est
    return est


def adjusted_effect_bound(d: Frame, adjustment_set, alpha: float = 0.05, *,
                          treatment_col: str = "T", outcome_col: str = "Y",
                          ) -> tuple[LcbBound, Callable[[], EffectEstimate]]:
    """A certified bound on ``adjusted_effect``'s lcb, and a function that
    returns ``adjusted_effect``'s estimate itself.

    Both share the fit's front: the same reads, checks, drops and warnings,
    and so the same errors.  The query's one entry on the frame, under
    ``adjusted_effect``'s key, holds a bound that dropped no column until
    the exact estimate overwrites it; a kept estimate answers as its
    zero-width bound.  On a kept entry the function is ``adjusted_effect``;
    otherwise it finishes the fit from the front's design and inverse.
    """
    requested = tuple(adjustment_set)
    key = ("backdoor", requested, alpha, treatment_col, outcome_col)
    fits = _fits(d)
    known = fits.get(key)
    if known is not None:
        bound = LcbBound.of(known) if isinstance(known, EffectEstimate) else known
        return bound, functools.partial(adjusted_effect, d, requested, alpha,
                                        treatment_col=treatment_col, outcome_col=outcome_col)
    y, design, used = _backdoor_design(d, requested, treatment_col, outcome_col)
    n = d.n_rows
    with np.errstate(**_QUIET):
        xtx, xtx_inv = _normal_equations(design)
        bound = _lcb_bound(y, design, xtx, xtx_inv, alpha, n, used)
    kept = fits if len(used) == len(requested) else {}
    kept[key] = bound

    def exact() -> EffectEstimate:
        with np.errstate(**_QUIET):
            kept[key] = est = _exact_fit(y, design, xtx_inv, 1, alpha, n, used)
        return est

    return bound, exact


def unadjusted_difference(d: Frame, alpha: float = 0.05, *,
                          treatment_col: str = "T",
                          outcome_col: str = "Y") -> EffectEstimate:
    """Difference in arm means with a pooled-variance Wald standard error.

    Closed form; algebraically identical to ``adjusted_effect`` with an
    empty adjustment set.  A successful estimate is kept on the frame
    (``_fits``).
    """
    key = ("difference", alpha, treatment_col, outcome_col)
    known = _fits(d).get(key)
    if known is not None:
        return known
    t = d.column(treatment_col)
    y = d.column(outcome_col)
    treated, control = _check_treatment(t)
    y1 = y[treated]
    y0 = y[control]
    n1, n0 = y1.size, y0.size
    if n1 + n0 < 3:
        raise EstimationError("need at least 3 rows for a pooled-variance difference")
    mean1, mean0 = y1.mean(), y0.mean()
    delta = float(mean1 - mean0)
    with np.errstate(**_QUIET):
        rss = float(((y1 - mean1) ** 2).sum() + ((y0 - mean0) ** 2).sum())
    sigma2 = max(rss, 0.0) / (n1 + n0 - 2)
    se = float(np.sqrt(sigma2 * (1.0 / n1 + 1.0 / n0)))
    lcb = delta - one_sided_z(alpha) * se
    est = EffectEstimate(theta_hat=delta, std_err=se, lcb=lcb, alpha=alpha,
                         n=n1 + n0, adjustment_set=())
    _fits(d)[key] = est
    return est


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
    stage1 = _ols_theta(m, _design(n, t), 1, alpha, n, ())
    stage2 = _ols_theta(y, _design(n, m, t), 1, alpha, n, ())
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
