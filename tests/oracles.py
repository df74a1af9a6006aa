"""Independent test-side oracles.

These deliberately avoid the library's algorithms: d-separation by exhaustive
simple-path enumeration, identification by subset scan over that enumeration,
least squares by solving the normal equations, bootstrap intervals by a
hand-rolled resampler, canonical text written value by value with ``repr`` and parsed
value by value with ``float``,
the rank test by Gaussian elimination.  ``line_parse`` and
``reference_adjusted_effect`` are the canonical parser and the backdoor OLS
fit as they were before their passes and copies were cut; the library must
refuse with their messages and fit to their bits.  ``linalg_ols_theta`` is
the OLS kernel as it was when it called ``np.linalg``'s wrappers rather
than LAPACK's gufuncs.  They exist so the fast implementations have something
slower and dumber to agree with.  ``wilcoxon_rankdata_oracle`` is the
signed-rank test as it was when it ranked with ``scipy.stats.rankdata``,
which the library no longer imports.  ``unchecked`` sets an action frame's
fields past its constructor's checks, as a frame set by hand or unpickled
holds them.
"""

from __future__ import annotations

import copy
import itertools
import math
import warnings

import numpy as np
import orjson
from scipy.stats import rankdata

from civex.estimation import (
    DegenerateRegressorWarning,
    EffectEstimate,
    EstimationError,
    one_sided_z,
)
from civex.frames import Frame, FrameError
from civex.graphs import CausalGraph, IdentificationKind


def expanded_adjacency(g: CausalGraph):
    """Directed adjacency with bidirected edges replaced by latent parents."""
    parents = {n: set() for n in g.nodes}
    children = {n: set() for n in g.nodes}
    for a, b in g.directed_edges:
        children[a].add(b)
        parents[b].add(a)
    for i, (a, b) in enumerate(sorted(g.bidirected_edges)):
        latent = f"latentvar{i}"
        parents[latent] = set()
        children[latent] = {a, b}
        parents[a].add(latent)
        parents[b].add(latent)
    return parents, children


def _descendants(children, node):
    out = set()
    stack = [node]
    while stack:
        for c in children[stack.pop()]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _simple_paths(parents, children, src, dst):
    """All simple undirected paths as node sequences."""
    neighbors = {n: parents[n] | children[n] for n in parents}
    paths = []
    stack = [(src, [src])]
    while stack:
        node, path = stack.pop()
        for nxt in sorted(neighbors[node]):
            if nxt in path:
                continue
            if nxt == dst:
                paths.append(path + [nxt])
            else:
                stack.append((nxt, path + [nxt]))
    return paths


def brute_force_d_separated(g: CausalGraph, xs, ys, zs) -> bool:
    """Path-by-path blocking check on the latent-expanded graph."""
    parents, children = expanded_adjacency(g)
    zs = set(zs)
    anc_of_z = set(zs)
    for z in zs:
        stack = [z]
        while stack:
            for p in parents[stack.pop()]:
                if p not in anc_of_z:
                    anc_of_z.add(p)
                    stack.append(p)
    for x in xs:
        for y in ys:
            for path in _simple_paths(parents, children, x, y):
                if _path_active(path, parents, zs, anc_of_z):
                    return False
    return True


def _path_active(path, parents, zs, anc_of_z) -> bool:
    for i in range(1, len(path) - 1):
        prev_node, node, next_node = path[i - 1], path[i], path[i + 1]
        collider = prev_node in parents[node] and next_node in parents[node]
        if collider:
            if node not in anc_of_z:
                return False
        else:
            if node in zs:
                return False
    return True


def brute_force_identify(g: CausalGraph):
    """Mirror of the identification contract built on path enumeration.

    Returns (kind, nodes) with the same smallest-first lexicographic
    tie-break and the same frontdoor conditions.
    """
    t, y = g.treatment, g.outcome
    _, children = expanded_adjacency(g)
    desc_t = _descendants(children, t)
    candidates = sorted(g.nodes - desc_t - {t, y})
    bd = g.without_directed_out_of([t])
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            if brute_force_d_separated(bd, {t}, {y}, set(subset)):
                return (IdentificationKind.BACKDOOR, subset)
    pool = sorted(g.nodes - {t, y})
    for size in (1,):
        for subset in itertools.combinations(pool, size):
            if _brute_frontdoor(g, subset):
                return (IdentificationKind.FRONTDOOR, subset)
    return (IdentificationKind.NOT_IDENTIFIED, ())


def _brute_frontdoor(g: CausalGraph, mediators) -> bool:
    m = set(mediators)
    t, y = g.treatment, g.outcome
    for path in _directed_paths(g, t, y):
        if not set(path[1:-1]) & m:
            return False
    if not brute_force_d_separated(g.without_directed_out_of([t]), {t}, m, set()):
        return False
    if not brute_force_d_separated(g.without_directed_out_of(m), m, {y}, {t}):
        return False
    return True


def _directed_paths(g: CausalGraph, src, dst):
    paths = []
    stack = [(src, [src])]
    while stack:
        node, path = stack.pop()
        for nxt in sorted(g.children(node)):
            if nxt in path:
                continue
            if nxt == dst:
                paths.append(path + [nxt])
            else:
                stack.append((nxt, path + [nxt]))
    return paths


def random_graph(rng: np.random.Generator, max_nodes: int = 6) -> CausalGraph:
    """Random small DAG with optional bidirected edges; T precedes Y."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    order = list(rng.permutation(n))
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                directed.append((names[order[i]], names[order[j]]))
    bidirected = []
    for a, b in itertools.combinations(names, 2):
        if rng.random() < 0.15:
            bidirected.append((a, b))
    t_pos, y_pos = sorted(rng.choice(n, size=2, replace=False))
    treatment, outcome = names[order[t_pos]], names[order[y_pos]]
    return CausalGraph.create(names, directed, bidirected, treatment, outcome)


def normal_equations_ols(design: np.ndarray, y: np.ndarray):
    """Solve X'X b = X'y directly; classical covariance for the coefficients."""
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    dof = design.shape[0] - design.shape[1]
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(xtx)
    return beta, np.sqrt(np.diag(cov))


def elimination_rank_ok(xtx: np.ndarray, rtol: float) -> bool:
    """Gaussian elimination without pivoting on the normal matrix: every
    pivot must exceed ``rtol`` times its own column's diagonal entry."""
    a = xtx.astype(np.float64).copy()
    k = a.shape[0]
    for i in range(k):
        pivot = a[i, i]
        if not pivot > rtol * xtx[i, i]:  # a NaN pivot fails too
            return False
        with np.errstate(over="ignore", invalid="ignore"):  # an inf entry ends in NaN
            a[i + 1 :, i:] -= np.outer(a[i + 1 :, i] / pivot, a[i, i:])
    return True


def numpy_pivot_rank_ok(xtx: np.ndarray, rtol: float) -> bool:
    """The Cholesky rank test as numpy array operations: every squared
    diagonal entry of the factor must exceed ``rtol`` times the same
    column's diagonal entry of ``xtx``."""
    try:
        chol = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError:
        return False
    return bool((chol.diagonal() ** 2 > rtol * xtx.diagonal()).all())


def linalg_ols_theta(y: np.ndarray, design: np.ndarray, coef_index: int, alpha: float,
                     n: int, adjustment_set: tuple[str, ...]) -> EffectEstimate:
    """The OLS kernel through ``np.linalg``'s wrappers: the rank test by
    ``np.linalg.cholesky``, then ``lstsq`` with ``rcond=None`` and ``inv``;
    a failed solve raises ``LinAlgError``."""
    xtx = design.T @ design
    if not numpy_pivot_rank_ok(xtx, 1e-10):
        raise EstimationError("singular design matrix")
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    dof = n - design.shape[1]
    sigma2 = max(float(resid @ resid), 0.0) / dof
    var = max(sigma2 * float(np.linalg.inv(xtx)[coef_index, coef_index]), 0.0)
    se = math.sqrt(var)
    theta = float(beta[coef_index])
    return EffectEstimate(theta_hat=theta, std_err=se, lcb=theta - one_sided_z(alpha) * se,
                          alpha=alpha, n=n, adjustment_set=adjustment_set)


def var_zero_variance(col: np.ndarray) -> bool:
    """The zero-variance test as one ``np.var`` over the whole column, with
    numpy's floating-point warnings silenced."""
    with np.errstate(all="ignore"):
        return float(np.var(col)) <= 1e-24


def per_value_encode(frame: Frame) -> bytes:
    """Canonical bytes as the format defines them: ``repr`` of each value."""
    rows = [",".join(repr(float(v)) for v in row) for row in frame.data]
    return "\n".join([",".join(frame.columns), *rows]).encode("utf-8")


def per_value_parse(text: str) -> Frame:
    """Canonical text to a frame, one ``float()`` per value, row by row.

    Refuses with ``ValueError`` (``FrameError`` among them) whatever the
    format does not allow.
    """
    lines = text.split("\n")
    if not lines or not lines[0]:
        raise ValueError("empty canonical text")
    columns = tuple(lines[0].split(","))
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
    return Frame(columns=columns, data=data)


def line_parse(blob: bytes) -> Frame:
    """The canonical parser that split the text into lines and counted each.

    Decodes the whole text, checks each line's comma count, then converts
    the values with orjson when they are all JSON number characters (and no
    ``-0`` token) and with numpy's str-to-float64 cast otherwise.
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"data is not UTF-8: {exc}") from None
    header, newline, body = text.partition("\n")
    if not header:
        raise FrameError("empty canonical text")
    columns = tuple(header.split(","))
    lines = body.split("\n") if newline else []
    commas = len(columns) - 1
    if set(map(str.count, lines, itertools.repeat(","))) - {commas}:
        i = next(i for i, line in enumerate(lines) if line.count(",") != commas)
        raise FrameError(f"line {i + 2} has {lines[i].count(',') + 1} values "
                         f"for {len(columns)} columns")
    flat = body.replace("\n", ",")
    values = None
    if (flat and flat.isascii()
            and not flat.encode("ascii").translate(None, b"0123456789.eE+-,")
            and "-0," not in flat and not flat.endswith("-0")):
        try:
            values = np.array(orjson.loads("[" + flat + "]"), dtype=np.float64)
        except orjson.JSONDecodeError:
            pass
    if values is None:
        try:
            values = np.array(flat.split(",") if lines else [], dtype=np.float64)
        except ValueError as exc:
            raise FrameError(f"unparseable value: {exc}") from None
    return Frame(columns=columns, data=values.reshape(len(lines), len(columns)))


def reference_adjusted_effect(d: Frame, adjustment_set, alpha: float = 0.05, *,
                              treatment_col: str = "T",
                              outcome_col: str = "Y") -> EffectEstimate:
    """The backdoor OLS fit built with ``column_stack``, ``np.var``,
    ``np.all``, the array-level rank test and the whole scaled covariance
    matrix, never memoized."""
    t = d.column(treatment_col)
    y = d.column(outcome_col)
    treated = t == 1.0
    control = t == 0.0
    if not np.all(treated | control):
        raise EstimationError("treatment column must be binary 0/1")
    if treated.all() or control.all():
        raise EstimationError("positivity violation: only one treatment arm present")
    used, cols = [], []
    for name in adjustment_set:
        col = d.column(name)
        if float(np.var(col)) <= 1e-24:
            warnings.warn(f"dropping zero-variance adjustment column '{name}'",
                          DegenerateRegressorWarning, stacklevel=2)
            continue
        used.append(name)
        cols.append(col)
    n = d.n_rows
    if n <= len(used) + 2:
        raise EstimationError(
            f"need more than {len(used) + 2} rows to adjust for {len(used)} covariates"
        )
    design = np.column_stack([np.ones(n), t, *cols])
    xtx = design.T @ design
    if not numpy_pivot_rank_ok(xtx, 1e-10):
        raise EstimationError("singular design matrix")
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    sigma2 = max(float(resid @ resid), 0.0) / (n - design.shape[1])
    cov = sigma2 * np.linalg.inv(xtx)
    se = float(np.sqrt(max(float(cov[1, 1]), 0.0)))
    theta = float(beta[1])
    return EffectEstimate(theta_hat=theta, std_err=se, lcb=theta - one_sided_z(alpha) * se,
                          alpha=alpha, n=n, adjustment_set=tuple(used))


def bootstrap_oracle(values, n_resamples, seed):
    """Percentile interval recomputed with the same stream, by hand."""
    vals = list(float(v) for v in values)
    n = len(vals)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_resamples, n))
    means = sorted(sum(vals[j] for j in row) / n for row in idx)

    def quantile(q):
        pos = q * (len(means) - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        frac = pos - lo
        return means[lo] * (1 - frac) + means[hi] * frac

    return quantile(0.025), quantile(0.975)


def wilcoxon_enumeration_oracle(diffs):
    """Two-sided exact signed-rank p by explicit python enumeration."""
    nz = [d for d in diffs if d != 0]
    n = len(nz)
    if n == 0:
        return 1.0
    mags = sorted((abs(d), i) for i, d in enumerate(nz))
    ranks = [0.0] * n
    i = 0
    pos = 1
    while i < len(mags):
        j = i
        while j < len(mags) and mags[j][0] == mags[i][0]:
            j += 1
        avg = (pos + (pos + (j - i) - 1)) / 2
        for k in range(i, j):
            ranks[mags[k][1]] = avg
        pos += j - i
        i = j
    w_obs = sum(r for d, r in zip(nz, ranks) if d > 0)
    ge = le = 0
    total = 2**n
    for mask in range(total):
        w = sum(ranks[i] for i in range(n) if (mask >> i) & 1)
        ge += w >= w_obs
        le += w <= w_obs
    return min(1.0, 2.0 * min(ge / total, le / total))


def wilcoxon_rankdata_oracle(diffs):
    """Two-sided exact signed-rank p with ``rankdata`` average ranks."""
    d = np.asarray(diffs, dtype=np.float64)
    nonzero = d[d != 0.0]
    n = nonzero.size
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(nonzero), method="average")
    w_obs = float(ranks[nonzero > 0].sum())
    assignments = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_all = assignments @ ranks
    p_ge = float(np.mean(w_all >= w_obs))
    p_le = float(np.mean(w_all <= w_obs))
    return min(1.0, 2.0 * min(p_ge, p_le))


def unchecked(frame, **fields):
    """A copy of ``frame`` holding ``fields`` as given, past ``__post_init__``."""
    frame = copy.copy(frame)
    for name, value in fields.items():
        object.__setattr__(frame, name, value)
    return frame
