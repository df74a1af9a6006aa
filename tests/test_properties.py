"""Property tests of the fail-closed triage contract.

Random committed graphs (``oracles.random_graph``), data frames drawn from a
linear model over the graph, and action frames, some of them malformed.
Whatever the input, ``triage`` returns a verdict; an EXECUTE from rule 3
carries a certificate for the action's exact query whose bound is finite,
clears ``tau_u`` and replays to nothing.  ``civex verify-cert`` ends every
mutated certificate and data file in exit 0, exit 1 or a clean error, and
every mutated config document loads into a config that round-trips or is a
clean ``invalid configuration`` from ``civex generate``.  The
canonical-text encoder and parser and the Cholesky rank test agree with the
per-value ``repr`` and ``float()`` and the elimination loop they replaced, and
the OLS kernel fits to the bits, and decides singularity as, the
``np.linalg`` calls it replaced (``oracles``).
"""

import copy
import functools
import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from civex import graphs
from civex.cli import main
from civex.estimation import _PIVOT_RTOL, EstimationError, _ols_theta, _pivot_rank_ok
from civex.frames import Frame, FrameError
from civex.graphs import (
    CausalGraph,
    GraphError,
    graph_from_json_dict,
    graph_to_json_dict,
    identify,
    validate_graph,
)
from civex.runner import RunConfig
from civex.scm import ActionFrame, BenchmarkSpec, build_benchmark
from civex.verifier import (
    Decision,
    Verdict,
    VerifierConfig,
    certificate_to_json_dict,
    make_view,
    triage,
    verify_certificate,
)

from oracles import (
    elimination_rank_ok,
    line_parse,
    linalg_ols_theta,
    numpy_pivot_rank_ok,
    per_value_encode,
    per_value_parse,
    random_graph,
    unchecked,
)

# Derandomized, so that the tier-1 run is reproducible.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

MALFORMATIONS = ("none", "cycle", "self_loop", "unknown_outcome", "second_graph",
                 "wrong_target", "missing_column", "constant_treatment", "huge_values")


def _topological(g: CausalGraph) -> list[str]:
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(g.nodes):
        for n in sorted(g.nodes - placed):
            if g.parents(n) <= placed:
                order.append(n)
                placed.add(n)
    return order


def _linear_data(g: CausalGraph, rng: np.random.Generator, n: int, theta: float) -> Frame:
    """Linear-Gaussian draw over the graph: a binary treatment, a planted
    treatment effect on the outcome and a shared noise term per latent edge."""
    latent = {edge: rng.normal(size=n) for edge in sorted(g.bidirected_edges)}
    values: dict[str, np.ndarray] = {}
    for node in _topological(g):
        v = rng.normal(size=n)
        for p in sorted(g.parents(node)):
            v = v + rng.uniform(-1.5, 1.5) * values[p]
        for (a, b), noise in latent.items():
            if node in (a, b):
                v = v + noise
        if node == g.treatment:
            v = (v > np.median(v)).astype(float)
        values[node] = v
    values[g.outcome] = values[g.outcome] + theta * values[g.treatment]
    return Frame.from_columns(sorted(values.items()))


def _case(seed: int, n: int, theta: float, malformation: str):
    """Committed graphs, data, target and utility for one draw, malformed as named."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    data = _linear_data(g, rng, n, theta)
    target, utility = g.treatment, g.outcome
    committed = [g]
    if malformation == "cycle":
        committed = [CausalGraph.create(g.nodes, g.directed_edges | {(g.outcome, g.treatment)},
                                        g.bidirected_edges, g.treatment, g.outcome)]
    elif malformation == "self_loop":
        committed = [CausalGraph.create(g.nodes, g.directed_edges | {(g.outcome, g.outcome)},
                                        g.bidirected_edges, g.treatment, g.outcome)]
    elif malformation == "unknown_outcome":
        committed = [CausalGraph.create(g.nodes, g.directed_edges, g.bidirected_edges,
                                        g.treatment, "not_a_node")]
    elif malformation == "second_graph":
        committed = [g, random_graph(rng)]
    elif malformation == "wrong_target":
        target = sorted(g.nodes - {g.treatment})[0]
    elif malformation == "missing_column":
        dropped = sorted(g.nodes)[int(rng.integers(len(g.nodes)))]
        data = Frame.from_columns([(c, data.column(c)) for c in data.columns if c != dropped])
    elif malformation == "constant_treatment":
        arr = data.data.copy()
        arr[:, data.columns.index(g.treatment)] = 1.0
        data = Frame(columns=data.columns, data=arr)
    elif malformation == "huge_values":
        data = Frame(columns=data.columns, data=data.data * 1e200)
    return committed, data, target, utility


def _triage_and_check(committed, data, action: ActionFrame, cfg: VerifierConfig) -> Verdict:
    """Triage must return a verdict; an EXECUTE carries a certificate exactly
    when rule 3 issued it, and that certificate must hold up."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        v = triage(action, committed, data, cfg)
    assert isinstance(v.decision, Decision)
    if v.decision is not Decision.EXECUTE:
        assert v.certificate is None
        return v
    if v.rule_fired == 1:
        assert action.interventional is False and v.certificate is None
        return v
    assert v.rule_fired == 3
    assert action.interventional is True and action.target_value == 1.0
    cert = v.certificate
    assert cert is not None
    assert math.isfinite(cert.lcb_alpha) and cert.lcb_alpha >= cfg.tau_u
    assert action.cost <= cfg.tau_r and cert.risk == action.cost
    assert ((cert.graph.treatment, cert.graph.outcome)
            == (action.target_variable, action.utility_variable))
    assert verify_certificate(cert, data.canonical_bytes()) == []
    return v


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 300),
    theta=st.floats(-2.0, 4.0),
    malformation=st.sampled_from(MALFORMATIONS),
    tool=st.sampled_from(["change", "change", "change", "", "banned", None]),
    target_value=st.sampled_from([1.0, 1.0, 1.0, 0.0]),
    cost=st.one_of(st.floats(0.0, 1.0), st.sampled_from(["0.1", True, None])),
    reversible=st.sampled_from([True, False, "no"]),
    interventional=st.sampled_from([True, True, False, None, 0]),
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
    tau_u=st.floats(-1.0, 1.0),
    tau_r=st.floats(0.0, 1.0),
)
def test_triage_never_raises(seed, n, theta, malformation, tool, target_value, cost,
                             reversible, interventional, alpha, tau_u, tau_r):
    # Some fields are wrongly typed, so the frame is built past its checks.
    committed, data, target, utility = _case(seed, n, theta, malformation)
    action = unchecked(ActionFrame(tool="change", target_variable=target, target_value=1.0,
                                   utility_variable=utility, cost=0.0, reversible=True),
                       tool=tool, target_value=target_value, cost=cost,
                       reversible=reversible, interventional=interventional)
    cfg = VerifierConfig(alpha=alpha, tau_u=tau_u, tau_r=tau_r,
                         forbidden_tools=frozenset({"banned"}))
    _triage_and_check(committed, data, action, cfg)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(50, 400),
    theta=st.floats(0.0, 3.0),
    cost=st.floats(0.0, 0.6),
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
    tau_u=st.floats(-0.5, 0.5),
)
def test_rule_three_executes_are_certified(seed, n, theta, cost, alpha, tau_u):
    # Well-formed input, drawn so that rule 3 often executes.
    committed, data, target, utility = _case(seed, n, theta, "none")
    action = ActionFrame(tool="change", target_variable=target, target_value=1.0,
                         utility_variable=utility, cost=cost, reversible=False)
    _triage_and_check(committed, data, action,
                      VerifierConfig(alpha=alpha, tau_u=tau_u, tau_r=0.5))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), cyclic=st.booleans())
def test_memoized_identification_of_equal_graphs(seed, cyclic):
    g = random_graph(np.random.default_rng(seed))
    if cyclic:
        g = CausalGraph.create(g.nodes, g.directed_edges | {(g.outcome, g.treatment)},
                               g.bidirected_edges, g.treatment, g.outcome)
    twin = graph_from_json_dict(graph_to_json_dict(g))
    assert twin == g and twin is not g
    fresh = graphs._analyse.__wrapped__(g)
    assert validate_graph(twin) == validate_graph(g) == fresh[0]
    if fresh[0] is not None:
        for graph in (g, twin):
            try:
                identify(graph)
            except GraphError as exc:
                assert str(exc) == fresh[0]
            else:
                raise AssertionError("a malformed graph was identified")
        return
    assert identify(twin) == identify(g) == fresh[1]


# ------------------------------------------------------------ civex verify-cert

# Where a mutation lands in the certificate document: () is the whole
# document, a string a key, an integer a list element.
CERT_PATHS = (
    (),
    *((key,) for key in ("graph", "graph_sha256", "assumptions", "proof", "theta_hat",
                         "std_err", "lcb_alpha", "alpha", "n", "provenance", "risk")),
    *(("graph", key) for key in ("nodes", "directed", "bidirected", "treatment", "outcome")),
    *(("proof", key) for key in ("kind", "adjustment_set", "mediator_set", "proof_note")),
    ("graph", "nodes", 0), ("graph", "directed", 0), ("graph", "directed", 0, 1),
    ("graph", "bidirected", 0), ("assumptions", 0), ("proof", "adjustment_set", 0),
)
SWAPPED_VALUES = {
    "list": [1, "a"], "str_list": ["T", "Y"], "empty_list": [], "int": 7, "str": "x",
    "null": None, "dict": {"k": 1}, "nan": math.nan, "inf": math.inf, "bool": True,
    "huge": 1e308,
}
MUTATIONS = st.tuples(st.sampled_from(CERT_PATHS),
                      st.sampled_from(("drop", *sorted(SWAPPED_VALUES))))
DATA_MUTATIONS = ("none", "truncate", "flip", "non_utf8", "empty")
TEXT_MUTATIONS = ("none", "truncate", "non_utf8")


@functools.lru_cache(maxsize=1)
def _stored_certificate() -> tuple[dict, bytes]:
    """A certificate that CIVeX issued on a generated instance, and its data."""
    spec = BenchmarkSpec(seeds=(42,), moderate_per_family=2, adversarial_per_family=1)
    instances, _ = build_benchmark(spec)
    for inst in instances:
        view = make_view(inst)
        v = triage(view.frame, view.graphs, view.data, VerifierConfig())
        if v.certificate is not None:
            return certificate_to_json_dict(v.certificate), view.data.canonical_bytes()
    raise AssertionError("no instance was certified")


def _mutate(doc, path: tuple, kind: str, values=SWAPPED_VALUES):
    """``doc`` with the value at ``path`` dropped or swapped for ``values[kind]``;
    paths that do not exist in ``doc`` (after earlier mutations) leave it
    unchanged."""
    if not path:
        return None if kind == "drop" else copy.deepcopy(values[kind])
    parent = doc
    for step in path[:-1]:
        try:
            parent = parent[step]
        except (KeyError, IndexError, TypeError):
            return doc
    last = path[-1]
    if isinstance(last, str):
        present = isinstance(parent, dict) and last in parent
    else:
        present = isinstance(parent, list) and last < len(parent)
    if not present:
        return doc
    if kind == "drop":
        del parent[last]
    else:
        parent[last] = copy.deepcopy(values[kind])
    return doc


def _corrupt(blob: bytes, how: str, at: float) -> bytes:
    i = int(at * max(len(blob) - 1, 0))
    if how == "truncate":
        return blob[:i]
    if how == "flip" and blob:
        return blob[:i] + bytes([blob[i] ^ 0x5A]) + blob[i + 1:]
    if how == "non_utf8":
        return blob[:i] + b"\xff\xfe\x80" + blob[i:]
    if how == "empty":
        return b""
    return blob


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    mutations=st.lists(MUTATIONS, max_size=3),
    data_mutation=st.sampled_from(DATA_MUTATIONS),
    text_mutation=st.sampled_from(TEXT_MUTATIONS),
    at=st.floats(0.0, 1.0),
    resign=st.booleans(),
)
# A list-valued treatment crashed the proof replay in the identify cache.
@example(mutations=[(("graph", "treatment"), "str_list")], data_mutation="none",
         text_mutation="none", at=0.0, resign=False)
def test_verify_cert_ends_cleanly(mutations, data_mutation, text_mutation, at, resign):
    doc, blob = _stored_certificate()
    doc = copy.deepcopy(doc)
    data = _corrupt(blob, data_mutation, at)
    if resign:
        # The provenance then matches, so the replay goes on to parse the data.
        doc["provenance"] = hashlib.sha256(data).hexdigest()
    for path, kind in mutations:
        doc = _mutate(doc, path, kind)
    text = _corrupt(json.dumps(doc).encode("utf-8"), text_mutation, at)
    with tempfile.TemporaryDirectory() as tmp:
        cert_path, data_path = Path(tmp) / "c.cert.json", Path(tmp) / "c.data.txt"
        cert_path.write_bytes(text)
        data_path.write_bytes(data)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            result = CliRunner().invoke(main, ["verify-cert", str(cert_path), str(data_path)])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert result.exit_code in (0, 1)
    if result.exit_code == 0:
        assert "certificate verified" in result.output
    else:
        assert ("certificate mismatch:" in result.output
                or result.output.startswith("Error: cannot parse certificate"))


# ------------------------------------------------------------ config documents

# The default document as a manifest records it, with an example in each list
# so that element paths exist.
CONFIG_BASE = {**RunConfig().to_json_dict(), "forbidden_tools": ["add_index"],
               "methods": ["CIVeX", "Replay(demo)"], "replay": {"demo": ["shards/demo.csv"]}}
CONFIG_PATHS = (
    *((key,) for key in CONFIG_BASE),
    ("seeds", 0), ("forbidden_tools", 0), ("methods", 0), ("replay", "demo"),
    ("replay", "demo", 0),
)
CONFIG_VALUES = {
    "str": "0.05", "int": 7, "zero": 0, "negative": -1, "fraction": 0.5, "huge": 1e308,
    "big_int": 10**30, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "true": True,
    "false": False, "null": None, "object": {"CIVeX": 1}, "empty_list": [],
    "int_list": [42], "str_list": ["CIVeX"],
}
CONFIG_MUTATIONS = st.tuples(st.sampled_from(CONFIG_PATHS),
                             st.sampled_from(("drop", "misspell", "repeat",
                                              *sorted(CONFIG_VALUES))))


def _mutate_config(doc: dict, path: tuple, kind: str) -> tuple[dict, set[str]]:
    """``doc`` mutated at ``path``, and the keys a refusal of it may name."""
    key = path[0]
    if kind == "misspell":
        if len(path) == 1 and key in doc:
            doc[key[:-1]] = doc.pop(key)
        return doc, {key, key[:-1]}
    if kind == "repeat":
        target = doc
        for step in path:
            target = target.get(step) if isinstance(target, dict) else None
        if isinstance(target, list) and target:
            target.append(copy.deepcopy(target[0]))
        return doc, {key}
    return _mutate(doc, path, kind, CONFIG_VALUES), {key}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=st.lists(CONFIG_MUTATIONS, max_size=3))
# A string for a number raised a TypeError that named no key.
@example(mutations=[(("alpha",), "str")])
def test_config_document_loads_or_is_refused_cleanly(mutations):
    doc, named = copy.deepcopy(CONFIG_BASE), set()
    for path, kind in mutations:
        doc, keys = _mutate_config(doc, path, kind)
        named |= keys
    try:
        config = RunConfig.from_json_dict(doc)
    except ValueError as exc:
        assert any(key in str(exc) for key in named), str(exc)
        runner = CliRunner()
        with runner.isolated_filesystem():
            Path("config.json").write_text(json.dumps(doc), encoding="utf-8")
            result = runner.invoke(main, ["generate", "--config", "config.json"])
            assert not Path("runs").exists()
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.output == f"Error: invalid configuration: {exc}\n"
    else:
        # As a manifest records the config and a rerun reads it back.
        again = RunConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
        assert again == config
        assert again.to_json_dict() == config.to_json_dict()


# ------------------------------------------------------- canonical-text parser

PARSE_ALPHABET = (",", "\n", "\r", "\t", " ", "_", "e", "+", "-", ".", "n", "a", "i", "f",
                  "0", "9", "\u0661", "\x00")
TEXT_EDITS = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                       st.floats(0.0, 1.0), st.sampled_from(PARSE_ALPHABET))


@functools.lru_cache(maxsize=1)
def _canonical_texts() -> tuple[str, ...]:
    """The stored certificate's data text, whole and cut to a few rows or one column."""
    _, blob = _stored_certificate()
    whole = per_value_parse(blob.decode("utf-8"))
    cuts = [whole, Frame(whole.columns, whole.data[:3]), Frame(whole.columns, whole.data[:1]),
            Frame(whole.columns, whole.data[:0]), Frame(whole.columns[:1], whole.data[:3, :1])]
    return tuple(f.canonical_bytes().decode("utf-8") for f in cuts)


def _edit(text: str, edits) -> str:
    for kind, at, char in edits:
        i = int(at * len(text))
        if kind == "insert":
            text = text[:i] + char + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i + 1:]
    return text


@PROPERTY_SETTINGS
@given(base=st.integers(0, 4), edits=st.lists(TEXT_EDITS, min_size=1, max_size=4))
# Moves a row break: rows of 3 and 5 values that add up to two full rows.
@example(base=1, edits=[("replace", 0.337, "\n"), ("replace", 0.422, ",")])
def test_bulk_parser_agrees_with_per_value_parser(base, edits):
    text = _edit(_canonical_texts()[base], edits)
    blob = text.encode("utf-8")
    try:
        expected = per_value_parse(text)
    except ValueError:
        with pytest.raises(FrameError) as refused:
            Frame.from_canonical_bytes(blob)
        # With the message the line-by-line parser gave.
        with pytest.raises(FrameError) as expected:
            line_parse(blob)
        assert str(refused.value) == str(expected.value)
        return
    got = Frame.from_canonical_bytes(blob)
    assert got.columns == expected.columns
    assert got.data.tobytes() == expected.data.tobytes()


# Any double's bit pattern, or one whose exponent lies between 2**-14 and
# 2**54, where ``repr`` switches to and from exponent form (1e-4 and 1e16).
DOUBLE_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), st.integers(1023 - 14, 1023 + 54), st.integers(0, 2**52 - 1)),
)


@PROPERTY_SETTINGS
@given(width=st.integers(1, 4), bits=st.lists(DOUBLE_BITS, max_size=48))
def test_canonical_text_round_trips_random_doubles(width, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    data = values[:len(values) // width * width].reshape(-1, width)
    frame = Frame(columns=("a", "b", "c", "d")[:width], data=data)
    blob = frame.canonical_bytes()
    assert blob == per_value_encode(frame)
    assert Frame.from_canonical_bytes(blob).data.tobytes() == frame.data.tobytes()


# --------------------------------------------------------------- rank test

DESIGN_SHAPES = ("random", "collinear", "near_collinear", "constant", "intercept_binary",
                 "zero", "overflow")


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), extra_rows=st.integers(1, 30),
       shape=st.sampled_from(DESIGN_SHAPES),
       log_scales=st.lists(st.floats(-6.0, 6.0), min_size=5, max_size=5))
@example(seed=0, k=3, extra_rows=4, shape="overflow", log_scales=[0.0] * 5)
@example(seed=0, k=3, extra_rows=4, shape="zero", log_scales=[0.0] * 5)
def test_cholesky_rank_test_agrees_with_elimination(seed, k, extra_rows, shape, log_scales):
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    x = rng.normal(size=(n, k))
    j = int(rng.integers(0, k))
    if shape in ("collinear", "near_collinear") and j > 0:
        x[:, j] = x[:, :j] @ rng.normal(size=j)
        if shape == "near_collinear":
            x[:, j] += rng.normal(size=n) * 10.0 ** rng.uniform(-9, -3)
    elif shape == "constant":
        x[:, j] = rng.normal()
    elif shape == "intercept_binary":
        x[:, 0] = 1.0
        x[:, j] = rng.integers(0, 2, size=n)
    elif shape == "zero":
        x[:, j] = 0.0
    x = x * 10.0 ** np.array(log_scales[:k])
    if shape == "overflow":
        x[:, j] *= 1e160  # its diagonal entry of X'X overflows to inf
    with np.errstate(over="ignore"):
        xtx = x.T @ x
    ok = _pivot_rank_ok(xtx)
    assert ok == elimination_rank_ok(xtx, _PIVOT_RTOL)
    assert ok == numpy_pivot_rank_ok(xtx, _PIVOT_RTOL)


# --------------------------------------------------------------- OLS kernel

KERNEL_SHAPES = ("random", "binary", "collinear", "near_collinear")


def _estimate_bits(est) -> tuple:
    return (np.array([est.theta_hat, est.std_err, est.lcb]).tobytes(), est.alpha, est.n,
            est.adjustment_set)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 400), p=st.integers(2, 7),
       shape=st.sampled_from(KERNEL_SHAPES),
       log_scales=st.lists(st.floats(-6.0, 6.0), min_size=7, max_size=7),
       alpha=st.sampled_from((0.05, 0.01, 0.5)))
@example(seed=0, n=40, p=4, shape="collinear", log_scales=[0.0] * 7, alpha=0.05)
@example(seed=0, n=3, p=2, shape="binary", log_scales=[6.0] * 7, alpha=0.05)
def test_ols_kernel_matches_numpy_linalg(seed, n, p, shape, log_scales, alpha):
    # Column 0 is the intercept; the others are scaled by 1e-6 to 1e6, and
    # one of them is binary, or (nearly) a combination of those before it.
    p = min(p, n - 1)
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, p))
    design[:, 0] = 1.0
    j = int(rng.integers(1, p))
    if shape == "binary":
        design[:, j] = rng.integers(0, 2, size=n)
    elif shape in ("collinear", "near_collinear"):
        design[:, j] = design[:, :j] @ rng.normal(size=j)
        if shape == "near_collinear":
            design[:, j] += rng.normal(size=n) * 10.0 ** rng.uniform(-9, -3)
    design[:, 1:] *= 10.0 ** np.array(log_scales[1:p])
    y = design @ rng.normal(size=p) + rng.normal(size=n) * 10.0 ** log_scales[0]
    coef_index = int(rng.integers(0, p))
    args = (y, design, coef_index, alpha, n, ("x",))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            expected = linalg_ols_theta(*args)
        except EstimationError as exc:
            with pytest.raises(EstimationError) as refused:
                _ols_theta(*args)
            assert str(refused.value) == str(exc)
            return
        except np.linalg.LinAlgError:
            # A failed solve is NaN, which ``certify`` refuses as non-finite.
            got = _ols_theta(*args)
            assert not all(map(math.isfinite, (got.theta_hat, got.std_err, got.lcb)))
            return
        got = _ols_theta(*args)
    assert _estimate_bits(got) == _estimate_bits(expected)
