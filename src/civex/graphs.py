"""Committed causal graphs and identification queries.

A committed graph is a DAG over named variables with optional bidirected
edges standing for latent confounding between their endpoints.  All path
reasoning expands each bidirected edge ``a <-> b`` into a synthetic latent
parent ``La -> a, La -> b`` before applying the standard d-separation rules;
synthetic latents are never eligible for adjustment sets.

Identification is deliberately small: exhaustive backdoor search over
subsets of observed non-descendants of the treatment (smallest set first,
lexicographic tie-break), with a single-mediator frontdoor fallback, the
only mediator set that ``estimation.frontdoor_effect`` can estimate.  Graphs
in this codebase have a handful of nodes, so determinism and auditability
beat asymptotic cleverness.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

__all__ = [
    "CausalGraph",
    "GraphError",
    "IdentificationKind",
    "IdentificationResult",
    "validate_graph",
    "d_separated",
    "identify",
    "relabel_latent",
    "backdoor_view",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "graph_digest",
    "string_list",
]

_LATENT_PREFIX = "__latent__"


class GraphError(ValueError):
    """Raised for malformed graphs or unknown node names."""


@dataclass(frozen=True, slots=True)
class CausalGraph:
    """Directed acyclic graph with bidirected latent-confounding edges.

    Nodes and edges may be given as any iterables; the constructor freezes
    them, with each bidirected pair in name order, so every construction of
    one graph (``create``, ``replace``, ``graph_from_json_dict``) gives one
    record and one digest.
    """

    nodes: frozenset[str]
    directed_edges: frozenset[tuple[str, str]]
    bidirected_edges: frozenset[tuple[str, str]]
    treatment: str
    outcome: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "directed_edges",
                           frozenset((a, b) for a, b in self.directed_edges))
        # Pairs are ordered by ``str``, which leaves a name as it is and still
        # orders a non-string one; ``validate_graph`` then refuses it.
        object.__setattr__(self, "bidirected_edges", frozenset(
            (a, b) if str(a) <= str(b) else (b, a) for a, b in self.bidirected_edges))

    @classmethod
    def create(cls, nodes: Iterable[str], directed: Iterable[tuple[str, str]] = (),
               bidirected: Iterable[tuple[str, str]] = (), treatment: str = "T",
               outcome: str = "Y") -> "CausalGraph":
        return cls(nodes, directed, bidirected, treatment, outcome)

    def parents(self, node: str) -> set[str]:
        return {a for a, b in self.directed_edges if b == node}

    def children(self, node: str) -> set[str]:
        return {b for a, b in self.directed_edges if a == node}

    def descendants(self, node: str) -> set[str]:
        """All nodes reachable from ``node`` by directed edges (exclusive)."""
        seen: set[str] = set()
        stack = [node]
        while stack:
            for child in self.children(stack.pop()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def without_directed_out_of(self, nodes: Iterable[str]) -> "CausalGraph":
        drop = set(nodes)
        return replace(self, directed_edges=[e for e in self.directed_edges
                                             if e[0] not in drop])


class IdentificationKind(str, Enum):
    BACKDOOR = "backdoor"
    FRONTDOOR = "frontdoor"
    NOT_IDENTIFIED = "not_identified"


@dataclass(frozen=True, slots=True)
class IdentificationResult:
    """Outcome of an identification query, with a short machine-checkable note."""

    kind: IdentificationKind
    adjustment_set: tuple[str, ...]
    mediator_set: tuple[str, ...]
    proof_note: str

    @property
    def identified(self) -> bool:
        return self.kind is not IdentificationKind.NOT_IDENTIFIED


def validate_graph(g: CausalGraph) -> str | None:
    """Return None when all graph invariants hold, else the first violation.

    Shares the memoized analysis of ``identify``, so a graph is validated
    once however often either function sees it.
    """
    return _analyse(g)[0]


def _violation(g: CausalGraph) -> str | None:
    # The canonical JSON sorts node names, so each must be a string.
    odd = sorted(repr(n) for n in g.nodes if not isinstance(n, str))
    if odd:
        return f"node name {odd[0]} is not a string"
    for a, b in g.directed_edges:
        if a not in g.nodes or b not in g.nodes:
            return f"directed edge ({a}, {b}) references an unknown node"
        if a == b:
            return f"self-loop on '{a}'"
    for a, b in g.bidirected_edges:
        if a not in g.nodes or b not in g.nodes:
            return f"bidirected edge ({a}, {b}) references an unknown node"
        if a == b:
            return f"bidirected self-edge on '{a}'"
    if any(n in g.descendants(n) for n in g.nodes):
        return "directed cycle"
    if g.treatment not in g.nodes:
        return f"treatment '{g.treatment}' is not a node"
    if g.outcome not in g.nodes:
        return f"outcome '{g.outcome}' is not a node"
    if g.treatment == g.outcome:
        return "treatment and outcome must be distinct"
    return None


def _latent_expansion(g: CausalGraph) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Parent/child adjacency after replacing each bidirected edge by a fresh latent parent."""
    parents: dict[str, set[str]] = {n: set() for n in g.nodes}
    children: dict[str, set[str]] = {n: set() for n in g.nodes}
    for a, b in g.directed_edges:
        children[a].add(b)
        parents[b].add(a)
    for i, (a, b) in enumerate(sorted(g.bidirected_edges)):
        latent = f"{_LATENT_PREFIX}{i}"
        parents[latent] = set()
        children[latent] = {a, b}
        parents[a].add(latent)
        parents[b].add(latent)
    return parents, children


def d_separated(
    g: CausalGraph,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
) -> bool:
    """True iff every path between x and y is blocked by z.

    Uses active-trail reachability on the latent-expanded graph; linear in
    the number of edges.
    """
    xs, ys, zs = set(x), set(y), set(z)
    for name, label in ((xs, "x"), (ys, "y"), (zs, "z")):
        unknown = name - g.nodes
        if unknown:
            raise GraphError(f"unknown node(s) in {label}: {sorted(unknown)}")
    if xs & ys or xs & zs or ys & zs:
        raise GraphError("x, y, z must be disjoint")
    if not xs or not ys:
        return True
    parents, children = _latent_expansion(g)
    reachable = _active_trail_reachable(parents, children, xs, zs)
    return not (reachable & ys)


def _active_trail_reachable(
    parents: Mapping[str, set[str]],
    children: Mapping[str, set[str]],
    sources: set[str],
    given: set[str],
) -> set[str]:
    # Ancestors of the conditioning set, inclusive; colliders are active
    # exactly when they belong to this set.
    anc = set(given)
    stack = list(given)
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc:
                anc.add(p)
                stack.append(p)

    reachable: set[str] = set()
    # State is (node, arrived_from_child): True when the trail enters the
    # node against edge direction (from a child or at a source).
    visited: set[tuple[str, bool]] = set()
    queue = deque((s, True) for s in sources)
    while queue:
        node, from_child = queue.popleft()
        if (node, from_child) in visited:
            continue
        visited.add((node, from_child))
        if node not in given:
            reachable.add(node)
        if from_child:
            if node not in given:
                for p in parents[node]:
                    queue.append((p, True))
                for c in children[node]:
                    queue.append((c, False))
        else:
            if node not in given:
                for c in children[node]:
                    queue.append((c, False))
            if node in anc:
                for p in parents[node]:
                    queue.append((p, True))
    return reachable


def backdoor_view(g: CausalGraph) -> CausalGraph:
    """Graph used to test backdoor sets: treatment's outgoing edges removed.

    Every remaining treatment-outcome path enters the treatment against an
    arrow, so ``d_separated(backdoor_view(g), {T}, {Y}, S)`` holds exactly
    when S blocks all backdoor paths.
    """
    return g.without_directed_out_of([g.treatment])


def _frontdoor_holds(g: CausalGraph, mediator: str) -> bool:
    m = {mediator}
    t, y = g.treatment, g.outcome
    cut = g.without_directed_out_of(m)
    # (i) the mediator intercepts every directed treatment->outcome path
    if y in cut.descendants(t):
        return False
    # (ii) no unblocked backdoor path from treatment to the mediator
    if not d_separated(backdoor_view(g), {t}, m, set()):
        return False
    # (iii) treatment blocks every backdoor path from the mediator to the outcome
    return d_separated(cut, m, {y}, {t})


# Distinct graphs a process keeps analyses for; a benchmark run commits a few
# dozen graph shapes.
_ANALYSIS_CACHE_SIZE = 4096


def identify(g: CausalGraph) -> IdentificationResult:
    """Find a backdoor adjustment set, falling back to a frontdoor mediator set.

    Backdoor search is exhaustive over observed non-descendants of the
    treatment, smallest set first with lexicographic tie-break.  Frontdoor
    search tries each single mediator in name order.  Raises ``GraphError``
    for a malformed graph.  The result is memoized per distinct graph; it is
    immutable, so every caller may share it.
    """
    violation, result = _analyse(g)
    if violation is not None:
        raise GraphError(violation)
    return result


@functools.lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def _analyse(g: CausalGraph) -> tuple[str | None, IdentificationResult | None]:
    """(first invariant violation, None) or (None, identification result)."""
    violation = _violation(g)
    if violation is not None:
        return violation, None
    return None, _identify_valid(g)


def _identify_valid(g: CausalGraph) -> IdentificationResult:
    t, y = g.treatment, g.outcome
    forbidden = g.descendants(t) | {t, y}
    candidates = sorted(g.nodes - forbidden)
    bd = backdoor_view(g)
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            if d_separated(bd, {t}, {y}, set(subset)):
                note = (
                    "backdoor criterion: {%s} blocks all backdoor paths and "
                    "contains no descendant of the treatment" % ", ".join(subset)
                )
                return IdentificationResult(
                    kind=IdentificationKind.BACKDOOR,
                    adjustment_set=subset, mediator_set=(),
                    proof_note=note,
                )
    for mediator in sorted(g.nodes - {t, y}):
        if _frontdoor_holds(g, mediator):
            note = (
                "frontdoor criterion: {%s} intercepts all directed paths, "
                "has no backdoor from the treatment, and the treatment "
                "blocks its backdoor paths to the outcome" % mediator
            )
            return IdentificationResult(
                kind=IdentificationKind.FRONTDOOR,
                adjustment_set=(), mediator_set=(mediator,),
                proof_note=note,
            )
    return IdentificationResult(
        kind=IdentificationKind.NOT_IDENTIFIED, adjustment_set=(), mediator_set=(),
        proof_note="no backdoor adjustment set; no single frontdoor mediator",
    )


def relabel_latent(
    g: CausalGraph,
    observed_confounders: Iterable[str],
    fraction: float,
    rng,
) -> CausalGraph:
    """Remove a fraction of observed confounders, replacing them with a latent edge.

    Removes ``ceil(fraction * count)`` uniformly chosen confounders (and all
    their edges) from the graph and, when at least one was removed, adds a
    single bidirected treatment-outcome edge for the now-unblockable path.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    listed = sorted(observed_confounders)
    for name in listed:
        if name not in g.nodes:
            raise GraphError(f"unknown confounder '{name}'")
        if g.treatment not in g.children(name) or g.outcome not in g.children(name):
            raise GraphError(f"'{name}' is not a parent of both treatment and outcome")
    k = math.ceil(fraction * len(listed))
    if k == 0:
        return g
    removed = set(rng.choice(listed, size=k, replace=False).tolist())
    return CausalGraph(
        nodes=g.nodes - removed,
        directed_edges=[e for e in g.directed_edges
                        if e[0] not in removed and e[1] not in removed],
        bidirected_edges=[*(p for p in g.bidirected_edges if not set(p) & removed),
                          (g.treatment, g.outcome)],
        treatment=g.treatment,
        outcome=g.outcome,
    )


_GRAPH_KEYS = ("nodes", "directed", "bidirected", "treatment", "outcome")


def graph_to_json_dict(g: CausalGraph) -> dict:
    """Canonical JSON form, under the keys ``_GRAPH_KEYS``: node names sorted,
    edges as sorted 2-element arrays."""
    return {
        "nodes": sorted(g.nodes),
        "directed": sorted([a, b] for a, b in g.directed_edges),
        "bidirected": sorted([a, b] for a, b in g.bidirected_edges),
        "treatment": g.treatment,
        "outcome": g.outcome,
    }


def string_list(value: object, what: str) -> list[str]:
    """``value`` if it is a JSON array of strings, else a GraphError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise GraphError(f"{what} must be a list of strings")
    return value


def _edges(value: object, kind: str) -> list[list[str]]:
    if not isinstance(value, list) or not all(isinstance(e, list) and len(e) == 2
                                              for e in value):
        raise GraphError(f"{kind} edges must be a list of node pairs")
    return [string_list(e, f"each {kind} edge") for e in value]


def graph_from_json_dict(obj: Mapping) -> CausalGraph:
    """Parse the canonical JSON form; a missing or extra key, or a wrongly typed
    field, raises GraphError."""
    if set(obj) != set(_GRAPH_KEYS):
        raise GraphError(f"graph keys must be {', '.join(_GRAPH_KEYS)}")
    for role in ("treatment", "outcome"):
        if not isinstance(obj[role], str):
            raise GraphError(f"graph {role} must be a string")
    return CausalGraph(
        nodes=string_list(obj["nodes"], "graph nodes"),
        directed_edges=_edges(obj["directed"], "directed"),
        bidirected_edges=_edges(obj["bidirected"], "bidirected"),
        treatment=obj["treatment"],
        outcome=obj["outcome"],
    )


@functools.lru_cache(maxsize=_ANALYSIS_CACHE_SIZE)
def graph_digest(g: CausalGraph) -> str:
    """SHA-256 of the compact, key-sorted JSON of ``graph_to_json_dict``,
    lowercase hex (memoized per graph)."""
    text = json.dumps(graph_to_json_dict(g), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
