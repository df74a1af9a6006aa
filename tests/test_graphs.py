import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civex.graphs import (
    CausalGraph,
    GraphError,
    IdentificationKind,
    backdoor_view,
    d_separated,
    graph_digest,
    graph_from_json_dict,
    graph_to_json_dict,
    identify,
    relabel_latent,
    validate_graph,
)

from oracles import brute_force_d_separated, brute_force_identify, random_graph


def worked_graph() -> CausalGraph:
    """Two observed confounders of an index-creation action and its latency gain."""
    return CausalGraph.create(
        nodes=["add_index", "latency_savings_ms", "query_volume", "write_volume"],
        directed=[
            ("query_volume", "add_index"),
            ("query_volume", "latency_savings_ms"),
            ("write_volume", "add_index"),
            ("write_volume", "latency_savings_ms"),
            ("add_index", "latency_savings_ms"),
        ],
        treatment="add_index",
        outcome="latency_savings_ms",
    )


class TestValidate:
    def test_minimal_legal_graph(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y")])
        assert validate_graph(g) is None

    def test_directed_cycle(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y"), ("Y", "T")])
        assert validate_graph(g) == "directed cycle"

    def test_worked_example_graph_is_ok(self):
        assert validate_graph(worked_graph()) is None

    def test_self_loop(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y"), ("Y", "Y")])
        assert "self-loop" in validate_graph(g)

    def test_unknown_node_in_edge(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Q")])
        assert "unknown node" in validate_graph(g)

    def test_treatment_missing(self):
        g = CausalGraph.create(["A", "Y"], [("A", "Y")], treatment="T")
        assert "treatment" in validate_graph(g)

    def test_treatment_equals_outcome(self):
        g = CausalGraph.create(["T"], [], treatment="T", outcome="T")
        assert "distinct" in validate_graph(g)

    def test_bidirected_self_edge(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y")], bidirected=[("T", "T")])
        assert "bidirected self-edge" in validate_graph(g)

    def test_non_string_node_name(self):
        # The canonical JSON sorts node names, which only strings allow.
        g = CausalGraph.create(nodes=["T", "Y", 1], directed=[("T", "Y")])
        assert validate_graph(g) == "node name 1 is not a string"
        with pytest.raises(GraphError, match="node name 1 is not a string"):
            identify(g)


class TestConstruction:
    """Every way of building a graph gives the one canonical record."""

    def test_constructor_from_lists_equals_create(self):
        g = worked_graph()
        latent = CausalGraph.create(g.nodes, g.directed_edges,
                                    bidirected=[("add_index", "query_volume")],
                                    treatment=g.treatment, outcome=g.outcome)
        built = CausalGraph(nodes=sorted(g.nodes, reverse=True),
                            directed_edges=[list(e) for e in sorted(g.directed_edges)],
                            bidirected_edges=[["query_volume", "add_index"]],
                            treatment=g.treatment, outcome=g.outcome)
        assert built == latent
        assert hash(built) == hash(latent)
        # Unmemoized, since equal graphs share the memoized digest.
        assert graph_digest.__wrapped__(built) == graph_digest.__wrapped__(latent)
        assert built.bidirected_edges == frozenset({("add_index", "query_volume")})
        assert all(type(e) is tuple for e in built.directed_edges)

    def test_replace_normalizes_its_fields(self):
        g = worked_graph()
        swapped = replace(g, bidirected_edges={("latency_savings_ms", "add_index")})
        expected = CausalGraph.create(g.nodes, g.directed_edges,
                                      bidirected=[(g.treatment, g.outcome)],
                                      treatment=g.treatment, outcome=g.outcome)
        assert swapped == expected
        assert graph_digest.__wrapped__(swapped) == graph_digest.__wrapped__(expected)
        assert graph_from_json_dict(graph_to_json_dict(swapped)) == swapped


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = CausalGraph.create(["A", "B", "C"], [("A", "B"), ("B", "C")],
                               treatment="A", outcome="C")
        assert d_separated(g, {"A"}, {"C"}, {"B"}) is True

    def test_collider_opened_by_conditioning(self):
        g = CausalGraph.create(["A", "B", "C"], [("A", "B"), ("C", "B")],
                               treatment="A", outcome="C")
        assert d_separated(g, {"A"}, {"C"}, {"B"}) is False
        assert d_separated(g, {"A"}, {"C"}, set()) is True

    def test_collider_opened_by_descendant(self):
        g = CausalGraph.create(
            ["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("B", "D")],
            treatment="A", outcome="C")
        assert d_separated(g, {"A"}, {"C"}, {"D"}) is False

    def test_bidirected_edge_connects(self):
        g = CausalGraph.create(["T", "Y"], [], bidirected=[("T", "Y")])
        assert d_separated(g, {"T"}, {"Y"}, set()) is False

    def test_worked_graph_backdoor_view_separation(self):
        # Oracle-verified by exhaustive path enumeration below: with the
        # treatment's outgoing edges removed, the two confounders block
        # everything that remains.
        g = worked_graph()
        bd = backdoor_view(g)
        z = {"query_volume", "write_volume"}
        assert brute_force_d_separated(bd, {g.treatment}, {g.outcome}, z) is True
        assert d_separated(bd, {g.treatment}, {g.outcome}, z) is True
        assert d_separated(bd, {g.treatment}, {g.outcome}, {"query_volume"}) is False

    def test_unknown_node_is_input_error(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y")])
        with pytest.raises(GraphError):
            d_separated(g, {"T"}, {"Y"}, {"nope"})

    def test_overlapping_sets_rejected(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y")])
        with pytest.raises(GraphError):
            d_separated(g, {"T"}, {"T", "Y"}, set())

    def test_agrees_with_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(20240311)
        for _ in range(300):
            g = random_graph(rng)
            nodes = sorted(g.nodes)
            x, y = rng.choice(nodes, size=2, replace=False).tolist()
            rest = [n for n in nodes if n not in (x, y)]
            z = {n for n in rest if rng.random() < 0.4}
            assert d_separated(g, {x}, {y}, z) == brute_force_d_separated(g, {x}, {y}, z)


class TestIdentify:
    def test_worked_graph_backdoor(self):
        res = identify(worked_graph())
        assert res.kind is IdentificationKind.BACKDOOR
        assert res.adjustment_set == ("query_volume", "write_volume")
        assert "backdoor" in res.proof_note

    def test_bare_treatment_outcome_gives_empty_set(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y")])
        res = identify(g)
        assert res.kind is IdentificationKind.BACKDOOR
        assert res.adjustment_set == ()

    def test_latent_edge_defeats_backdoor(self):
        g = worked_graph()
        g = CausalGraph.create(
            g.nodes, g.directed_edges,
            bidirected=[(g.treatment, g.outcome)],
            treatment=g.treatment, outcome=g.outcome)
        assert identify(g).kind is IdentificationKind.NOT_IDENTIFIED

    def test_frontdoor_chain(self):
        # Brute-force check of the three frontdoor conditions over all
        # candidate mediator subsets agrees.
        g = CausalGraph.create(["T", "M", "Y"], [("T", "M"), ("M", "Y")],
                               bidirected=[("T", "Y")])
        res = identify(g)
        assert res.kind is IdentificationKind.FRONTDOOR
        assert res.mediator_set == ("M",)
        kind, nodes = brute_force_identify(g)
        assert (kind, nodes) == (IdentificationKind.FRONTDOOR, ("M",))

    def test_two_mediator_frontdoor_is_not_identified(self):
        # Only the pair {M1, M2} intercepts both directed paths; the search
        # tries single mediators, the only sets the estimator supports.
        g = CausalGraph.create(["T", "M1", "M2", "Y"],
                               [("T", "M1"), ("M1", "Y"), ("T", "M2"), ("M2", "Y")],
                               bidirected=[("T", "Y")])
        res = identify(g)
        assert res.kind is IdentificationKind.NOT_IDENTIFIED
        assert res.proof_note == "no backdoor adjustment set; no single frontdoor mediator"
        assert brute_force_identify(g) == (IdentificationKind.NOT_IDENTIFIED, ())

    def test_smallest_set_lexicographic_tiebreak(self):
        # Either confounder alone blocks its own path, but both paths exist,
        # so the smallest blocking set has size 2; with one shared confounder
        # the singleton wins and ties break lexicographically.
        g = CausalGraph.create(
            ["T", "Y", "a", "b"],
            [("a", "T"), ("a", "Y"), ("b", "T"), ("b", "Y"), ("T", "Y")])
        assert identify(g).adjustment_set == ("a", "b")
        g2 = CausalGraph.create(
            ["T", "Y", "b", "a"],
            [("a", "T"), ("a", "Y"), ("b", "a"), ("T", "Y")])
        assert identify(g2).adjustment_set == ("a",)

    def test_invalid_graph_propagates_violation(self):
        g = CausalGraph.create(["T", "Y"], [("T", "Y"), ("Y", "T")])
        # The analysis is memoized; the error must still come on every call.
        for _ in range(2):
            with pytest.raises(GraphError, match="cycle"):
                identify(g)
        assert validate_graph(g) == "directed cycle"

    def test_unblocked_latent_path_and_no_mediator_never_identifies(self):
        rng = np.random.default_rng(7)
        for k in range(4):
            names = [f"c{i}" for i in range(k)]
            directed = [("T", "Y")]
            for n in names:
                directed += [(n, "T"), (n, "Y")]
            g = CausalGraph.create(["T", "Y", *names], directed,
                                   bidirected=[("T", "Y")])
            assert identify(g).kind is IdentificationKind.NOT_IDENTIFIED

    def test_backdoor_result_satisfies_separation(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            g = random_graph(rng)
            res = identify(g)
            if res.kind is IdentificationKind.BACKDOOR:
                assert d_separated(backdoor_view(g), {g.treatment}, {g.outcome},
                                   set(res.adjustment_set))
                assert not set(res.adjustment_set) & g.descendants(g.treatment)


class TestRelabelLatent:
    def _rng(self):
        return np.random.default_rng(5)

    def test_fraction_zero_is_identity(self):
        g = worked_graph()
        assert relabel_latent(g, ["query_volume", "write_volume"], 0.0, self._rng()) == g

    def test_fraction_one_leaves_latent_edge_only(self):
        g = worked_graph()
        out = relabel_latent(g, ["query_volume", "write_volume"], 1.0, self._rng())
        assert out.nodes == frozenset({"add_index", "latency_savings_ms"})
        assert out.directed_edges == frozenset({("add_index", "latency_savings_ms")})
        assert out.bidirected_edges == frozenset({("add_index", "latency_savings_ms")})

    def test_fraction_half_removes_exactly_one(self):
        g = worked_graph()
        seen = set()
        for seed in range(10):
            out = relabel_latent(g, ["query_volume", "write_volume"], 0.5,
                                 np.random.default_rng(seed))
            removed = g.nodes - out.nodes
            assert len(removed) == 1
            assert out.bidirected_edges == frozenset({("add_index", "latency_savings_ms")})
            seen |= removed
        assert seen == {"query_volume", "write_volume"}

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            relabel_latent(worked_graph(), ["query_volume"], 1.5, self._rng())

    def test_non_confounder_rejected(self):
        with pytest.raises(GraphError):
            relabel_latent(worked_graph(), ["latency_savings_ms"], 1.0, self._rng())

    def test_identified_fraction_monotone_in_relabel_fraction(self):
        from civex.scm import BenchmarkSpec, build_benchmark

        spec = BenchmarkSpec(seeds=(42,), moderate_per_family=6, adversarial_per_family=2)
        instances, _ = build_benchmark(spec, regimes=("moderate",))
        fractions = [0.0, 0.25, 0.5, 1.0]
        identified = []
        for f in fractions:
            count = 0
            for inst in instances:
                rng = np.random.default_rng(abs(hash((inst.id, f))) % 2**32)
                observed = [c.name for c in inst.spec.observed]
                g = relabel_latent(inst.graph, observed, f, rng)
                count += identify(g).identified
            identified.append(count)
        assert all(a >= b for a, b in zip(identified, identified[1:]))


class TestSerialization:
    def test_canonical_sorting_and_roundtrip(self):
        g = worked_graph()
        obj = graph_to_json_dict(g)
        assert obj["nodes"] == sorted(obj["nodes"])
        assert obj["directed"] == sorted(obj["directed"])
        assert graph_from_json_dict(obj) == g

    def test_digest_is_stable_and_sensitive(self):
        g = worked_graph()
        assert graph_digest(g) == graph_digest(worked_graph())
        g2 = CausalGraph.create(g.nodes, g.directed_edges,
                                bidirected=[(g.treatment, g.outcome)],
                                treatment=g.treatment, outcome=g.outcome)
        assert graph_digest(g) != graph_digest(g2)
        assert len(graph_digest(g)) == 64

    def test_canonical_json_has_no_whitespace(self):
        # The digest covers the compact, key-sorted JSON of the canonical dict.
        text = ('{"bidirected":[],"directed":[["add_index","latency_savings_ms"],'
                '["query_volume","add_index"],["query_volume","latency_savings_ms"],'
                '["write_volume","add_index"],["write_volume","latency_savings_ms"]],'
                '"nodes":["add_index","latency_savings_ms","query_volume","write_volume"],'
                '"outcome":"latency_savings_ms","treatment":"add_index"}')
        assert graph_digest(worked_graph()) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("key, value", [
        ("treatment", ["add_index"]),
        ("outcome", ["latency_savings_ms"]),
        ("treatment", 3),
        ("nodes", "add_index"),
        ("nodes", [1, 2]),
        ("directed", "ab"),
        ("directed", [["query_volume", "add_index", "write_volume"]]),
        ("directed", [["query_volume", 4]]),
        ("bidirected", [None]),
    ])
    def test_wrongly_typed_field_raises_graph_error(self, key, value):
        obj = graph_to_json_dict(worked_graph())
        obj[key] = value
        with pytest.raises(GraphError):
            graph_from_json_dict(obj)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(latent=[["add_index", "latency_savings_ms"]]),
        lambda obj: obj.pop("bidirected"),
        lambda obj: obj.pop("treatment"),
    ], ids=["extra-key", "missing-edges", "missing-role"])
    def test_missing_or_extra_key_raises_graph_error(self, edit):
        # An unread key such as "latent" would be a commitment the digest
        # does not cover.
        obj = graph_to_json_dict(worked_graph())
        edit(obj)
        with pytest.raises(GraphError, match="graph keys must be nodes, directed, "
                                             "bidirected, treatment, outcome"):
            graph_from_json_dict(obj)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dsep_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    nodes = sorted(g.nodes)
    x, y = rng.choice(nodes, size=2, replace=False).tolist()
    z = {n for n in nodes if n not in (x, y) and rng.random() < 0.5}
    assert d_separated(g, {x}, {y}, z) == brute_force_d_separated(g, {x}, {y}, z)
