"""Unit tests for global truss semantics: alpha exact and Monte-Carlo."""

import math

import pytest

from repro import (
    GlobalTrussOracle,
    ParameterError,
    ProbabilisticGraph,
    WorldSampleSet,
    alpha_exact,
    is_global_truss_exact,
)
from repro.core.global_truss import world_is_connected_ktruss
from repro.graphs.generators import running_example


class TestWorldClassification:
    def test_triangle_world_is_3truss(self):
        nodes = ["a", "b", "c"]
        edges = [("a", "b"), ("b", "c"), ("a", "c")]
        assert world_is_connected_ktruss(nodes, edges, 3)
        assert not world_is_connected_ktruss(nodes, edges, 4)

    def test_disconnected_world_fails(self):
        nodes = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("c", "d")]
        assert not world_is_connected_ktruss(nodes, edges, 2)

    def test_missing_node_breaks_connectivity(self):
        # All nodes of the subgraph must be connected, even edge-free ones.
        nodes = ["a", "b", "c"]
        edges = [("a", "b")]
        assert not world_is_connected_ktruss(nodes, edges, 2)

    def test_spanning_path_is_2truss(self):
        nodes = ["a", "b", "c"]
        edges = [("a", "b"), ("b", "c")]
        assert world_is_connected_ktruss(nodes, edges, 2)
        assert not world_is_connected_ktruss(nodes, edges, 3)

    def test_empty_nodes(self):
        assert not world_is_connected_ktruss([], [], 2)

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            world_is_connected_ktruss(["a"], [], 1)


class TestAlphaExact:
    def test_single_edge(self):
        g = ProbabilisticGraph([("a", "b", 0.6)])
        alpha = alpha_exact(g, 2)
        assert math.isclose(alpha[("a", "b")], 0.6)

    def test_triangle_k3(self, triangle):
        alpha = alpha_exact(triangle, 3)
        # Only the full world is a 3-truss.
        full = 0.9 * 0.8 * 0.7
        for value in alpha.values():
            assert math.isclose(value, full)

    def test_triangle_k2_includes_partial_worlds(self, triangle):
        alpha = alpha_exact(triangle, 2)
        # alpha for edge (a,b) at k=2: worlds that span {a,b,c} connectedly
        # and contain (a,b): full world + the two 2-edge spanning worlds
        # containing (a, b).
        expected = (
            0.9 * 0.8 * 0.7      # all three
            + 0.9 * 0.8 * 0.3    # ab, bc
            + 0.9 * 0.2 * 0.7    # ab, ac
        )
        assert math.isclose(alpha[("a", "b")], expected)

    def test_paper_h2_h3(self):
        g = running_example()
        for nodes in (["q1", "v1", "v2", "v3"], ["q2", "v1", "v2", "v3"]):
            h = g.subgraph(nodes)
            alpha = alpha_exact(h, 4)
            for value in alpha.values():
                assert math.isclose(value, 0.125)

    def test_paper_h1_alpha(self):
        g = running_example()
        h1 = g.subgraph(["q1", "q2", "v1", "v2", "v3"])
        alpha = alpha_exact(h1, 4)
        # Only the all-edges world of H1 is a connected 4-truss: 0.5^6.
        for value in alpha.values():
            assert math.isclose(value, 0.5 ** 6)

    def test_too_many_edges_rejected(self):
        from repro.graphs.generators import complete_graph

        g = complete_graph(8, 0.5)  # 28 edges > limit
        with pytest.raises(ParameterError):
            alpha_exact(g, 3)

    def test_zero_probability_edge_contributes_nothing(self):
        g = ProbabilisticGraph(
            [("a", "b", 0.0), ("b", "c", 1.0), ("a", "c", 1.0)]
        )
        alpha = alpha_exact(g, 2)
        assert alpha[("a", "b")] == 0.0


class TestIsGlobalTrussExact:
    def test_paper_h2(self):
        g = running_example()
        h2 = g.subgraph(["q1", "v1", "v2", "v3"])
        assert is_global_truss_exact(h2, 4, 0.125)
        assert not is_global_truss_exact(h2, 4, 0.1251)

    def test_lemma1_global_implies_local(self):
        # Every global truss is a local truss (Lemma 1): verified on H2.
        from repro import SupportProbability

        g = running_example()
        h2 = g.subgraph(["q1", "v1", "v2", "v3"])
        assert is_global_truss_exact(h2, 4, 0.125)
        for u, v in h2.edges():
            sp = SupportProbability.from_edge(h2, u, v)
            assert sp.tail(2) * h2.probability(u, v) >= 0.125 - 1e-12

    def test_h1_fails_at_0125_but_passes_at_its_alpha(self):
        g = running_example()
        h1 = g.subgraph(["q1", "q2", "v1", "v2", "v3"])
        assert not is_global_truss_exact(h1, 4, 0.125)
        assert is_global_truss_exact(h1, 4, 0.5 ** 6)

    def test_disconnected_subgraph_is_never_global_truss(self):
        g = ProbabilisticGraph([("a", "b", 1.0), ("x", "y", 1.0)])
        assert not is_global_truss_exact(g, 2, 0.5)

    def test_empty_graph(self, empty_graph):
        assert not is_global_truss_exact(empty_graph, 2, 0.1)

    def test_invalid_gamma(self, triangle):
        with pytest.raises(ParameterError):
            is_global_truss_exact(triangle, 3, 2.0)


class TestGlobalTrussOracle:
    @pytest.fixture
    def oracle(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 3000, seed=7)
        return GlobalTrussOracle(samples)

    def test_estimate_close_to_exact(self, paper_graph, oracle):
        h2 = paper_graph.subgraph(["q1", "v1", "v2", "v3"])
        estimates = oracle.alpha_estimates(h2, 4)
        for value in estimates.values():
            assert abs(value - 0.125) < 0.03

    def test_estimates_close_on_h1(self, paper_graph, oracle):
        h1 = paper_graph.subgraph(["q1", "q2", "v1", "v2", "v3"])
        exact = 0.5 ** 6
        estimates = oracle.alpha_estimates(h1, 4)
        for value in estimates.values():
            assert abs(value - exact) < 0.02

    def test_satisfies(self, paper_graph, oracle):
        h2 = paper_graph.subgraph(["q1", "v1", "v2", "v3"])
        assert oracle.satisfies(h2, 4, 0.09)
        assert not oracle.satisfies(h2, 4, 0.5)

    def test_satisfies_empty_subgraph(self, paper_graph, oracle):
        empty = paper_graph.subgraph([])
        assert not oracle.satisfies(empty, 2, 0.1)

    def test_satisfies_invalid_gamma(self, paper_graph, oracle):
        h2 = paper_graph.subgraph(["q1", "v1", "v2", "v3"])
        with pytest.raises(ParameterError):
            oracle.satisfies(h2, 4, -0.5)

    def test_repeat_estimates_agree(self, paper_graph, oracle):
        h2 = paper_graph.subgraph(["q1", "v1", "v2", "v3"])
        first = oracle.alpha_estimates(h2, 4)
        second = oracle.alpha_estimates(h2, 4)
        assert first == second

    def test_n_samples_property(self, oracle):
        assert oracle.n_samples == 3000

    def test_single_edge_alpha_is_frequency(self, paper_graph, oracle):
        sub = paper_graph.edge_subgraph([("v1", "v2")])
        estimates = oracle.alpha_estimates(sub, 2)
        assert estimates[("v1", "v2")] == 1.0  # p = 1 edge
