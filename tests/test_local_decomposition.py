"""Unit tests for the local (k, gamma)-truss decomposition (Algorithm 1)."""

import math

import pytest

from repro import (
    ParameterError,
    ProbabilisticGraph,
    SupportProbability,
    local_truss_decomposition,
    maximal_local_trusses,
    truss_decomposition,
)
from repro.datasets import load_dataset
from repro.graphs.generators import complete_graph, running_example
from tests.strategies import random_probabilistic_graph


class TestBasics:
    def test_invalid_gamma(self, triangle):
        with pytest.raises(ParameterError):
            local_truss_decomposition(triangle, 1.5)

    def test_invalid_method(self, triangle):
        with pytest.raises(ParameterError):
            local_truss_decomposition(triangle, 0.5, method="magic")

    def test_empty_graph(self, empty_graph):
        result = local_truss_decomposition(empty_graph, 0.5)
        assert result.trussness == {}
        assert result.k_max == 0

    def test_input_not_modified(self, paper_graph):
        before = paper_graph.copy()
        local_truss_decomposition(paper_graph, 0.5)
        assert paper_graph == before

    def test_every_edge_assigned(self, paper_graph):
        result = local_truss_decomposition(paper_graph, 0.3)
        assert set(result.trussness) == set(paper_graph.edges())

    def test_trussness_of_accessor(self, paper_graph):
        result = local_truss_decomposition(paper_graph, 0.125)
        assert result.trussness_of("v1", "q1") == result.trussness[("q1", "v1")]

    def test_truss_edges_invalid_k(self, paper_graph):
        result = local_truss_decomposition(paper_graph, 0.5)
        with pytest.raises(ParameterError):
            result.truss_edges(1)

    def test_results_compare_equal_after_queries(self):
        """``maximal_trusses`` fills a private cache; it must not make
        two identical results compare unequal."""
        graph = load_dataset("fruitfly", seed=1)
        a = local_truss_decomposition(graph, 0.3)
        b = local_truss_decomposition(graph, 0.3)
        assert a == b
        a.maximal_trusses(3)
        assert a == b


class TestGammaLimits:
    def test_gamma_zero_on_certain_graph_matches_deterministic(self):
        # With all p = 1 the decomposition must equal the deterministic one
        # for any gamma <= 1.
        g = running_example()
        for u, v in list(g.edges()):
            g.set_probability(u, v, 1.0)
        det = truss_decomposition(g)
        for gamma in (0.0, 0.5, 1.0):
            result = local_truss_decomposition(g, gamma)
            assert result.trussness == det

    def test_gamma_above_edge_probability_kills_edge(self):
        g = ProbabilisticGraph([(0, 1, 0.4)])
        result = local_truss_decomposition(g, 0.5)
        assert result.trussness[(0, 1)] == 1
        assert result.k_max == 0

    def test_single_edge_above_gamma_is_2truss(self):
        g = ProbabilisticGraph([(0, 1, 0.8)])
        result = local_truss_decomposition(g, 0.5)
        assert result.trussness[(0, 1)] == 2
        assert result.k_max == 2


class TestPaperExample:
    def test_local_4_truss_is_h1(self, paper_graph):
        result = local_truss_decomposition(paper_graph, 0.125)
        trusses = result.maximal_trusses(4)
        assert len(trusses) == 1
        assert set(trusses[0].nodes()) == {"q1", "q2", "v1", "v2", "v3"}
        assert trusses[0].number_of_edges() == 9

    def test_h1_edges_satisfy_definition(self, paper_graph):
        # Re-verify Definition 2 directly on the output subgraph.
        result = local_truss_decomposition(paper_graph, 0.125)
        h1 = result.maximal_trusses(4)[0]
        for u, v in h1.edges():
            sp = SupportProbability.from_edge(h1, u, v)
            assert sp.tail(2) * h1.probability(u, v) >= 0.125 - 1e-12

    def test_k_max(self, paper_graph):
        assert local_truss_decomposition(paper_graph, 0.125).k_max == 4

    def test_stricter_gamma_shrinks(self, paper_graph):
        loose = local_truss_decomposition(paper_graph, 0.125)
        strict = local_truss_decomposition(paper_graph, 0.5)
        assert strict.k_max <= loose.k_max
        for e in paper_graph.edges():
            assert strict.trussness[e] <= loose.trussness[e]


class TestDefinitionInvariants:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gamma", [0.1, 0.4, 0.8])
    def test_output_trusses_satisfy_definition(self, seed, gamma):
        g = random_probabilistic_graph(18, 0.3, seed)
        result = local_truss_decomposition(g, gamma)
        for k in range(2, result.k_max + 1):
            for truss in result.maximal_trusses(k):
                from repro import is_connected

                assert is_connected(truss)
                for u, v in truss.edges():
                    sp = SupportProbability.from_edge(truss, u, v)
                    sigma = sp.tail(k - 2) * truss.probability(u, v)
                    assert sigma >= gamma * (1 - 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_maximality(self, seed):
        # No removed edge could be added back: edges with trussness < k
        # adjacent to a k-truss must violate the support condition there.
        gamma = 0.3
        g = random_probabilistic_graph(16, 0.35, seed)
        result = local_truss_decomposition(g, gamma)
        k = result.k_max
        if k < 3:
            pytest.skip("graph too sparse for a meaningful check")
        truss_edges = set(result.truss_edges(k))
        # The union of level-k edges is the unique maximal stable set: by
        # Theorem 2 re-running the reduction on the full graph restricted
        # to >= k edges reproduces exactly that set.
        sub = g.edge_subgraph(truss_edges)
        sub_result = local_truss_decomposition(sub, gamma)
        assert set(sub_result.truss_edges(k)) == truss_edges

    def test_monotone_hierarchy(self, paper_graph):
        result = local_truss_decomposition(paper_graph, 0.125)
        hierarchy = result.hierarchy()
        for k in range(2, result.k_max):
            upper = {e for t in hierarchy[k + 1] for e in t.edges()}
            lower = {e for t in hierarchy[k] for e in t.edges()}
            assert upper <= lower

    @pytest.mark.parametrize("seed", range(4))
    def test_trusses_at_same_k_are_disjoint(self, seed):
        # Section 5.2: maximal local trusses for a given k never overlap.
        g = random_probabilistic_graph(20, 0.25, seed)
        result = local_truss_decomposition(g, 0.2)
        for k in range(2, result.k_max + 1):
            seen = set()
            for truss in result.maximal_trusses(k):
                edges = set(truss.edges())
                assert not (edges & seen)
                seen |= edges


class TestDpVsBaseline:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_methods_agree(self, seed, gamma):
        g = random_probabilistic_graph(15, 0.35, seed)
        dp = local_truss_decomposition(g, gamma, method="dp")
        baseline = local_truss_decomposition(g, gamma, method="baseline")
        assert dp.trussness == baseline.trussness

    def test_methods_agree_on_paper_graph(self, paper_graph):
        for gamma in (0.05, 0.125, 0.3, 0.7):
            dp = local_truss_decomposition(paper_graph, gamma, method="dp")
            base = local_truss_decomposition(
                paper_graph, gamma, method="baseline"
            )
            assert dp.trussness == base.trussness

    def test_methods_agree_on_dense_graph(self):
        g = complete_graph(8, 0.8)
        for gamma in (0.1, 0.4):
            dp = local_truss_decomposition(g, gamma, method="dp")
            base = local_truss_decomposition(g, gamma, method="baseline")
            assert dp.trussness == base.trussness


class TestConvenienceWrapper:
    def test_maximal_local_trusses(self, paper_graph):
        trusses = maximal_local_trusses(paper_graph, 4, 0.125)
        assert len(trusses) == 1
        assert set(trusses[0].nodes()) == {"q1", "q2", "v1", "v2", "v3"}
