import itertools

import numpy as np
import pytest

from recaudit.community import ChannelGraph, Partition, cluster_channels, modularity
from recaudit.errors import UndefinedModularityError


def triangle(prefix):
    a, b, c = f"{prefix}1", f"{prefix}2", f"{prefix}3"
    return [(a, b, 1), (b, c, 1), (a, c, 1)]


def two_triangles():
    return ChannelGraph(triangle("a") + triangle("x"))


def all_partitions(items):
    """Every set partition of ``items`` (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1 :]
        yield smaller + [[first]]


def as_partition(blocks):
    return Partition({node: i for i, block in enumerate(blocks) for node in block})


def best_partition_bruteforce(graph):
    best_q, best = -2.0, None
    for blocks in all_partitions(graph.nodes):
        q = modularity(graph, as_partition(blocks))
        if q > best_q:
            best_q, best = q, blocks
    return best_q, best


def planted_two_block_graph(n=40, p_in=0.9, p_out=0.05, seed=1):
    rng = np.random.default_rng(seed)
    nodes = [f"c{i:02d}" for i in range(n)]
    block = {node: (0 if i < n // 2 else 1) for i, node in enumerate(nodes)}
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        prob = p_in if block[nodes[i]] == block[nodes[j]] else p_out
        if rng.random() < prob:
            edges.append((nodes[i], nodes[j], 1))
    return ChannelGraph(edges), block


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ChannelGraph([("a", "a", 1)])

    def test_rejects_sub_unit_weight(self):
        with pytest.raises(ValueError):
            ChannelGraph([("a", "b", 0.5)])

    def test_parallel_edges_merge_weights(self):
        g = ChannelGraph([("a", "b", 1), ("a", "b", 2)])
        assert g.neighbors("a")["b"] == 3
        assert g.total_edge_weight() == 3


class TestModularity:
    def test_single_community_is_zero(self):
        g = two_triangles()
        assert modularity(g, Partition({n: 0 for n in g.nodes})) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_component_partition_is_half(self):
        g = two_triangles()
        p = Partition({"a1": 0, "a2": 0, "a3": 0, "x1": 1, "x2": 1, "x3": 1})
        assert modularity(g, p) == 0.5

    def test_empty_graph_is_undefined(self):
        with pytest.raises(UndefinedModularityError):
            modularity(ChannelGraph(nodes=["a", "b"]), Partition({"a": 0, "b": 1}))

    def test_uncovered_node_rejected(self):
        g = ChannelGraph([("a", "b", 1)])
        with pytest.raises(ValueError):
            modularity(g, Partition({"a": 0}))

    def test_bounded_by_bruteforce_optimum(self):
        rng = np.random.default_rng(7)
        nodes = [f"n{i}" for i in range(7)]
        edges = [
            (a, b, int(rng.integers(1, 4)))
            for a, b in itertools.combinations(nodes, 2)
            if rng.random() < 0.45
        ]
        g = ChannelGraph(edges, nodes=nodes)
        best_q, _ = best_partition_bruteforce(g)
        for blocks in itertools.islice(all_partitions(g.nodes), 0, None, 17):
            assert modularity(g, as_partition(blocks)) <= best_q + 1e-12


class TestLouvain:
    def test_two_triangles_recovered(self):
        g = two_triangles()
        found = cluster_channels(g)
        assert sorted(found.communities().values()) == [["a1", "a2", "a3"], ["x1", "x2", "x3"]]

    def test_complete_graph_is_one_community(self):
        nodes = [f"k{i}" for i in range(6)]
        g = ChannelGraph([(a, b, 1) for a, b in itertools.combinations(nodes, 2)])
        assert len(cluster_channels(g).communities()) == 1

    def test_matches_bruteforce_on_small_graphs(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            nodes = [f"n{i}" for i in range(6)]
            edges = [
                (a, b, 1) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.4
            ]
            if not edges:
                continue
            g = ChannelGraph(edges, nodes=nodes)
            best_q, _ = best_partition_bruteforce(g)
            found_q = modularity(g, cluster_channels(g))
            # Louvain is a heuristic; on these tiny graphs it should land on
            # (or extremely near) the optimum and never above it.
            assert found_q <= best_q + 1e-12
            assert found_q >= best_q - 0.05

    def test_planted_partition_recovered_exactly(self):
        g, block = planted_two_block_graph()
        found = cluster_channels(g)
        communities = sorted(found.communities().values())
        expected = sorted(
            [sorted(n for n in block if block[n] == 0), sorted(n for n in block if block[n] == 1)]
        )
        assert communities == expected

    def test_final_beats_singletons_and_is_deterministic(self):
        g, _ = planted_two_block_graph(seed=3)
        found = cluster_channels(g)
        assert modularity(g, found) >= modularity(g, Partition.singletons(g.nodes))
        again = cluster_channels(g)
        assert found.assignment == again.assignment

    def test_final_beats_singletons_on_random_graphs(self):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            nodes = [f"r{i:02d}" for i in range(15)]
            edges = [
                (a, b, int(rng.integers(1, 5)))
                for a, b in itertools.combinations(nodes, 2)
                if rng.random() < 0.25
            ]
            g = ChannelGraph(edges, nodes=nodes)
            found = cluster_channels(g)
            assert modularity(g, found) >= modularity(g, Partition.singletons(g.nodes)) - 1e-12

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            cluster_channels(ChannelGraph())

    def test_edgeless_nodes_become_singletons(self):
        g = ChannelGraph(nodes=["a", "b"])
        assert cluster_channels(g).assignment == {"a": 0, "b": 1}

    def test_community_ids_are_dense_and_ordered(self):
        g = two_triangles()
        found = cluster_channels(g)
        assert set(found.assignment.values()) == {0, 1}
        assert found.assignment["a1"] == 0  # smallest member key gets community 0
