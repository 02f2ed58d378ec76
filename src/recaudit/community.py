"""Channel co-recommendation graph, modularity, and Louvain clustering.

The clustering is the classic two-phase procedure (local moving until no
single-node move improves modularity, then community aggregation) made fully
deterministic: nodes are swept in sorted-key order, ties prefer the smallest
community id, and final community ids are dense integers ordered by each
community's smallest member key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import UndefinedModularityError

#: Minimum strict modularity improvement for a local move; guards against
#: floating-point oscillation.
_MOVE_EPS = 1e-12

#: Stop the phase loop once a full local+aggregate pass gains less than this.
CONVERGENCE_TOL = 1e-7


class ChannelGraph:
    """Weighted undirected graph over channel keys. No self-loops, weights >= 1."""

    def __init__(
        self,
        edges: Iterable[tuple[str, str, float]] = (),
        nodes: Iterable[str] = (),
    ):
        self._adj: dict[str, dict[str, float]] = {}
        for node in nodes:
            self._adj.setdefault(node, {})
        for a, b, w in edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if w < 1:
                raise ValueError(f"edge weight {w} < 1 between {a!r} and {b!r}")
            self._adj.setdefault(a, {})
            self._adj.setdefault(b, {})
            self._adj[a][b] = self._adj[a].get(b, 0.0) + w
            self._adj[b][a] = self._adj[b].get(a, 0.0) + w

    @property
    def nodes(self) -> list[str]:
        return sorted(self._adj)

    def neighbors(self, node: str) -> dict[str, float]:
        return dict(self._adj[node])

    def total_edge_weight(self) -> float:
        """m: the sum of undirected edge weights."""
        return sum(sum(nbrs.values()) for nbrs in self._adj.values()) / 2.0

    def __len__(self) -> int:
        return len(self._adj)


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to exactly one community id."""

    assignment: Mapping[str, int]

    def communities(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for node, cid in self.assignment.items():
            out.setdefault(cid, []).append(node)
        return {cid: sorted(members) for cid, members in out.items()}

    @staticmethod
    def singletons(nodes: Iterable[str]) -> "Partition":
        return Partition({node: i for i, node in enumerate(sorted(nodes))})


def modularity(graph: ChannelGraph, partition: Partition) -> float:
    """Q = (1/2m) sum_ij [A_ij - k_i k_j / 2m] delta(c_i, c_j), in [-1, 1]."""
    missing = [n for n in graph.nodes if n not in partition.assignment]
    if missing:
        raise ValueError(f"partition does not cover nodes: {missing[:5]}")
    if graph.total_edge_weight() == 0:
        raise UndefinedModularityError("modularity is undefined on a graph with no edges")
    return _work_modularity(_WorkGraph({n: graph.neighbors(n) for n in graph.nodes}), partition.assignment)


# ---------------------------------------------------------------------------
# Louvain internals. The working graph allows self-loops (adj[i][i] stores the
# loop weight once; it contributes twice to the degree), which is what keeps
# modularity invariant under community aggregation.
# ---------------------------------------------------------------------------


class _WorkGraph:
    def __init__(self, adj: dict):
        self.adj = adj
        self.degree = {
            i: sum(w for j, w in nbrs.items() if j != i) + 2.0 * nbrs.get(i, 0.0)
            for i, nbrs in adj.items()
        }
        self.two_m = sum(self.degree.values())


def _work_modularity(g: _WorkGraph, com: dict) -> float:
    internal: dict[int, float] = {}
    degsum: dict[int, float] = {}
    for i, nbrs in g.adj.items():
        ci = com[i]
        degsum[ci] = degsum.get(ci, 0.0) + g.degree[i]
        for j, w in nbrs.items():
            if com[j] == ci:
                internal[ci] = internal.get(ci, 0.0) + (2.0 * w if i == j else w)
    q = 0.0
    for ci, dsum in degsum.items():
        q += internal.get(ci, 0.0) / g.two_m - (dsum / g.two_m) ** 2
    return q


def _local_phase(g: _WorkGraph, com: dict) -> bool:
    """Sweep nodes in sorted order, moving each to its best community while any
    single-node move strictly improves modularity. Returns whether anything moved.
    """
    sigma_tot: dict[int, float] = {}
    for i in g.adj:
        sigma_tot[com[i]] = sigma_tot.get(com[i], 0.0) + g.degree[i]
    fresh_id = max(com.values(), default=-1) + 1
    nodes = sorted(g.adj)
    moved_any = False
    while True:
        moved = False
        for i in nodes:
            c0 = com[i]
            k_i = g.degree[i]
            sigma_tot[c0] -= k_i
            links: dict[int, float] = {}
            for j, w in g.adj[i].items():
                if j != i:
                    links[com[j]] = links.get(com[j], 0.0) + w
            stay = links.get(c0, 0.0) - sigma_tot[c0] * k_i / g.two_m
            best_c, best_gain = c0, stay
            for c in sorted(links):
                if c == c0:
                    continue
                gain = links[c] - sigma_tot[c] * k_i / g.two_m
                if gain > best_gain + _MOVE_EPS:
                    best_c, best_gain = c, gain
            if 0.0 > best_gain + _MOVE_EPS:  # isolating the node beats every option
                best_c = fresh_id
                fresh_id += 1
            sigma_tot[best_c] = sigma_tot.get(best_c, 0.0) + k_i
            if best_c != c0:
                com[i] = best_c
                moved = True
                moved_any = True
        if not moved:
            return moved_any


def _aggregate(g: _WorkGraph, com: dict) -> tuple[_WorkGraph, dict]:
    """Collapse communities into supernodes; returns the new graph and the map
    community id -> new node id (dense ints ordered by smallest member)."""
    min_member: dict[int, object] = {}
    for i in sorted(g.adj):
        min_member.setdefault(com[i], i)
    new_id = {cid: idx for idx, (cid, _) in enumerate(sorted(min_member.items(), key=lambda kv: kv[1]))}
    adj: dict[int, dict[int, float]] = {nid: {} for nid in new_id.values()}
    for i, nbrs in g.adj.items():
        ci = new_id[com[i]]
        for j, w in nbrs.items():
            if i == j:
                adj[ci][ci] = adj[ci].get(ci, 0.0) + w
            elif i < j:  # nodes share a type within a level; visit each pair once
                cj = new_id[com[j]]
                if ci == cj:
                    adj[ci][ci] = adj[ci].get(ci, 0.0) + w
                else:
                    adj[ci][cj] = adj[ci].get(cj, 0.0) + w
                    adj[cj][ci] = adj[cj].get(ci, 0.0) + w
    return _WorkGraph(adj), new_id


def cluster_channels(graph: ChannelGraph) -> Partition:
    """Louvain community detection over the channel graph.

    Deterministic for a fixed input; modularity never decreases across
    phases. Isolated nodes (or a graph with no edges) each form their own
    community.
    """
    if len(graph) == 0:
        raise ValueError("cannot cluster an empty graph")
    if graph.total_edge_weight() == 0:
        return Partition.singletons(graph.nodes)

    work = _WorkGraph({n: dict(graph.neighbors(n)) for n in graph.nodes})
    membership = {n: n for n in graph.nodes}  # original node -> current work node
    com = {n: i for i, n in enumerate(sorted(work.adj))}
    q_prev = _work_modularity(work, com)

    while True:
        moved = _local_phase(work, com)
        if not moved:
            break
        q_now = _work_modularity(work, com)
        membership = {orig: com[node] for orig, node in membership.items()}
        work, new_id = _aggregate(work, com)
        membership = {orig: new_id[cid] for orig, cid in membership.items()}
        com = {n: n for n in work.adj}
        if q_now - q_prev < CONVERGENCE_TOL:
            break
        q_prev = q_now

    # Dense, deterministic relabel: communities ordered by smallest member key.
    min_member: dict[int, str] = {}
    for node in sorted(membership):
        min_member.setdefault(membership[node], node)
    relabel = {cid: idx for idx, (cid, _) in enumerate(sorted(min_member.items(), key=lambda kv: kv[1]))}
    return Partition({node: relabel[cid] for node, cid in membership.items()})
