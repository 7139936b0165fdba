"""Inter-genre geometry: cosine distance matrices, agglomerative dendrograms,
minimum spanning trees, closeness centrality, and DOT export.

All tie-breaks are deterministic and lexicographic so repeated runs emit
byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NormError, ZeroDistanceError

LINKAGES = ("average", "single", "complete")
_NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric cosine-distance matrix with zero diagonal, entries in [0, 1],
    rows/columns aligned with ``labels``."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        n = len(self.labels)
        if v.shape != (n, n):
            raise ValueError(f"matrix shape {v.shape} does not match {n} labels")
        if not np.allclose(v, v.T, atol=1e-12):
            raise ValueError("distance matrix is not symmetric")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("distances must lie in [0, 1]")


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge history: (cluster_a, cluster_b, distance, new_id)
    tuples, a < b, leaves numbered 0..n-1 in label order, new clusters n..."""

    labels: tuple[str, ...]
    merges: tuple[tuple[int, int, float, int], ...]
    linkage: str


@dataclass(frozen=True)
class GenreGraph:
    """Weighted undirected graph over palo nodes ("complete" or "mst")."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    kind: str


def distance_matrix(palo_vectors: dict[str, np.ndarray]) -> DistanceMatrix:
    """Cosine distances (1 - dot product) between unit-normalized dense genre
    vectors; labels are sorted lexicographically.

    Raises NormError when some vector is not unit length (tolerance 1e-6).
    """
    labels = tuple(sorted(palo_vectors))
    if len(labels) < 2:
        raise ValueError("need at least 2 genre vectors")
    dense = []
    for label in labels:
        vec = np.asarray(palo_vectors[label], dtype=float).ravel()
        norm = float(np.sqrt(np.sum(vec * vec)))  # np.linalg.norm wakes BLAS threads
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise NormError(
                f"vector for {label!r} has norm {norm:.9f}, expected 1"
            )
        dense.append(vec)
    n = len(labels)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            # summed without BLAS, whose threaded dot changes the last bits
            # with the thread count; clamp floating noise, since the dot of
            # unit vectors is within [-1, 1]
            dot = float(np.sum(dense[i] * dense[j]))
            d = min(1.0, max(0.0, 1.0 - dot))
            values[i, j] = values[j, i] = d
    return DistanceMatrix(labels=labels, values=values)


def hierarchical_cluster(
    m: DistanceMatrix, linkage: str = "average"
) -> Dendrogram:
    """Agglomerative clustering of the distance matrix.

    At every step the pair of active clusters at minimum distance merges
    (ties: lexicographically smallest (a, b) id pair); "average" linkage is
    size-weighted (UPGMA), "single" takes the min, "complete" the max.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    n = len(m.labels)
    dists: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dists[(i, j)] = float(m.values[i, j])
    sizes = {i: 1 for i in range(n)}
    merges = []
    next_id = n
    while dists:
        (a, b) = min(dists, key=lambda pair: (dists[pair], pair))
        d_ab = dists.pop((a, b))
        merges.append((a, b, d_ab, next_id))
        others = sorted(
            {x for pair in dists for x in pair if x not in (a, b)}
        )
        for c in others:
            d_ac = dists.pop((min(a, c), max(a, c)))
            d_bc = dists.pop((min(b, c), max(b, c)))
            if linkage == "average":
                d_new = (sizes[a] * d_ac + sizes[b] * d_bc) / (sizes[a] + sizes[b])
            elif linkage == "single":
                d_new = min(d_ac, d_bc)
            else:
                d_new = max(d_ac, d_bc)
            dists[(c, next_id)] = d_new
        sizes[next_id] = sizes[a] + sizes[b]
        next_id += 1
    return Dendrogram(labels=m.labels, merges=tuple(merges), linkage=linkage)


def complete_graph(m: DistanceMatrix) -> GenreGraph:
    """The full weighted graph over the matrix's genres."""
    n = len(m.labels)
    edges = tuple(
        (m.labels[i], m.labels[j], float(m.values[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
    )
    return GenreGraph(nodes=m.labels, edges=edges, kind="complete")


def minimum_spanning_tree(m: DistanceMatrix) -> GenreGraph:
    """Kruskal MST of the complete genre graph.

    Edges are considered in (weight, label pair) order, so equal-weight
    choices resolve lexicographically and the result is deterministic.
    """
    n = len(m.labels)
    candidates = sorted(
        (float(m.values[i, j]), m.labels[i], m.labels[j], i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    component = list(range(n))  # each genre's component label
    edges = []
    for w, lu, lv, i, j in candidates:
        if component[i] != component[j]:
            edges.append((lu, lv, w))
            component = [component[i] if c == component[j] else c for c in component]
            if len(edges) == n - 1:
                break
    return GenreGraph(nodes=m.labels, edges=tuple(edges), kind="mst")


def closeness_centrality(m: DistanceMatrix) -> dict[str, float]:
    """(n-1) / (sum of direct distances to all other genres), per genre.

    Raises ZeroDistanceError when two distinct genres sit at distance zero.
    """
    n = len(m.labels)
    off_diag = m.values[~np.eye(n, dtype=bool)]
    if np.any(off_diag == 0.0):
        raise ZeroDistanceError(
            "two distinct genres have distance 0; closeness is undefined"
        )
    sums = m.values.sum(axis=1)
    return {label: (n - 1) / float(s) for label, s in zip(m.labels, sums)}


def export_dot(g: GenreGraph, m: DistanceMatrix) -> str:
    """Render a genre graph as Graphviz DOT.

    Nodes carry closeness centrality (computed from ``m``) as an attribute;
    edges carry their weight. Output ordering is deterministic: nodes sorted,
    edges in graph order. Weights use repr precision so a parse of the DOT
    recovers them exactly.
    """
    if set(g.nodes) - set(m.labels):
        raise ValueError("graph nodes are not covered by the distance matrix")
    centrality = closeness_centrality(m)
    lines = [f"graph {g.kind} {{"]
    for node in sorted(g.nodes):
        lines.append(
            f"  {json.dumps(node, ensure_ascii=False)} "
            f"[centrality={centrality[node]!r}];"
        )
    for u, v, w in g.edges:
        lines.append(
            f"  {json.dumps(u, ensure_ascii=False)} -- "
            f"{json.dumps(v, ensure_ascii=False)} [weight={w!r}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
