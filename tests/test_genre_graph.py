"""Distance matrices, dendrograms, MSTs, centrality, and DOT export."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lexpalo import genre_graph
from lexpalo.errors import NormError, ZeroDistanceError
from lexpalo.genre_graph import (
    DistanceMatrix,
    closeness_centrality,
    complete_graph,
    distance_matrix,
    export_dot,
    hierarchical_cluster,
    minimum_spanning_tree,
)
from lexpalo.vectorize import build_vocabulary, genre_vectors, tfidf

import oracles
from helpers import distance, labeled_corpus


def matrix_from(labels, entries):
    """Build a DistanceMatrix from {(a, b): distance} over label names."""
    n = len(labels)
    values = np.zeros((n, n))
    pos = {lab: i for i, lab in enumerate(labels)}
    for (a, b), d in entries.items():
        values[pos[a], pos[b]] = values[pos[b], pos[a]] = d
    return DistanceMatrix(labels=tuple(labels), values=values)


def random_distance_matrix(rng, n, lo=0.05, hi=1.0):
    labels = tuple(f"g{i}" for i in range(n))
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = rng.uniform(lo, hi)
    return DistanceMatrix(labels=labels, values=values)


FOUR = matrix_from(
    "abcd",
    {
        ("a", "b"): 0.1, ("a", "c"): 0.3, ("a", "d"): 0.7,
        ("b", "c"): 0.5, ("b", "d"): 0.9, ("c", "d"): 0.45,
    },
)


# ---------------------------------------------------------------------------
# DistanceMatrix construction


def test_distance_matrix_validates_its_invariants():
    with pytest.raises(ValueError, match="symmetric"):
        DistanceMatrix(("a", "b"), np.array([[0.0, 0.2], [0.3, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        DistanceMatrix(("a", "b"), np.array([[0.1, 0.2], [0.2, 0.0]]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        DistanceMatrix(("a", "b"), np.array([[0.0, 1.2], [1.2, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        DistanceMatrix(("a", "b", "c"), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# distance_matrix from genre vectors


def unit(*components):
    v = np.asarray(components, dtype=float)
    return v / np.linalg.norm(v)


def test_distances_identical_vectors_are_zero():
    v = unit(1, 2, 3)
    m = distance_matrix({"x": v, "y": v.copy()})
    assert distance(m, "x", "y") == 0.0


def test_distances_disjoint_support_is_one():
    m = distance_matrix({"x": unit(1, 1, 0, 0), "y": unit(0, 0, 2, 1)})
    assert distance(m, "x", "y") == 1.0


def test_distances_labels_are_sorted():
    v = unit(1, 0)
    m = distance_matrix({"zeta": v, "alfa": v, "mar": v})
    assert m.labels == ("alfa", "mar", "zeta")


def test_distances_hand_value():
    m = distance_matrix({"x": unit(1, 0), "y": unit(1, 1)})
    assert distance(m, "x", "y") == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)


def test_distances_rejects_non_unit_vectors():
    with pytest.raises(NormError, match="'y'"):
        distance_matrix({"x": unit(1, 2), "y": np.array([0.5, 0.0])})


def test_distances_requires_two_vectors():
    with pytest.raises(ValueError):
        distance_matrix({"x": unit(1, 2)})


def test_distances_accepts_dense_tfidf_rows():
    c = labeled_corpus({"A": ["mar sol arena"], "B": ["pena noche"]})
    vocab = build_vocabulary(c)
    rows = tfidf(c, vocab).matrix.toarray()
    m = distance_matrix({"A": rows[0], "B": rows[1]})
    assert distance(m, "A", "B") == 1.0  # disjoint vocabularies
    assert distance(distance_matrix(genre_vectors(c)), "A", "B") == 1.0


def test_distances_negative_dot_clamps_to_one():
    m = distance_matrix({"x": unit(1, -1), "y": unit(1, 1)})
    assert distance(m, "x", "y") == pytest.approx(1.0, abs=1e-12)
    third = unit(-1, 0)
    m2 = distance_matrix({"x": unit(1, 0), "y": third})
    assert distance(m2, "x", "y") == 1.0  # dot = -1 clamps at the cap


BLAS_THREADS_SCRIPT = """
import numpy as np
from lexpalo.genre_graph import distance_matrix
rng = np.random.default_rng(5)
vectors = {}
for label in "abcdefgh":
    vec = rng.random(60_000) * (rng.random(60_000) < 0.3)
    vectors[label] = vec / np.sqrt(np.sum(vec * vec))  # np.linalg.norm uses BLAS
print(distance_matrix(vectors).values.tobytes().hex())
"""


def test_distances_do_not_depend_on_the_blas_thread_count():
    # vectors long enough for OpenBLAS to split a dot product across threads
    src = str(Path(genre_graph.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_distances_random_unit_vectors_satisfy_matrix_invariants():
    rng = np.random.default_rng(17)
    for _ in range(20):
        vectors = {
            f"g{i}": unit(*rng.uniform(0.0, 1.0, size=6)) for i in range(5)
        }
        m = distance_matrix(vectors)
        assert np.allclose(m.values, m.values.T, atol=1e-15)
        assert np.all(np.diag(m.values) == 0.0)
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0


# ---------------------------------------------------------------------------
# hierarchical clustering


def test_cluster_two_nodes_single_merge_any_linkage():
    m = matrix_from("ab", {("a", "b"): 0.4})
    for linkage in ("average", "single", "complete"):
        dendro = hierarchical_cluster(m, linkage=linkage)
        assert dendro.merges == ((0, 1, 0.4, 2),)
        assert dendro.linkage == linkage


def test_cluster_three_nodes_merges_closest_pair_first():
    m = matrix_from(
        "abc", {("a", "b"): 0.1, ("a", "c"): 0.9, ("b", "c"): 0.9}
    )
    dendro = hierarchical_cluster(m, linkage="average")
    assert dendro.merges == ((0, 1, 0.1, 3), (2, 3, 0.9, 4))


def test_cluster_average_linkage_weights_by_cluster_size():
    dendro = hierarchical_cluster(FOUR, linkage="average")
    # {a,b} at 0.1; c joins at mean(0.3, 0.5) = 0.4; d joins the trio at
    # the size-weighted mean of d(c,d) and the pair average of d(a,d), d(b,d)
    final = (1 * 0.45 + 2 * ((0.7 + 0.9) / 2)) / 3
    assert dendro.merges == (
        (0, 1, 0.1, 4), (2, 4, 0.4, 5), (3, 5, final, 6),
    )


def test_cluster_single_linkage_takes_minimum():
    dendro = hierarchical_cluster(FOUR, linkage="single")
    assert dendro.merges == (
        (0, 1, 0.1, 4), (2, 4, 0.3, 5), (3, 5, 0.45, 6),
    )


def test_cluster_complete_linkage_takes_maximum():
    dendro = hierarchical_cluster(FOUR, linkage="complete")
    assert dendro.merges == (
        (0, 1, 0.1, 4), (2, 3, 0.45, 5), (4, 5, 0.9, 6),
    )


def test_cluster_ties_break_on_smallest_id_pair():
    labels = ("a", "b", "c", "d")
    values = np.full((4, 4), 0.5)
    np.fill_diagonal(values, 0.0)
    dendro = hierarchical_cluster(DistanceMatrix(labels, values))
    assert [(a, b) for a, b, _, _ in dendro.merges] == [(0, 1), (2, 3), (4, 5)]
    assert all(d == 0.5 for _, _, d, _ in dendro.merges)


def test_cluster_merge_heights_are_monotone_on_random_matrices():
    rng = random.Random(23)
    for linkage in ("average", "single", "complete"):
        for _ in range(15):
            m = random_distance_matrix(rng, rng.randint(3, 7))
            merges = hierarchical_cluster(m, linkage=linkage).merges
            heights = [d for _, _, d, _ in merges]
            assert heights == sorted(heights)
            assert len(merges) == len(m.labels) - 1
            # each cluster id participates in exactly one merge
            children = [x for a, b, _, _ in merges for x in (a, b)]
            assert len(children) == len(set(children))


def test_cluster_rejects_unknown_linkage():
    with pytest.raises(ValueError, match="linkage"):
        hierarchical_cluster(FOUR, linkage="ward")


# ---------------------------------------------------------------------------
# minimum spanning tree


def test_mst_three_nodes_keeps_two_lightest_edges():
    m = matrix_from(
        "abc", {("a", "b"): 0.1, ("a", "c"): 0.2, ("b", "c"): 0.3}
    )
    tree = minimum_spanning_tree(m)
    assert tree.kind == "mst"
    assert tree.edges == (("a", "b", 0.1), ("a", "c", 0.2))


def test_mst_equal_weights_resolve_to_star_at_first_label():
    labels = ("a", "b", "c", "d")
    values = np.full((4, 4), 0.5)
    np.fill_diagonal(values, 0.0)
    tree = minimum_spanning_tree(DistanceMatrix(labels, values))
    assert tree.edges == (
        ("a", "b", 0.5), ("a", "c", 0.5), ("a", "d", 0.5),
    )


def test_mst_spans_all_nodes_without_cycles():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = random_distance_matrix(rng, n)
        tree = minimum_spanning_tree(m)
        assert len(tree.edges) == n - 1
        reached = {tree.nodes[0]}
        frontier = True
        while frontier:
            frontier = False
            for u, v, _ in tree.edges:
                if (u in reached) != (v in reached):
                    reached.update((u, v))
                    frontier = True
        assert reached == set(tree.nodes)


def test_mst_weight_matches_exhaustive_enumeration_n5():
    trees = oracles.all_labeled_trees(5)
    rng = random.Random(600)
    for _ in range(20):
        m = random_distance_matrix(rng, 5)
        got = sum(w for _, _, w in minimum_spanning_tree(m).edges)
        best = oracles.min_spanning_weight(m.values.tolist(), trees)
        assert abs(got - best) < 1e-12


def test_mst_is_stable_when_a_nonmember_edge_gets_heavier():
    rng = random.Random(77)
    for _ in range(10):
        m = random_distance_matrix(rng, 6, hi=0.9)
        tree = minimum_spanning_tree(m)
        member_pairs = {frozenset((u, v)) for u, v, _ in tree.edges}
        outside = [
            (i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if frozenset((m.labels[i], m.labels[j])) not in member_pairs
        ]
        i, j = max(outside, key=lambda ij: m.values[ij])
        bumped = m.values.copy()
        bumped[i, j] = bumped[j, i] = 1.0
        again = minimum_spanning_tree(DistanceMatrix(m.labels, bumped))
        assert again.edges == tree.edges


def test_mst_is_deterministic():
    rng = random.Random(4)
    m = random_distance_matrix(rng, 6)
    assert minimum_spanning_tree(m) == minimum_spanning_tree(m)


def test_complete_graph_has_all_pairs():
    g = complete_graph(FOUR)
    assert g.kind == "complete"
    assert len(g.edges) == 6
    assert ("a", "d", 0.7) in g.edges


# ---------------------------------------------------------------------------
# closeness centrality


def test_closeness_equal_distances_give_inverse_distance():
    labels = ("a", "b", "c", "d")
    values = np.full((4, 4), 0.25)
    np.fill_diagonal(values, 0.0)
    centrality = closeness_centrality(DistanceMatrix(labels, values))
    assert centrality == {lab: pytest.approx(4.0) for lab in labels}


def test_closeness_halves_when_total_distance_doubles():
    m = matrix_from(
        "abc", {("a", "b"): 0.2, ("a", "c"): 0.2, ("b", "c"): 0.6}
    )
    centrality = closeness_centrality(m)
    assert centrality["a"] == pytest.approx(2 / 0.4)
    assert centrality["b"] == pytest.approx(2 / 0.8)
    assert centrality["a"] == pytest.approx(2 * centrality["b"])


def test_closeness_matches_direct_formula_on_random_matrices():
    rng = random.Random(88)
    for _ in range(10):
        n = rng.randint(2, 7)
        m = random_distance_matrix(rng, n)
        centrality = closeness_centrality(m)
        for i, lab in enumerate(m.labels):
            expected = (n - 1) / float(m.values[i].sum())
            assert centrality[lab] == pytest.approx(expected, abs=1e-15)


def test_closeness_rejects_zero_distances_between_distinct_genres():
    m = matrix_from("abc", {("a", "b"): 0.0, ("a", "c"): 0.5, ("b", "c"): 0.5})
    with pytest.raises(ZeroDistanceError):
        closeness_centrality(m)


# ---------------------------------------------------------------------------
# DOT export


NODE_RE = re.compile(r'^  "(.+)" \[centrality=(.+)\];$')
EDGE_RE = re.compile(r'^  "(.+)" -- "(.+)" \[weight=(.+)\];$')


def test_export_dot_two_node_graph():
    m = matrix_from("ab", {("a", "b"): 0.4})
    dot = export_dot(minimum_spanning_tree(m), m)
    lines = dot.splitlines()
    assert lines[0] == "graph mst {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if NODE_RE.match(l)) == 2
    assert sum(1 for l in lines if EDGE_RE.match(l)) == 1


def test_export_dot_mst_has_n_minus_one_edge_lines():
    m = random_distance_matrix(random.Random(9), 5)
    dot = export_dot(minimum_spanning_tree(m), m)
    assert sum(1 for l in dot.splitlines() if EDGE_RE.match(l)) == 4


def test_export_dot_roundtrips_weights_and_centralities_exactly():
    m = random_distance_matrix(random.Random(10), 6)
    tree = minimum_spanning_tree(m)
    centrality = closeness_centrality(m)
    parsed_edges = []
    parsed_nodes = {}
    for line in export_dot(tree, m).splitlines():
        if edge := EDGE_RE.match(line):
            parsed_edges.append(
                (edge.group(1), edge.group(2), float(edge.group(3)))
            )
        elif node := NODE_RE.match(line):
            parsed_nodes[node.group(1)] = float(node.group(2))
    assert tuple(parsed_edges) == tree.edges
    for u, v, w in parsed_edges:
        assert w == distance(m, u, v)  # repr precision survives the round-trip
    assert parsed_nodes == centrality


def test_export_dot_orders_nodes_deterministically():
    m = matrix_from(
        ("zeta", "alfa", "mar"),
        {("zeta", "alfa"): 0.3, ("zeta", "mar"): 0.4, ("alfa", "mar"): 0.5},
    )
    dot = export_dot(complete_graph(m), m)
    names = [mo.group(1) for mo in map(NODE_RE.match, dot.splitlines()) if mo]
    assert names == ["alfa", "mar", "zeta"]


def test_export_dot_rejects_uncovered_nodes():
    m = matrix_from("ab", {("a", "b"): 0.4})
    other = matrix_from("ac", {("a", "c"): 0.4})
    with pytest.raises(ValueError):
        export_dot(minimum_spanning_tree(other), m)
