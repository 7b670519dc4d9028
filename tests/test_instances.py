import random

import pytest

from xcover.errors import FormatError, PreconditionError
from xcover.instances import (
    Digraph,
    PatternTree,
    SetCoverInstance,
    gen_planted,
    gen_random,
    parse_instance,
    serialize_instance,
)
from xcover.solvers import verify_cover, verify_embedding, verify_ham_cycle


def test_parse_setcover_example():
    inst = parse_instance("p setcover 3 2\n0 1\n1 2\n", "setcover")
    assert inst.n == 3
    assert inst.sets == ((0, 1), (1, 2))
    assert inst.variant == "plain"


def test_parse_single_node_tree():
    tree = parse_instance("p tree 1\n", "tree")
    assert tree.k == 1
    assert tree.parent == (-1,)


def test_parse_antiparallel_digraph():
    g = parse_instance("p digraph 2 2\n0 1\n1 0\n", "digraph")
    assert g.edges == frozenset({(0, 1), (1, 0)})
    assert not g.undirected_mode


def test_serialize_sorts_sets():
    inst = SetCoverInstance(3, ((1, 2), (0, 1)))
    assert serialize_instance(inst) == "p setcover 3 2\n0 1\n1 2\n"


def test_serialize_degenerate_tree():
    tree = PatternTree(1, 0, (-1,), ("und",))
    assert serialize_instance(tree) == "p tree 1\n"


def test_serialize_empty_digraph():
    g = Digraph(2, frozenset())
    assert serialize_instance(g) == "p digraph 2 0\n"


def test_partialcover_header_round_trip():
    text = "p partialcover 5 2 3\n0 1\n2 3 4\n"
    inst = parse_instance(text)
    assert inst.variant == "partial" and inst.p == 3
    assert serialize_instance(inst) == text


def test_comments_ignored():
    inst = parse_instance("c a comment\np setcover 2 1\nc another\n0 1\n")
    assert inst.sets == ((0, 1),)


@pytest.mark.parametrize("text,line", [
    ("p wobble 3 2\n0 1\n1 2\n", 1),
    ("p setcover 3 2\n0 7\n1 2\n", 2),
    ("p digraph 2 2\n0 1\n0 1\n", 3),
    ("p tree 3\n0 1\n1 0\n", 1),
    ("p digraph 2 1\n1 1\n", 2),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert err.value.line == line


def test_wrong_kind_rejected():
    with pytest.raises(FormatError):
        parse_instance("p setcover 3 0\n", "digraph")


def test_oriented_tree_round_trip():
    text = "p tree 3\n0 1 fwd\n0 2 rev\n"
    tree = parse_instance(text)
    assert tree.oriented
    assert serialize_instance(tree) == text


def test_mixed_orientation_rejected():
    with pytest.raises(FormatError):
        parse_instance("p tree 3\n0 1 fwd\n0 2\n")


def test_nontree_parent_array_rejected():
    # nodes 1 and 2 form a cycle; node 0 is isolated
    with pytest.raises(FormatError):
        parse_instance("p tree 3\n1 2\n2 1\n")


def test_empty_set_lines_survive_round_trip():
    inst = SetCoverInstance(3, ((), (0, 2)))
    text = serialize_instance(inst)
    assert parse_instance(text) == inst


def test_generator_determinism():
    a = gen_random("setcover", seed=7, n=6, m=4, max_set_size=2)
    b = gen_random("setcover", seed=7, n=6, m=4, max_set_size=2)
    assert serialize_instance(a) == serialize_instance(b)
    assert gen_random("digraph", seed=3, n=8, edge_probability=0.5) == \
        gen_random("digraph", seed=3, n=8, edge_probability=0.5)


def test_random_tree_shape():
    tree = gen_random("tree", seed=1, k=5)
    assert tree.k == 5
    assert sum(1 for v in range(5) if tree.parent[v] != -1) == 4


def test_random_digraph_edge_bound():
    g = gen_random("digraph", seed=3, n=8, edge_probability=0.5)
    assert 0 <= len(g.edges) <= 56


def test_distinct_sets_infeasible():
    with pytest.raises(PreconditionError):
        gen_random("setcover", seed=0, n=2, m=5, max_set_size=1, distinct=True)


def test_planted_ham_cycle_verifies():
    g, order = gen_planted("ham_cycle", seed=2, n=6, extra_edges=4)
    assert verify_ham_cycle(g, order)


def test_planted_embedding_verifies():
    g, tree, mapping = gen_planted("embedded_tree", seed=5, k=4, host_n=7)
    assert verify_embedding(g, tree, mapping)


def test_planted_cover_verifies():
    inst, witness = gen_planted("covered_universe", seed=9, n=8, m=5)
    assert verify_cover(inst, witness)
    assert set().union(*(set(s) for s in inst.sets)) == set(range(8))


def test_round_trip_fuzz():
    rng = random.Random(0)
    for t in range(150):
        kind = rng.choice(["setcover", "exactcover", "partialcover",
                           "digraph", "graph", "tree"])
        if kind in ("setcover", "exactcover", "partialcover"):
            n = rng.randint(1, 14)
            params = {"n": n, "m": rng.randint(0, 7), "max_set_size": rng.randint(1, n)}
            if kind == "partialcover":
                params["p"] = rng.randint(0, n)
            value = gen_random(kind, seed=t, **params)
        elif kind == "tree":
            value = gen_random("tree", seed=t, k=rng.randint(1, 20),
                               oriented=rng.random() < 0.5)
        else:
            value = gen_random(kind, seed=t, n=rng.randint(1, 12),
                               edge_probability=rng.random())
        text = serialize_instance(value)
        assert parse_instance(text) == value
        assert serialize_instance(parse_instance(text)) == text


def test_duplicate_sets_are_kept():
    inst = SetCoverInstance(3, ((0, 1), (0, 1), (2,)))
    assert inst.m == 3
    assert inst.sets.count((0, 1)) == 2
    text = serialize_instance(inst)
    assert parse_instance(text) == inst


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        SetCoverInstance(3, ((0, 5),))
    with pytest.raises(ValueError):
        SetCoverInstance(3, ((0, 1),), variant="partial", p=9)
    with pytest.raises(ValueError):
        SetCoverInstance(3, ((0, 1, 2),), delta=2)
    with pytest.raises(ValueError):
        Digraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        PatternTree(3, 0, (-1, 0, 1), ("und", "fwd", "und"))


def test_post_order_puts_children_first_and_the_root_last():
    for seed in range(20):
        T = gen_random("tree", seed=seed, k=1 + seed)
        post = T.post_order
        assert sorted(post) == list(range(T.k)) and post[-1] == T.root
        where = {v: i for i, v in enumerate(post)}
        assert all(where[c] < where[v] for v in range(T.k) for c in T.children[v])
