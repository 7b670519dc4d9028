import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcover.errors import FormatError
from xcover.instances import (
    EXACT,
    FWD,
    PARTIAL,
    PLAIN,
    REV,
    UND,
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
    assert parse_instance("p setcover 3 2\r\n0 1\r\n1 2\r\n", "setcover") == inst


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
    (b"\xffp setcover 2 1\n0 1\n", 1),
    (b"p setcover 2 1\n0 \xff1\n", 2),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert err.value.line == line


# one case per FormatError branch of the header checks and the three body
# parsers: (text, kind, line, message without its "line N: " prefix)
@pytest.mark.parametrize("text,kind,line,message", [
    ("", None, 1, "empty input"),
    ("c only a comment\n", None, 1, "empty input"),
    ("\np setcover 1 0\n", None, 1, "empty input"),
    ("\r\np setcover 1 0\n", None, 1, "empty input"),
    ("q setcover 3 2\n", None, 1, "malformed header, expected 'p <kind> ...'"),
    ("p\n", None, 1, "malformed header, expected 'p <kind> ...'"),
    ("c lead\np wobble 3 2\n", None, 2, "unknown record kind 'wobble'"),
    ("p wobble 3 2\n0 1\n1 2\n", None, 1, "unknown record kind 'wobble'"),
    ("p setcover 3 0\n", "digraph", 1, "expected a digraph record, found 'setcover'"),
    (b"\xffp setcover 2 1\n0 1\n", None, 1, "not UTF-8 text (invalid start byte)"),
    (b"p setcover 2 1\n0 \xff1\n", None, 2, "not UTF-8 text (invalid start byte)"),
    ("p setcover 3\n", None, 1, "malformed setcover header"),
    ("p partialcover 3 1\n0\n", None, 1, "malformed partialcover header"),
    ("p setcover x 1\n0\n", None, 1, "expected integer n, got 'x'"),
    ("p setcover 3 y\n0\n", None, 1, "expected integer m, got 'y'"),
    ("p partialcover 3 1 z\n0\n", None, 1, "expected integer p, got 'z'"),
    ("p setcover -1 0\n", None, 1, "expected non-negative integer n, got '-1'"),
    ("p exactcover 3 -1\n", None, 1, "expected non-negative integer m, got '-1'"),
    ("p partialcover -2 0 0\n", None, 1, "expected non-negative integer n, got '-2'"),
    ("p setcover 3 2\n0 1\n", None, 2, "expected 2 set lines, found 1"),
    ("p setcover 3 1\n", None, 1, "expected 1 set lines, found 0"),
    ("p setcover 3 1\n0 one\n", None, 2, "expected integer element index, got 'one'"),
    ("p setcover 3 2\n0 1\n1 3\n", None, 3, "element index 3 out of range [0, 3)"),
    ("p setcover 3 2\r\n0 1\r\n1 3\r\n", None, 3, "element index 3 out of range [0, 3)"),
    ("p setcover 3 2\n0 7\n1 2\n", None, 2, "element index 7 out of range [0, 3)"),
    ("p setcover 3 1\n-1 0\n", None, 2, "element index -1 out of range [0, 3)"),
    ("p partialcover 3 1 4\n0 1\n", None, 1, "coverage target p=4 out of range [0, 3]"),
    ("p digraph 3\n", None, 1, "malformed digraph header"),
    ("p graph 3 1 1\n0 1\n", None, 1, "malformed graph header"),
    ("p digraph x 1\n0 1\n", None, 1, "expected integer n, got 'x'"),
    ("p digraph 3 y\n0 1\n", None, 1, "expected integer m, got 'y'"),
    ("p digraph -2 0\n", None, 1, "expected non-negative integer n, got '-2'"),
    ("p graph 3 -1\n", None, 1, "expected non-negative integer m, got '-1'"),
    ("p digraph 3 2\n0 1\n", None, 2, "expected 2 edge lines, found 1"),
    ("p graph 3 1\n", None, 1, "expected 1 edge lines, found 0"),
    ("p digraph 3 1\n0 1 2\n", None, 2, "expected edge line '<u> <v>'"),
    ("p digraph 3 1\n0\n", None, 2, "expected edge line '<u> <v>'"),
    ("p digraph 3 1\na 1\n", None, 2, "expected integer node, got 'a'"),
    ("p digraph 3 1\n0 b\n", None, 2, "expected integer node, got 'b'"),
    ("p digraph 3 1\n2 2\n", None, 2, "self-loop at node 2"),
    ("p digraph 2 1\n1 1\n", None, 2, "self-loop at node 1"),
    ("c x\r\np digraph 3 2\r\n0 1\r\n1 1\r\n", None, 4, "self-loop at node 1"),
    ("p digraph 3 1\n0 3\n", None, 2, "edge (0, 3) out of range [0, 3)"),
    ("p graph 3 1\n-1 2\n", None, 2, "edge (-1, 2) out of range [0, 3)"),
    ("p digraph 3 2\n0 1\n0 1\n", None, 3, "duplicate edge (0, 1)"),
    ("p digraph 2 2\n0 1\n0 1\n", None, 3, "duplicate edge (0, 1)"),
    ("p graph 3 2\n0 1\n1 0\n", None, 3, "duplicate edge (1, 0)"),
    ("p tree\n", None, 1, "malformed tree header"),
    ("p tree 3 1\n0 1\n0 2\n", None, 1, "malformed tree header"),
    ("p tree k\n", None, 1, "expected integer k, got 'k'"),
    ("p tree 0\n", None, 1, "tree needs at least one node"),
    ("p tree 3\n0 1\n", None, 2, "expected 2 edge lines, found 1"),
    ("p tree 2\n", None, 1, "expected 1 edge lines, found 0"),
    ("p tree 2\n0\n", None, 2, "expected '<parent> <child> [fwd|rev]'"),
    ("p tree 2\n0 1 fwd extra\n", None, 2, "expected '<parent> <child> [fwd|rev]'"),
    ("p tree 2\nx 1\n", None, 2, "expected integer parent, got 'x'"),
    ("p tree 2\n0 y\n", None, 2, "expected integer child, got 'y'"),
    ("p tree 2\n0 2\n", None, 2, "node out of range [0, 2)"),
    ("p tree 2\n0 -1\n", None, 2, "node out of range [0, 2)"),
    ("p tree 3\n-2 1\n0 1\n", None, 2, "node out of range [0, 3)"),
    ("p tree 3\n0 1\n2 1\n", None, 3, "node 1 has two parents"),
    ("p tree 2\n0 1 und\n", None, 2, "bad orientation token 'und'"),
    ("p tree 3\n0 1\n1 0\n", None, 1,
     "non-tree parent array: parent array does not connect all nodes to the root"),
    ("p tree 3\n0 1 fwd\n0 2\n", None, 1,
     "non-tree parent array: orientation must be uniform: all und or all oriented"),
    ("p tree 3\n1 2\n2 1\n", None, 1,
     "non-tree parent array: parent array does not connect all nodes to the root"),
    ("p tree 2\n1 1\n", None, 1,
     "non-tree parent array: parent array does not connect all nodes to the root"),
])
def test_parse_error_messages_are_pinned(text, kind, line, message):
    with pytest.raises(FormatError) as err:
        parse_instance(text, kind)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_wrong_kind_rejected():
    with pytest.raises(FormatError):
        parse_instance("p setcover 3 0\n", "digraph")


def test_oriented_tree_round_trip():
    text = "p tree 3\n0 1 fwd\n0 2 rev\n"
    tree = parse_instance(text)
    assert tree.orientation[1:] == ("fwd", "rev")
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


def test_random_two_node_trees_match_the_pinned_digest():
    """Seeds 0-99, unoriented and oriented, taken at commit 8e056de, when
    k = 2 still skipped the Pruefer path."""
    text = "".join(serialize_instance(gen_random("tree", seed=s, k=2, oriented=o))
                   for s in range(100) for o in (False, True))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aa1348bcb7d922b6bb9fc496f7acc0f885e11007113ac32af1c3bac35910bad3")


def test_random_digraph_edge_bound():
    g = gen_random("digraph", seed=3, n=8, edge_probability=0.5)
    assert 0 <= len(g.edges) <= 56


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


@st.composite
def _cover_instances(draw):
    n = draw(st.integers(0, 12))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=n) if n else
                         st.just(frozenset()), max_size=8))
    variant = draw(st.sampled_from([PLAIN, EXACT, PARTIAL]))
    p = draw(st.integers(0, n)) if variant == PARTIAL else None
    return SetCoverInstance(n, tuple(tuple(s) for s in sets), variant=variant, p=p)


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return Digraph(n, edges, undirected_mode=draw(st.booleans()))


@st.composite
def _pattern_trees(draw):
    k = draw(st.integers(1, 10))
    label = draw(st.permutations(range(k)))
    oriented = draw(st.booleans())
    parent = [-1] * k
    orientation = [UND] * k
    for i in range(1, k):
        parent[label[i]] = label[draw(st.integers(0, i - 1))]
        if oriented:
            orientation[label[i]] = draw(st.sampled_from([FWD, REV]))
    return PatternTree(k, label[0], tuple(parent), tuple(orientation))


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_adjacency_table_matches_the_edges(G):
    """``masks_along`` and ``at_least`` against neighbour sets read off
    ``edges``; directed graphs from ordered pairs often hold both arcs of a
    pair.  An undirected host files one table under every orientation."""
    arcs = set(G.edges)
    if G.undirected_mode:
        arcs |= {(v, u) for u, v in G.edges}
    for u in range(G.num_nodes):
        want = {FWD: {v for a, v in arcs if a == u}, REV: {a for a, v in arcs if v == u}}
        want[UND] = want[FWD] | want[REV]
        for o, nodes in want.items():
            assert G.masks_along[o][u] == sum(1 << v for v in nodes), (u, o)
            for c in range(G.num_nodes + 1):
                assert (G.at_least[o][c] >> u & 1) == (len(nodes) >= c), (u, o, c)
    if G.undirected_mode:
        for table in (G.masks_along, G.at_least):
            assert table[FWD] is table[REV] is table[UND]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_cover_instances(), _graphs(), _pattern_trees()))
def test_serialize_parse_round_trip(value):
    # delta is not part of the text format, so the drawn instances carry none
    text = serialize_instance(value)
    assert parse_instance(text) == value
    assert serialize_instance(parse_instance(text)) == text


def _old_normalization(n, sets, delta):
    """The set normalisation and checks of SetCoverInstance before its range
    check looked at the ends of each sorted set only."""
    norm = tuple(sorted(tuple(sorted(set(s))) for s in sets))
    for s in norm:
        for e in s:
            if not 0 <= e < n:
                raise ValueError(f"element {e} out of range [0, {n})")
    if delta is not None:
        for s in norm:
            if len(s) > delta:
                raise ValueError(f"set of size {len(s)} exceeds delta={delta}")
    return norm


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), delta=st.none() | st.integers(1, 4))
def test_constructor_matches_the_old_normalization(data, n, delta):
    # unsorted sets with repeated elements, some of them negative or >= n
    sets = data.draw(st.lists(st.lists(st.integers(-3, n + 2), max_size=6), max_size=6))
    try:
        want = _old_normalization(n, sets, delta)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            SetCoverInstance(n, tuple(tuple(s) for s in sets), delta=delta)
        assert str(got.value) == str(exc)
    else:
        assert SetCoverInstance(n, tuple(tuple(s) for s in sets), delta=delta).sets == want


def _seeded_value(rng):
    """A set system, digraph or pattern tree drawn from ``rng``, shaped as
    the strategies above draw them."""
    shape = rng.randrange(3)
    if shape == 0:
        n = rng.randint(0, 12)
        sets = tuple(tuple(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 8)))
        variant = rng.choice([PLAIN, EXACT, PARTIAL])
        return SetCoverInstance(n, sets, variant, rng.randint(0, n) if variant == PARTIAL else None)
    if shape == 1:
        n = rng.randint(0, 8)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        return Digraph(n, frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))), rng.random() < 0.5)
    k = rng.randint(1, 10)
    label = list(range(k))
    rng.shuffle(label)
    oriented = rng.random() < 0.5
    parent, orientation = [-1] * k, [UND] * k
    for i in range(1, k):
        parent[label[i]] = label[rng.randrange(i)]
        if oriented:
            orientation[label[i]] = rng.choice([FWD, REV])
    return PatternTree(k, label[0], tuple(parent), tuple(orientation))


def test_parse_outcomes_match_the_pinned_digest():
    """parse_instance on 6,000 seeded serialized instances with up to three
    dropped, repeated, commented or retokenized lines, each text read as
    str, as UTF-8 bytes and with CRLF line ends.  An outcome is the value's
    type and text, or the exception's type, line and message; the digest
    was taken at commit e5ab3ab, which parsed a text twice, in bulk and
    then token by token wherever the bulk read failed a check."""
    tokens = ["0", "1", "2", "-1", "-2", "9", "x", "fwd", "rev", "und", "c", "p", "tree", "graph",
              "setcover", "partialcover", "", " ", "\r"]
    kinds = [None] * 5 + ["setcover", "partialcover", "digraph", "graph", "tree"]
    rng = random.Random(39)
    digest = hashlib.sha256()
    for _ in range(6000):
        lines = serialize_instance(_seeded_value(rng)).split("\n")
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(lines))
            edit = rng.choice(["drop", "repeat", "comment", "token", "append"])
            if edit == "drop" and len(lines) > 1:
                del lines[i]
            elif edit == "repeat":
                lines.insert(i, lines[rng.randrange(len(lines))])
            elif edit == "comment":
                lines.insert(i, "c " + rng.choice(tokens))
            else:
                words = lines[i].split(" ")
                if edit == "append":
                    words += rng.choices(tokens, k=rng.randint(1, 2))
                else:
                    words[rng.randrange(len(words))] = rng.choice(tokens)
                lines[i] = " ".join(words)
        text, kind = "\n".join(lines), rng.choice(kinds)
        for form in (text, text.encode(), text.replace("\n", "\r\n")):
            try:
                value = parse_instance(form, kind)
                outcome = (type(value).__name__, serialize_instance(value))
            except Exception as exc:  # noqa: BLE001 - any exception type is part of the pin
                outcome = (type(exc).__name__, getattr(exc, "line", None), str(exc))
            digest.update(repr(outcome).encode())
    assert digest.hexdigest() == (
        "da5f8f95a31ed2073b09a69806e1977053b906cef61ed769dc0bf4fb060aa1d0")


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


def test_trees_whose_ids_are_not_parent_first():
    # a parent after its child, and a root other than 0: the reachability
    # check decides these
    T = PatternTree(5, 2, (3, 2, -1, 2, 3), ("und",) * 5)
    assert T.children == ((), (), (1, 3), (0, 4), ())
    assert T.post_order == (4, 0, 3, 1, 2)
    assert PatternTree(3, 0, (-1, 2, 0), ("fwd",) * 3).post_order == (1, 2, 0)
    # nodes 1 and 2 are each other's parent; node 3 hangs below the cycle
    for parent in ((-1, 2, 1), (-1, 2, 1, 1), (-1, 0, 3, 3), (-1, 1, 0)):
        with pytest.raises(ValueError, match="does not connect all nodes to the root"):
            PatternTree(len(parent), 0, parent, ("und",) * len(parent))
    with pytest.raises(FormatError, match="does not connect all nodes to the root"):
        parse_instance("p tree 4\n0 1\n3 2\n2 3\n")
