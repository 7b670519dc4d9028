import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcover import kernels, solvers
from xcover.errors import BudgetExceededError, CapacityError, PreconditionError
from xcover.instances import (
    EXACT,
    PARTIAL,
    Digraph,
    PatternTree,
    SetCoverInstance,
    gen_planted,
    gen_random,
)
from xcover.partitions import Partition
from xcover.reductions import (
    build_host_graph,
    build_pattern_tree,
    leaf_partitions,
    solve_setcover_via_ktree,
)
from xcover.solvers import (
    MAX_EMBED_DEPTH,
    exactcover_solve,
    exactcover_with_large_sets,
    heldkarp_ham,
    ktree_colorcoding,
    partialcover_dp,
    setcover_bruteforce,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
    verify_embedding,
    verify_ham_cycle,
)


def oracle_min_cover(n, sets):
    """Independent exhaustive oracle over all sub-collections."""
    universe = set(range(n))
    for c in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), c):
            got = set()
            for j in combo:
                got.update(sets[j])
            if got == universe:
                return c
    return None


def oracle_min_exact_cover(n, sets):
    universe = set(range(n))
    for c in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), c):
            got = set()
            ok = True
            for j in combo:
                s = set(sets[j])
                if got & s:
                    ok = False
                    break
                got |= s
            if ok and got == universe:
                return c
    return None


# ---------------------------------------------------------------------------
# cover solvers
# ---------------------------------------------------------------------------


def test_setcover_dp_examples():
    sets = ((0, 1), (1, 2), (2,))
    assert oracle_min_cover(3, sets) == 2
    assert setcover_dp(SetCoverInstance(3, sets)).optimum == 2
    assert setcover_dp(SetCoverInstance(2, ((0, 1),))).optimum == 1
    assert setcover_dp(SetCoverInstance(2, ((0,),))).answer == "infeasible"


def test_cover_solvers_count_the_states_visited():
    # unions {}, then {0,1} (the only set holding 0), then the ground set
    assert setcover_dp(SetCoverInstance(3, ((0, 1), (1, 2), (2,)))).stats["explored"] == 3
    # the sets hold one element of the two asked for: only {} is reached
    res = partialcover_dp(SetCoverInstance(3, ((0,),), variant="partial", p=2))
    assert (res.answer, res.stats["explored"]) == ("infeasible", 1)
    # unions {} and {0,1}; the only set holding 2 meets {0,1}
    res = exactcover_solve(SetCoverInstance(3, ((0, 1), (1, 2)), variant="exact"))
    assert (res.answer, res.stats["explored"]) == ("infeasible", 2)


def test_setcover_bruteforce_example():
    sets = ((0, 1), (2, 3), (0, 2), (1, 3))
    assert oracle_min_cover(4, sets) == 2
    assert setcover_bruteforce(SetCoverInstance(4, sets)).optimum == 2
    assert setcover_bruteforce(SetCoverInstance(0, ())).optimum == 0


def test_setcover_bruteforce_honours_the_partial_variant():
    inst = SetCoverInstance(4, ((0, 1), (2,), (3,)), variant=PARTIAL, p=2)
    res = setcover_bruteforce(inst)
    assert (res.optimum, res.certificate) == (1, [0])
    assert res.optimum == partialcover_dp(inst).optimum
    none = setcover_bruteforce(SetCoverInstance(4, inst.sets, variant=PARTIAL, p=0))
    assert (none.optimum, none.certificate) == (0, [])
    short = SetCoverInstance(4, ((0, 1), (2,)), variant=PARTIAL, p=4)
    assert setcover_bruteforce(short).answer == "infeasible"


def test_setcover_bruteforce_honours_the_exact_variant():
    # {0,1} and {1,2} cover everything but overlap
    inst = SetCoverInstance(3, ((0, 1), (1, 2), (2,)), variant=EXACT)
    res = setcover_bruteforce(inst)
    assert (res.optimum, res.certificate) == (2, [0, 2])
    assert verify_cover(inst, res.certificate)
    overlapping = SetCoverInstance(3, ((0, 1), (1, 2)), variant=EXACT)
    assert setcover_bruteforce(overlapping).answer == "infeasible"


def test_bruteforce_equals_partial_and_exact_dp_fuzz():
    rng = random.Random(23)
    for t in range(150):
        n = rng.randint(1, 8)
        base = gen_random("setcover", seed=t, n=n, m=rng.randint(0, 8),
                          max_set_size=rng.randint(1, n))
        for inst, dp in (
                (SetCoverInstance(n, base.sets, variant=PARTIAL, p=rng.randint(0, n)),
                 partialcover_dp),
                (SetCoverInstance(n, base.sets, variant=EXACT), exactcover_solve)):
            want, got = dp(inst), setcover_bruteforce(inst)
            assert (got.answer, got.optimum) == (want.answer, want.optimum), inst
            if got.answer == "optimum":
                assert len(got.certificate) == got.optimum
                assert verify_cover(inst, got.certificate)


def test_dp_equals_bruteforce_fuzz():
    rng = random.Random(3)
    for t in range(120):
        n = rng.randint(1, 10)
        inst = gen_random("setcover", seed=t, n=n, m=rng.randint(0, 10),
                          max_set_size=rng.randint(1, n))
        dp = setcover_dp(inst)
        bf = setcover_bruteforce(inst)
        assert (dp.answer, dp.optimum) == (bf.answer, bf.optimum)
        if dp.answer == "optimum":
            assert verify_cover(inst, dp.certificate)
            assert len(dp.certificate) == dp.optimum


def test_setcover_monotone_under_new_sets():
    rng = random.Random(4)
    for t in range(40):
        n = rng.randint(2, 8)
        inst = gen_random("setcover", seed=100 + t, n=n, m=rng.randint(1, 6),
                          max_set_size=rng.randint(1, n))
        base = setcover_dp(inst)
        extra = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        grown = SetCoverInstance(n, inst.sets + (extra,))
        res = setcover_dp(grown)
        if base.answer == "optimum":
            assert res.optimum <= base.optimum


def test_verify_cover_partial_target():
    inst = SetCoverInstance(6, ((0, 1), (2, 3), (4,)), variant="partial", p=4)
    assert verify_cover(inst, [0, 1])
    assert not verify_cover(inst, [0, 2])
    assert not verify_cover(inst, [0, 3])
    plain = SetCoverInstance(6, inst.sets)
    assert not verify_cover(plain, [0, 1])


def test_verify_cover_honours_the_exact_variant():
    # {0,1} and {1,2} cover everything but share element 1
    inst = SetCoverInstance(3, ((0, 1), (1, 2), (2,)), variant=EXACT)
    assert not verify_cover(inst, [0, 1])
    assert verify_cover(inst, [0, 2])
    assert not verify_cover(inst, [0, 2, 2])
    assert verify_cover(SetCoverInstance(3, inst.sets), [0, 1])


def test_capacity_cap_and_env_override(monkeypatch):
    big = SetCoverInstance(30, tuple((i,) for i in range(30)))
    with pytest.raises(CapacityError):
        setcover_dp(big)
    monkeypatch.setenv("XCOVER_CAP_N", "8")
    with pytest.raises(CapacityError):
        setcover_dp(SetCoverInstance(9, ((0,),)))


# ---------------------------------------------------------------------------
# exact cover
# ---------------------------------------------------------------------------


def test_exactcover_examples():
    sets = ((0, 1), (2, 3), (1, 2))
    assert oracle_min_exact_cover(4, sets) == 2
    inst = SetCoverInstance(4, sets, variant="exact")
    assert exactcover_solve(inst).optimum == 2
    assert exactcover_solve(SetCoverInstance(2, ((0, 1), (0,)), variant="exact")).optimum == 1
    assert oracle_min_exact_cover(3, ((0, 1), (1, 2))) is None
    assert exactcover_solve(SetCoverInstance(3, ((0, 1), (1, 2)), variant="exact")).answer \
        == "infeasible"


def test_exactcover_large_sets_forced_choice():
    inst = SetCoverInstance(6, ((0, 1, 2, 3, 4, 5), (0, 1)), variant="exact")
    res = exactcover_with_large_sets(inst, 2)
    assert res.optimum == 1


def test_exactcover_large_sets_noop_when_all_small():
    inst = SetCoverInstance(4, ((0, 1), (2, 3)), variant="exact")
    assert exactcover_with_large_sets(inst, 2).optimum == exactcover_solve(inst).optimum == 2


def test_exactcover_large_sets_differential():
    rng = random.Random(6)
    for t in range(100):
        n = rng.randint(1, 10)
        inst = gen_random("exactcover", seed=t * 3, n=n, m=rng.randint(0, 9),
                          max_set_size=rng.randint(1, n))
        a = exactcover_solve(inst)
        for delta in (2, 3):
            b = exactcover_with_large_sets(inst, delta)
            assert (a.answer, a.optimum) == (b.answer, b.optimum)
            if b.answer == "optimum":
                for res in (a, b):
                    assert verify_cover(inst, res.certificate)
                    assert len(res.certificate) == res.optimum


def test_exactcover_requires_variant():
    with pytest.raises(PreconditionError):
        exactcover_solve(SetCoverInstance(2, ((0, 1),)))


# ---------------------------------------------------------------------------
# partial cover
# ---------------------------------------------------------------------------


def test_partialcover_examples():
    assert partialcover_dp(
        SetCoverInstance(4, ((0, 1),), variant="partial", p=0)).optimum == 0
    inst = SetCoverInstance(4, ((0, 1), (2,), (3,)), variant="partial", p=2)
    assert partialcover_dp(inst).optimum == 1


def test_partial_p_equals_n_matches_full_cover():
    rng = random.Random(7)
    for t in range(40):
        n = rng.randint(1, 9)
        inst = gen_random("setcover", seed=t * 7, n=n, m=rng.randint(1, 8),
                          max_set_size=rng.randint(1, n))
        full = setcover_dp(inst)
        part = partialcover_dp(SetCoverInstance(n, inst.sets, variant="partial", p=n))
        assert (full.answer, full.optimum) == (part.answer, part.optimum)


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


def test_heldkarp_examples():
    c5 = Digraph(5, frozenset((i, (i + 1) % 5) for i in range(5)))
    res = heldkarp_ham(c5)
    assert res.is_yes and verify_ham_cycle(c5, res.certificate)
    p4 = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert heldkarp_ham(p4).answer == "no"


def test_heldkarp_planted():
    for seed in range(12):
        g, order = gen_planted("ham_cycle", seed=seed, n=7, extra_edges=seed % 5)
        res = heldkarp_ham(g)
        assert res.is_yes
        assert verify_ham_cycle(g, res.certificate)


def test_ham_monotone_under_new_edges():
    rng = random.Random(9)
    for t in range(25):
        n = rng.randint(3, 8)
        g = gen_random("digraph", seed=t, n=n, edge_probability=0.4)
        if not heldkarp_ham(g).is_yes:
            continue
        pool = [(u, v) for u in range(n) for v in range(n)
                if u != v and (u, v) not in g.edges]
        if not pool:
            continue
        grown = Digraph(n, g.edges | {rng.choice(pool)})
        assert heldkarp_ham(grown).is_yes


def test_heldkarp_capacity():
    with pytest.raises(CapacityError):
        heldkarp_ham(Digraph(23, frozenset()))


# ---------------------------------------------------------------------------
# tree embedding
# ---------------------------------------------------------------------------


def test_embed_single_node():
    t = PatternTree(1, 0, (-1,), ("und",))
    assert tree_embed_backtrack(Digraph(3, frozenset({(0, 1)})), t).is_yes


def test_embed_orientation_mismatch():
    # a root with two fwd children needs two out-arcs: an in-star has none
    t = PatternTree(3, 0, (-1, 0, 0), ("und", "fwd", "fwd"))
    in_star = Digraph(3, frozenset({(1, 0), (2, 0)}))
    assert tree_embed_backtrack(in_star, t).answer == "no"
    assert tree_embed_backtrack(Digraph(3, frozenset({(0, 1), (0, 2)})), t).is_yes


def test_embed_degree_need_beyond_the_host():
    # the root needs 5 neighbours along one orientation; no host has more than 2
    und_star = PatternTree(6, 0, (-1,) + (0,) * 5, ("und",) * 6)
    path = Digraph(3, frozenset({(0, 1), (1, 2)}), undirected_mode=True)
    res = tree_embed_backtrack(path, und_star)
    assert (res.answer, res.stats) == ("no", {"explored": 3})
    g = Digraph(3, frozenset({(0, 1), (0, 2), (1, 0), (2, 1)}))
    for o in ("fwd", "rev"):
        star = PatternTree(6, 0, (-1,) + (0,) * 5, ("und",) + (o,) * 5)
        res = tree_embed_backtrack(g, star)
        assert (res.answer, res.stats) == ("no", {"explored": 3}), o


def test_embed_planted():
    for seed in range(25):
        g, t, _ = gen_planted("embedded_tree", seed=seed, k=3 + seed % 6,
                              host_n=9 + seed % 4, oriented=seed % 2 == 0,
                              extra_edge_probability=0.1)
        res = tree_embed_backtrack(g, t)
        assert res.is_yes
        assert verify_embedding(g, t, res.certificate)


def test_embed_budget_error():
    g = gen_random("digraph", seed=0, n=12, edge_probability=0.6)
    t = gen_random("tree", seed=1, k=9)
    with pytest.raises(BudgetExceededError):
        tree_embed_backtrack(g, t, budget=3)


def test_embed_star_heavy_pattern_is_fast():
    # 1 center with 30 leaves into a 40-node host: leaf matching, not 30! search
    k = 31
    t = PatternTree(k, 0, (-1,) + (0,) * 30, ("und",) * k)
    edges = {(0, v) for v in range(1, 35)}
    g = Digraph(40, frozenset(edges), undirected_mode=True)
    res = tree_embed_backtrack(g, t, budget=100_000)
    assert res.is_yes
    assert verify_embedding(g, t, res.certificate)


def oracle_embeds(G, T):
    """Independent oracle: try injective maps node by node in id order,
    checking each tree edge against the host's arcs once both ends are mapped."""
    edges_at = [[] for _ in range(T.k)]
    for v in range(T.k):
        if v != T.root:
            edges_at[max(v, T.parent[v])].append((T.parent[v], v, T.orientation[v]))
    image = {}

    def arc_ok(hp, hv, o):
        if o == "fwd":
            return G.has_arc(hp, hv)
        if o == "rev":
            return G.has_arc(hv, hp)
        return G.has_arc(hp, hv) or G.has_arc(hv, hp)

    def extend(v):
        if v == T.k:
            return True
        for u in range(G.num_nodes):
            if u in image.values():
                continue
            image[v] = u
            if all(arc_ok(image[p], image[c], o) for p, c, o in edges_at[v]) and extend(v + 1):
                return True
            del image[v]
        return False

    return extend(0)


def _broom(rng, k):
    """Root with leaves plus internal children with leaves of their own, so
    placing a child takes a host that one of the root's leaves may hold."""
    parent = [-1]
    while len(parent) < k:
        hub = rng.choice([0] + [v for v in range(1, len(parent)) if parent[v] == 0])
        parent.append(hub)
    orient = ("und",) * k if rng.random() < 0.5 else \
        ("und",) + tuple(rng.choice(["fwd", "rev"]) for _ in range(k - 1))
    return PatternTree(k, 0, tuple(parent), orient)


def test_embed_matches_bruteforce_oracle():
    rng = random.Random(11)
    yes = 0
    for t in range(300):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(n, 7))
        if t % 2:
            T = _broom(rng, k)
        else:
            T = gen_random("tree", seed=t, k=k, oriented=rng.random() < 0.5)
        # sparse hosts, so that about a quarter of the cases are no-instances
        G = gen_random(rng.choice(["digraph", "graph"]), seed=t, n=n,
                       edge_probability=rng.choice([0.1, 0.2, 0.4]))
        res = tree_embed_backtrack(G, T)
        assert res.is_yes == oracle_embeds(G, T), t
        if res.is_yes:
            yes += 1
            assert verify_embedding(G, T, res.certificate)
    assert 60 <= yes <= 240


def test_embed_leaf_host_displaced_by_parent():
    # root 0 with leaves 1, 2 and child 3 with leaves 4, 5: the root's leaves
    # first take hosts 1 and 2, then child 3 is placed at host 1 and an
    # augmenting search moves the root's group to host 3
    t = PatternTree(6, 0, (-1, 0, 0, 0, 3, 3), ("und",) * 6)
    g = Digraph(6, frozenset({(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)}), undirected_mode=True)
    res = tree_embed_backtrack(g, t)
    assert res.certificate == {0: 0, 1: 2, 2: 3, 3: 1, 4: 4, 5: 5}
    assert res.stats == {"explored": 5}
    # without host 3's arc: every node of the tree needs one, so host 3 is unusable
    g3 = Digraph(6, g.edges - {(0, 3)}, undirected_mode=True)
    assert not tree_embed_backtrack(g3, t).is_yes
    assert not oracle_embeds(g3, t)


def test_embed_twins_need_equal_orientations_below_them():
    # children 1 and 2 of the root have equal sizes and edges, but 1's child
    # hangs on a fwd edge and 2's on a rev one; the only embedding puts 2 on
    # a lower host than 1, which twins would forbid
    t = PatternTree(5, 0, (-1, 0, 0, 1, 2), ("und", "fwd", "fwd", "fwd", "rev"))
    g = Digraph(5, frozenset({(0, 1), (0, 2), (2, 3), (4, 1)}))
    res = tree_embed_backtrack(g, t)
    assert res.is_yes and verify_embedding(g, t, res.certificate)
    assert res.certificate == {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}


def test_tight_hosts_take_only_the_components_without_slack():
    tight_hosts = solvers._EmbedSearch._tight_hosts
    # hosts 1 and 2 for two leaves: no slack, both leave the candidates
    assert tight_hosts(((0b110, 2),), 0) == 0b110
    # hosts 1-3 with host 1 used: its free hosts 2 and 3 are all it has
    assert 0b1110 & ~tight_hosts(((0b1110, 2),), 0b0010) == 0
    # one free host to spare: none leaves
    assert tight_hosts(((0b1110, 2),), 0) == 0
    # only the component without slack gives up its hosts
    assert tight_hosts(((0b0011, 2), (0b11100, 2)), 0) == 0b0011
    # with no new groups, _hall keeps the components as they are
    comps = [(0b1110, 2)]
    assert solvers._EmbedSearch._hall(comps, 0b0010, 1, ()) == comps


@st.composite
def _pendant_case(draw):
    """2-3 parents (node ids first, so the oracle checks each leaf as it is
    mapped), each with 2-5 leaves whose ids interleave across parents, 9
    nodes at most (a 10-node tree costs the oracle about 75 ms an example);
    all edges fwd or rev at random or all und; a digraph on k <= n <= 10
    nodes that holds each ordered pair at one density, so anti-parallel
    arcs are common."""
    n_parents = draw(st.integers(2, 3))
    parent = [-1] + [draw(st.integers(0, p - 1)) for p in range(1, n_parents)]
    leaf_parents = []
    for p in range(n_parents):
        room = 9 - n_parents - len(leaf_parents) - 2 * (n_parents - 1 - p)
        leaf_parents += [p] * draw(st.integers(2, room))
    parent += draw(st.permutations(leaf_parents))
    k = len(parent)
    if draw(st.booleans()):
        orient = ("und",) + tuple(draw(st.sampled_from(["fwd", "rev"])) for _ in range(k - 1))
    else:
        orient = ("und",) * k
    T = PatternTree(k, 0, tuple(parent), orient)
    n = draw(st.integers(k, 10))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.3, 0.5, 0.7]))
    G = Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                             if u != v and rng.random() < density))
    return G, T


@settings(max_examples=300, deadline=None)
@given(_pendant_case())
def test_embed_leaf_groups_match_the_oracle(case):
    """Leaf groups share hosts with each other and with placed parents: the
    group matcher's answer is the oracle's, and every yes is an embedding."""
    G, T = case
    res = tree_embed_backtrack(G, T)
    assert res.is_yes == oracle_embeds(G, T)
    if res.is_yes:
        assert verify_embedding(G, T, res.certificate)


# ---------------------------------------------------------------------------
# kTree: the tree sieve decides, the embedder certifies
# ---------------------------------------------------------------------------


def test_colorcoding_planted_yes():
    for seed in range(6):
        g, t, _ = gen_planted("embedded_tree", seed=seed, k=6, host_n=12,
                              extra_edge_probability=0.1)
        res = ktree_colorcoding(g, t, failure_prob=0.01, seed=seed)
        assert res.is_yes
        assert verify_embedding(g, t, res.certificate)


def test_colorcoding_pigeonhole_no():
    path4 = PatternTree(4, 0, (-1, 0, 1, 2), ("und", "fwd", "fwd", "fwd"))
    triangle = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    assert ktree_colorcoding(triangle, path4).answer == "no"


def test_colorcoding_differential():
    rng = random.Random(0)
    missed = 0
    for t in range(50):
        k = rng.randint(1, 6)
        n = rng.randint(k, 8)
        tree = gen_random("tree", seed=1000 + t, k=k, oriented=True)
        g = gen_random("digraph", seed=2000 + t, n=n, edge_probability=0.35)
        bt = tree_embed_backtrack(g, tree)
        cc = ktree_colorcoding(g, tree, failure_prob=0.001, seed=t)
        if cc.is_yes:
            assert bt.is_yes
            assert verify_embedding(g, tree, cc.certificate)
        elif bt.is_yes:
            missed += 1
    assert missed <= 1


def _decoy_path_host(w, k):
    """Three complete layers of w decoy nodes, where a k-node fwd path with
    k > 3 runs out of arcs, then the path itself on the last k hosts, which
    the embedder tries last: it spends about w^3 units on the decoys."""
    arcs = {(a, b) for a in range(2 * w) for b in range(w * (a // w + 1), w * (a // w + 2))}
    arcs |= {(3 * w + i, 3 * w + i + 1) for i in range(k - 1)}
    return Digraph(3 * w + k, frozenset(arcs))


@pytest.mark.parametrize("w, budget, want", [
    (3, solvers.DEFAULT_BUDGET, {"explored": 59, "sieve_runs": 1}),
    (3, 32, {"explored": 14, "sieve_runs": 10}),  # the budget caps the embedder
    (9, solvers.DEFAULT_BUDGET, {"explored": 923, "sieve_runs": 1}),  # 923 <= 32 << 5
    (10, solvers.DEFAULT_BUDGET, {"explored": 35, "sieve_runs": 31}),  # 1,235 > 35 << 5
])
def test_ktree_self_reduces_only_when_the_embedder_cap_runs_out(monkeypatch, w, budget, want):
    """After the first nonzero sieve run, the embedder on the whole host
    gives the certificate within min(budget, n << k) units.  Past that cap
    the sieve drops each decoy host in turn, one run each, and the embedder
    takes the k hosts left."""
    T = _path(5)
    G = _decoy_path_host(w, T.k)
    n = G.num_nodes
    sieve = kernels.tree_sieve
    sieved = []

    def recorded(*args):
        sieved.append(args[4])
        return sieve(*args)

    monkeypatch.setattr(kernels, "tree_sieve", recorded)
    res = ktree_colorcoding(G, T, failure_prob=0.99, budget=budget)
    assert res.stats == want and verify_embedding(G, T, res.certificate)
    if want["sieve_runs"] == 1:
        assert res.certificate == tree_embed_backtrack(G, T).certificate
        assert sieved == [(1 << n) - 1]
    else:
        assert sorted(res.certificate.values()) == list(range(3 * w, n))
        assert sieved == [(1 << n) - (1 << v) for v in range(3 * w + 1)]


@st.composite
def _sieve_case(draw):
    """A tree of 1-7 nodes rooted at 0, all edges fwd or rev at random or
    all und, on a host of 0-8 nodes: a digraph that holds each ordered pair
    at one density, so anti-parallel arcs are common, or an undirected
    graph."""
    k = draw(st.integers(1, 7))
    parent = (-1, *(draw(st.integers(0, v - 1)) for v in range(1, k)))
    if draw(st.booleans()):
        orient = ("und", *(draw(st.sampled_from(["fwd", "rev"])) for _ in range(k - 1)))
    else:
        orient = ("und",) * k
    n = draw(st.integers(0, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.2, 0.35, 0.5]))
    G = Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                             if u != v and rng.random() < density), draw(st.booleans()))
    return G, PatternTree(k, 0, parent, orient)


def _path(k, orient="fwd"):
    return PatternTree(k, 0, (-1, *range(k - 1)), ("und", *[orient] * (k - 1)))


def _sieve(G, T, seed, hosts=None):
    edge_adj = [None if v == T.root else G.masks_along[o] for v, o in enumerate(T.orientation)]
    if hosts is None:
        hosts = (1 << G.num_nodes) - 1
    return kernels.tree_sieve(T.k, T.post_order, list(T.parent), edge_adj, hosts, seed)


@settings(max_examples=300, deadline=None)
@given(_sieve_case())
@example((Digraph(2, frozenset({(0, 1), (1, 0)})), _path(3)))  # k > n, a walk exists
@example((Digraph(0, frozenset()), _path(1)))  # k > n = 0
@example((Digraph(1, frozenset()), _path(1)))
@example((Digraph(3, frozenset()), _path(1)))
@example((Digraph(2, frozenset({(1, 0)})), _path(2)))
@example((Digraph(2, frozenset({(1, 0)})), _path(2, "rev")))
@example((Digraph(3, frozenset({(0, 1), (1, 0)}), True), _path(2, "und")))
# a star of three leaves on a path: homomorphisms but no embedding
@example((Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}), True),
          PatternTree(4, 0, (-1, 0, 0, 0), ("und",) * 4)))
def test_tree_sieve_matches_the_oracles(case):
    """A nonzero sieve is an embedding that the backtracker and the
    injective-map brute force both find.  When they find one, a sieve run
    misses it with probability at most 13/2^16, so one of two runs finds
    it."""
    G, T = case
    want = oracle_embeds(G, T)
    assert tree_embed_backtrack(G, T).is_yes == want
    assert bool(_sieve(G, T, 0) or _sieve(G, T, 1)) == want


def test_tree_sieve_is_seeded_and_keeps_to_its_hosts():
    G, T, planted = gen_planted("embedded_tree", seed=4, k=6, host_n=9)
    values = [_sieve(G, T, seed) for seed in (0, 0, 1, "tree_sieve 0 0")]
    assert values[0] == values[1] and len(set(values)) == 3 and all(values)
    hosts = sum(1 << u for u in planted.values())
    assert _sieve(G, T, 0, hosts)
    assert not _sieve(G, T, 0, hosts & hosts - 1)  # five hosts hold no six-node tree


def test_ktree_on_a_large_sparse_host_walks_only_its_arcs():
    """The sieve's setup draws one value per arc, not per pair of hosts, so
    a 20,000-node ring (yes) and perfect matching (no) decide in seconds
    where testing all n^2 pairs takes minutes."""
    n, T = 20_000, _path(3, "und")
    ring = Digraph(n, frozenset((u, (u + 1) % n) for u in range(n)), True)
    pairs = Digraph(n, frozenset((u, u + 1) for u in range(0, n, 2)), True)
    start = time.perf_counter()
    res = ktree_colorcoding(ring, T)
    assert res.is_yes and verify_embedding(ring, T, res.certificate)
    assert not ktree_colorcoding(pairs, T).is_yes
    assert time.perf_counter() - start < 10


def _colorcoding_cases():
    rng = random.Random(1500)
    for _ in range(400):
        k = rng.randint(2, 6)
        n = rng.randint(2, 10)
        T = gen_random("tree", seed=rng.randrange(2 ** 31), k=k, oriented=rng.random() < 0.5)
        G = gen_random("digraph", seed=rng.randrange(2 ** 31), n=n,
                       edge_probability=rng.choice((0.15, 0.3, 0.5)))
        yield G, T, rng.randrange(1000)


def test_ktree_answers_match_the_pinned_digest():
    """The answers alone on the 400 cases below, taken at commit b2769da,
    while a colour-coding trial prefix still ran in front of the sieve:
    dropping the prefix changed no answer."""
    answers = [ktree_colorcoding(G, T, failure_prob=0.2, seed=seed).answer
               for G, T, seed in _colorcoding_cases()]
    assert (answers.count("yes"), answers.count("no")) == (256, 144)
    assert hashlib.sha256(" ".join(answers).encode()).hexdigest() == (
        "2116c1afb5f8592e1f129f670189dd87478f986a0a413404c3030d7c3f8cd649")


def test_colorcoding_matches_the_pinned_digest():
    """400 seeded cases, oriented and unoriented trees.  The digest of the
    records (answer, certificate, stats) was re-taken when the colour-coding
    trial prefix went: every yes now carries the certificate and units of
    the embedder on the whole host, and every no on k <= n hosts one sieve
    run."""
    digest = hashlib.sha256()
    for G, T, seed in _colorcoding_cases():
        res = ktree_colorcoding(G, T, failure_prob=0.2, seed=seed)
        cert = None if res.certificate is None else sorted(res.certificate.items())
        digest.update(json.dumps([res.answer, cert, res.stats], sort_keys=True).encode())
        if res.is_yes and T.k > 1:
            embedded = tree_embed_backtrack(G, T)
            assert (res.certificate, res.stats["explored"]) == (
                embedded.certificate, embedded.stats["explored"])
        elif not res.is_yes and T.k <= G.num_nodes:
            assert res.stats == {"explored": 0, "sieve_runs": 1}
    assert digest.hexdigest() == (
        "e6dcd0128fca2aaa324aa88493a0d0e9a6c3bbbbbadda1efb090972a6d2bad17")


def _embed_cases():
    rng = random.Random(1800)
    for t in range(1000):
        k = rng.randint(1, 9)
        n = rng.randint(1, 9)
        if t % 2 and k > 1:
            T = _broom(rng, k)
        else:
            T = gen_random("tree", seed=rng.randrange(2 ** 31), k=k, oriented=rng.random() < 0.5)
        G = gen_random(rng.choice(("digraph", "graph")), seed=rng.randrange(2 ** 31), n=n,
                       edge_probability=rng.choice((0.2, 0.4, 0.7)))
        yield G, T


@pytest.fixture(scope="module")
def embed_case_results():
    return [(tree_embed_backtrack(G, T), heldkarp_ham(G)) for G, T in _embed_cases()]


def test_embed_and_heldkarp_match_the_pinned_digest(embed_case_results):
    """1000 seeded (host, tree) pairs with k, n in 1..9, k > n included,
    oriented and unoriented trees, directed and undirected hosts; the digest
    of each embedding's answer and certificate and each Held-Karp result on
    the host was re-taken when the leaves came to be read off the search's
    b-matching, which moved the leaf hosts of 134 of the 481 yes-answers."""
    digest = hashlib.sha256()
    answers = []
    for res, ham in embed_case_results:
        cert = None if res.certificate is None else sorted(res.certificate.items())
        answers.append((res.answer, ham.answer))
        digest.update(json.dumps([res.answer, cert, ham.answer, ham.certificate,
                                  ham.stats]).encode())
    assert len(set(answers)) == 4
    assert digest.hexdigest() == "d2ed6ca51fd40e8bbb2bbddf873c44c3175a719b77a6a79c7a53c1b5f43f02f3"


def test_embed_stats_match_the_pinned_digest(embed_case_results):
    """The embedder's stats on the same pairs, re-taken once the leaves were
    read off the search's b-matching: ``explored`` fell in total and rose in
    no case."""
    digest = hashlib.sha256()
    for res, _ in embed_case_results:
        digest.update(json.dumps(res.stats).encode())
    assert digest.hexdigest() == "7d94208a741d50e663ac15d3a4bc011f7054ffa7726f35f14f114f5931071a33"


def test_embed_internal_hosts_match_the_pinned_digest(embed_case_results):
    """Each answer and the hosts of each embedding's internal nodes (the
    root and every node with children) on the same pairs, taken before the
    leaves were read off the search's b-matching, which moved leaf hosts
    only."""
    digest = hashlib.sha256()
    for (_, T), (res, _) in zip(_embed_cases(), embed_case_results):
        internal = None if res.certificate is None else sorted(
            (v, u) for v, u in res.certificate.items() if v == T.root or T.children[v])
        digest.update(json.dumps([res.answer, internal]).encode())
    assert digest.hexdigest() == "7f7f401e233654720680d191529586260092deda9225c24bafa4be6664249177"


def test_embed_yes_certificates_are_embeddings(embed_case_results):
    yes = 0
    for (G, T), (res, _) in zip(_embed_cases(), embed_case_results):
        if res.is_yes:
            yes += 1
            assert verify_embedding(G, T, res.certificate)
    assert yes > 0


def _three_twin_stars():
    """A ppc-ktree refutation: three grouped 4-leaf stars (twins, all on
    anchor 1) over the C(10, 2) g-subset nodes of ten 2-sets on 16
    elements, which no embedding fills."""
    rng = random.Random(26)
    sets = tuple(tuple(sorted(rng.sample(range(16), 2))) for _ in range(10))
    inst = SetCoverInstance(16, sets, variant=PARTIAL, p=12)
    return build_host_graph(inst, 2).host, build_pattern_tree(Partition((2,) * 6), 2, 16)


def _reduction_shapes():
    """The first two pattern trees of seeded instances shaped like the
    perfbench ``embed`` corpus, on their set-cover -> kTree hosts at g = 2:
    plain covers of six 4-sets on 16 elements with optimum 5, and partial
    covers of ten 2-sets on 16 elements with p = 12 and optimum 7.  The
    first tree has one star fewer than the optimum and is refuted; the
    second has as many stars as the optimum and embeds."""
    rng = random.Random(31)
    shapes = ((setcover_dp, 6, 4, 5, {}),
              (partialcover_dp, 10, 2, 7, {"variant": PARTIAL, "p": 12}))
    for solve, m, size, optimum, variant in shapes:
        for _ in range(3):
            while True:
                sets = tuple(tuple(sorted(rng.sample(range(16), size))) for _ in range(m))
                inst = SetCoverInstance(16, sets, **variant)
                if solve(inst).optimum == optimum:
                    break
            host = build_host_graph(inst, 2).host
            for alpha in itertools.islice(leaf_partitions(inst, 2, size), 2):
                yield host, build_pattern_tree(alpha, 2, 16)


# the summed ``explored`` of the ``_reduction_shapes`` searches: charging a
# dropped candidate's unit with the next charge must not move it
REDUCTION_SHAPES_EXPLORED = 36082


def test_embed_budget_boundary(embed_case_results):
    """A search that spends E units runs to the same result at budget E and
    raises at budget E - 1: the budget is checked wherever units are spent,
    skipped candidates included, and the units of candidates that tight
    components or the Hall check drop are paid by the next charge."""
    G, T = _three_twin_stars()
    twins = tree_embed_backtrack(G, T)
    assert twins.answer == "no" and twins.stats["explored"] > 1000
    cases = list(zip(_embed_cases(), (res for res, _ in embed_case_results)))
    reduced = [((G, T), tree_embed_backtrack(G, T)) for G, T in _reduction_shapes()]
    assert [res.answer for _, res in reduced] == ["no", "yes"] * 6
    assert sum(res.stats["explored"] for _, res in reduced) == REDUCTION_SHAPES_EXPLORED
    for (G, T), res in cases + [((G, T), twins)] + reduced:
        spent = res.stats["explored"]
        assert tree_embed_backtrack(G, T, budget=spent) == res
        if spent:
            with pytest.raises(BudgetExceededError):
                tree_embed_backtrack(G, T, budget=spent - 1)


class _HallAgainstAugment(solvers._EmbedSearch):
    """Runs the augmenting repair on every placement that the tight filter
    or the Hall check drops, and counts the two kinds of drop apart: frames
    whose filter takes free hosts out, and candidates the merge rejects.
    The repair's units are given back, so ``explored`` stays the plain
    search's."""

    tight_frames = rejected = 0

    def _repair_fails(self, v, u, used):
        mark, used_mask, explored = (len(self.undo), self.matched), self.used_mask, self.explored
        self.used_mask = used
        assert not self._extend_matching(v, u)
        self._rollback(mark)
        self.used_mask, self.explored = used_mask, explored

    def _tight_hosts(self, comps, used_mask):
        tight = super()._tight_hosts(comps, used_mask)
        # every free host of a tight component, whether or not it is a
        # candidate of this frame: the repair must fail on each
        v, hosts = self.order[len(self.assign)], tight & ~used_mask
        self.tight_frames += hosts != 0
        while hosts:
            low = hosts & -hosts
            hosts ^= low
            self._repair_fails(v, low.bit_length() - 1, used_mask | low)
        return tight

    def _hall(self, comps, used, u, new):
        comps = super()._hall(comps, used, u, new)
        if comps is None:
            self._repair_fails(self.order[len(self.assign)], u, used)
            self.rejected += 1
        return comps


def _pendant_shapes(rng):
    """Seeded trees of the ``_pendant_case`` shape: 2-3 parents with 2-5
    interleaved leaves each, 9 nodes at most, on a digraph of k..10 nodes
    that holds each ordered pair at one density."""
    for _ in range(300):
        n_parents = rng.randint(2, 3)
        parent = [-1] + [rng.randrange(p) for p in range(1, n_parents)]
        leaf_parents = []
        for p in range(n_parents):
            room = 9 - n_parents - len(leaf_parents) - 2 * (n_parents - 1 - p)
            leaf_parents += [p] * rng.randint(2, room)
        rng.shuffle(leaf_parents)
        parent += leaf_parents
        k = len(parent)
        if rng.random() < 0.5:
            orient = ("und",) + tuple(rng.choice(["fwd", "rev"]) for _ in range(k - 1))
        else:
            orient = ("und",) * k
        n = rng.randint(k, 10)
        density = rng.choice([0.3, 0.5, 0.7])
        G = Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                 if u != v and rng.random() < density))
        yield G, PatternTree(k, 0, tuple(parent), orient)


def test_hall_check_drops_only_what_the_augmenting_search_drops():
    """Every placement that the tight filter or the Hall check drops is one
    that the augmenting repair, run on the same matching, also fails, and
    the mappings and unit counts are the plain search's.  Each family must
    reach both drops: a check that never fires passes nothing."""
    for cases in (_embed_cases(), _pendant_shapes(random.Random(19))):
        tight_frames = rejected = 0
        for G, T in cases:
            search = _HallAgainstAugment(G, T, solvers.DEFAULT_BUDGET)
            plain = tree_embed_backtrack(G, T)
            assert search.run() == plain.certificate
            assert search.explored == plain.stats["explored"]
            tight_frames += search.tight_frames
            rejected += search.rejected
        assert tight_frames > 0 and rejected > 0


def _caterpillar(s):
    """A spine of s nodes with one leaf each, as host and as pattern: s
    internal nodes and s leaf groups for the embedder."""
    parent = (-1,) + tuple(range(s - 1)) + tuple(range(s))
    G = Digraph(2 * s, frozenset((p, v) for v, p in enumerate(parent) if p >= 0),
                undirected_mode=True)
    return G, PatternTree(2 * s, 0, parent, ("und",) * (2 * s))


def test_embed_depth_cap_counts_internal_nodes_and_leaf_groups(monkeypatch):
    G, T = _caterpillar(MAX_EMBED_DEPTH // 2)
    res = tree_embed_backtrack(G, T)
    assert res.is_yes and verify_embedding(G, T, res.certificate)
    # one more spine node is two more levels, refused before any search
    G, T = _caterpillar(MAX_EMBED_DEPTH // 2 + 1)
    monkeypatch.setattr(solvers._EmbedSearch, "run", lambda self: pytest.fail("searched"))
    with pytest.raises(CapacityError, match=f"with {MAX_EMBED_DEPTH + 2} internal nodes"):
        tree_embed_backtrack(G, T)


def test_colorcoding_deterministic_for_seed():
    g, t, _ = gen_planted("embedded_tree", seed=3, k=5, host_n=10)
    a = ktree_colorcoding(g, t, failure_prob=0.05, seed=11)
    b = ktree_colorcoding(g, t, failure_prob=0.05, seed=11)
    assert a.answer == b.answer and a.certificate == b.certificate


def test_colorcoding_capacity():
    g = Digraph(20, frozenset())
    t = gen_random("tree", seed=0, k=17)
    with pytest.raises(CapacityError):
        ktree_colorcoding(g, t)


_SC = SetCoverInstance(8, ((0, 1), (1, 2), (2, 3), (4, 5), (6, 7)))
_EXACT = SetCoverInstance(4, ((0, 1), (0, 1, 2), (2, 3), (3,)), variant=EXACT)
_HAM, _ = gen_planted("ham_cycle", seed=4, n=6, extra_edges=3)
_HOST, _TREE, _ = gen_planted("embedded_tree", seed=3, k=5, host_n=8)


@pytest.mark.parametrize("case", [
    (setcover_dp, (_SC,)),
    (setcover_bruteforce, (_SC,)),
    (exactcover_solve, (_EXACT,)),
    (exactcover_with_large_sets, (_EXACT, 2)),
    (partialcover_dp, (SetCoverInstance(_SC.n, _SC.sets, variant=PARTIAL, p=6),)),
    (heldkarp_ham, (_HAM,)),
    (tree_embed_backtrack, (_HOST, _TREE)),
    (ktree_colorcoding, (_HOST, _TREE)),
    (solve_setcover_via_ktree, (_SC, 2)),
], ids=lambda case: case[0].__name__)
def test_solve_result_is_deterministic(case):
    # stats hold counters only, never a timing, so a repeated call is equal
    solve, args = case
    first = solve(*args)
    assert first.stats
    assert solve(*args) == first
