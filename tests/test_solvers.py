import itertools
import random

import pytest

from xcover.errors import BudgetExceededError, CapacityError, PreconditionError
from xcover.instances import Digraph, PatternTree, SetCoverInstance, gen_planted, gen_random
from xcover.solvers import (
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


def test_setcover_bruteforce_example():
    sets = ((0, 1), (2, 3), (0, 2), (1, 3))
    assert oracle_min_cover(4, sets) == 2
    assert setcover_bruteforce(SetCoverInstance(4, sets)).optimum == 2
    assert setcover_bruteforce(SetCoverInstance(0, ())).optimum == 0


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
    t = PatternTree(2, 0, (-1, 0), ("und", "fwd"))
    g = Digraph(2, frozenset({(0, 1)}))
    assert tree_embed_backtrack(g, t, pins={0: 1}).answer == "no"
    assert tree_embed_backtrack(g, t, pins={0: 0}).is_yes


def test_embed_planted():
    for seed in range(25):
        g, t, _ = gen_planted("embedded_tree", seed=seed, k=3 + seed % 6,
                              host_n=9 + seed % 4, oriented=seed % 2 == 0,
                              extra_edge_probability=0.1)
        res = tree_embed_backtrack(g, t)
        assert res.is_yes
        assert verify_embedding(g, t, res.certificate)


def test_embed_respects_forbidden_and_pins():
    g = Digraph(3, frozenset({(0, 1), (1, 2)}))
    t = PatternTree(2, 0, (-1, 0), ("und", "fwd"))
    assert tree_embed_backtrack(g, t, forbidden={1, 2}).answer == "no"
    res = tree_embed_backtrack(g, t, forbidden={0})
    assert res.is_yes and set(res.certificate.values()) == {1, 2}
    with pytest.raises(PreconditionError):
        tree_embed_backtrack(g, t, pins={0: 0, 1: 0})
    with pytest.raises(PreconditionError):
        tree_embed_backtrack(g, t, pins={0: 1}, forbidden={1})


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


def oracle_embeds(G, T, pins=None, forbidden=()):
    """Independent oracle: try injective maps node by node in id order,
    checking each tree edge against the host's arcs once both ends are mapped."""
    pins = pins or {}
    free_hosts = [u for u in range(G.num_nodes) if u not in forbidden]
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
        for u in ([pins[v]] if v in pins else free_hosts):
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
        G = gen_random(rng.choice(["digraph", "graph"]), seed=t, n=n,
                       edge_probability=rng.choice([0.3, 0.5, 0.7]))
        nodes = rng.sample(range(k), rng.randint(0, min(2, k)))
        images = rng.sample(range(n), len(nodes))
        pins = dict(zip(nodes, images))
        forbidden = set(rng.sample([u for u in range(n) if u not in images],
                                   min(rng.randint(0, 2), n - len(images))))
        res = tree_embed_backtrack(G, T, pins=pins, forbidden=forbidden)
        assert res.is_yes == oracle_embeds(G, T, pins, forbidden), (t, pins, forbidden)
        if res.is_yes:
            yes += 1
            cert = res.certificate
            assert verify_embedding(G, T, cert)
            assert all(cert[v] == u for v, u in pins.items())
            assert not forbidden & {cert[v] for v in range(k) if v not in pins}
    assert 60 <= yes <= 240


def test_embed_leaf_host_displaced_by_parent():
    # root 0 with leaves 1, 2 and child 3 with leaves 4, 5: the root's leaves
    # first take hosts 1 and 2, then child 3 is placed at host 1
    t = PatternTree(6, 0, (-1, 0, 0, 0, 3, 3), ("und",) * 6)
    g = Digraph(6, frozenset({(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)}), undirected_mode=True)
    res = tree_embed_backtrack(g, t)
    assert res.certificate == {0: 0, 1: 3, 2: 2, 3: 1, 4: 5, 5: 4}
    assert not tree_embed_backtrack(g, t, forbidden={3}).is_yes
    assert not oracle_embeds(g, t, forbidden={3})


# ---------------------------------------------------------------------------
# color coding
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
