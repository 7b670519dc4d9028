import math
import random

import pytest

from xcover.errors import CapacityError, PreconditionError
from xcover.instances import (
    Digraph,
    PatternTree,
    SetCoverInstance,
    gen_planted,
    gen_random,
)
from xcover.partitions import Partition, enumerate_partitions
from xcover.reductions import (
    build_host_graph,
    build_pattern_tree,
    check_cover_properties,
    decide_stream,
    ham_to_setcover,
    ntree_to_setcover,
    pattern_tree_size,
    ppc_preprocess_large,
    ppc_to_ktree,
    setcover_preprocess_large,
    setcover_to_ktree,
    solve_ham_via_setcover,
    solve_ntree_via_setcover,
    solve_ppc_via_ktree,
    solve_setcover_via_ktree,
    tree_cover,
)
from xcover.solvers import (
    heldkarp_ham,
    partialcover_dp,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
)

UND4 = ("und",) * 4


# ---------------------------------------------------------------------------
# subtree covers
# ---------------------------------------------------------------------------


def test_tree_cover_path_example():
    # path r-a-b-c rooted at r (ids 0-1-2-3), l=2: hand simulation gives
    # {b,c} rooted b then {r,a} rooted r
    path = PatternTree(4, 0, (-1, 0, 1, 2), UND4)
    cover = tree_cover(path, 2)
    assert [(r, set(nodes)) for r, nodes in cover.subtrees] == [(2, {2, 3}), (0, {0, 1})]


def test_tree_cover_star_example():
    # star r-(a,b,c) with l=3: {r,a,b} then leftover {r,c}, both rooted r
    star = PatternTree(4, 0, (-1, 0, 0, 0), UND4)
    cover = tree_cover(star, 3)
    assert [(r, set(nodes)) for r, nodes in cover.subtrees] == [(0, {0, 1, 2}), (0, {0, 3})]


def test_tree_cover_l_equals_k():
    for seed in range(10):
        k = 3 + seed
        T = gen_random("tree", seed=seed, k=k)
        cover = tree_cover(T, k)
        assert len(cover.subtrees) == 1
        assert cover.subtrees[0][1] == frozenset(range(k))


def test_tree_cover_rejects_small_l():
    T = gen_random("tree", seed=0, k=5)
    with pytest.raises(PreconditionError):
        tree_cover(T, 1)


def test_cover_properties_fuzz():
    rng = random.Random(42)
    for t in range(300):
        k = rng.randint(2, 150)
        T = gen_random("tree", seed=t, k=k)
        l = rng.randint(2, k)
        report = check_cover_properties(T, tree_cover(T, l), l)
        assert report["ok"], (k, l, report)


def test_cover_properties_flags_violations():
    from xcover.instances import SubtreeCover

    path = PatternTree(4, 0, (-1, 0, 1, 2), UND4)
    oversized = SubtreeCover(((0, frozenset({0, 1, 2})),), source_k=4, l=2)
    report = check_cover_properties(path, oversized, 2)
    assert report["size"] and report["coverage"] and not report["ok"]
    missing_leaf = SubtreeCover(
        ((0, frozenset({0, 1})), (2, frozenset({2}))), source_k=4, l=2)
    report = check_cover_properties(path, missing_leaf, 2)
    assert report["coverage"] == [3]


# ---------------------------------------------------------------------------
# tree pattern -> cover instances
# ---------------------------------------------------------------------------


def test_ntree_cycle_path_example():
    G = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    T = PatternTree(4, 0, (-1, 0, 1, 2), ("und", "fwd", "fwd", "fwd"))
    assert tree_embed_backtrack(G, T).is_yes
    batch = ntree_to_setcover(G, T, 6)
    hit = False
    for prod in batch.produced:
        res = setcover_dp(prod.instance)
        if res.answer == "optimum" and res.optimum == prod.target:
            hit = True
            break
    assert hit
    assert solve_ntree_via_setcover(G, T, 6)


def test_ntree_no_instance_star_vs_low_degree():
    # out-star of degree 3 cannot embed when max out-degree is 2
    T = PatternTree(4, 0, (-1, 0, 0, 0), ("und", "fwd", "fwd", "fwd"))
    G = Digraph(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)}))
    assert not tree_embed_backtrack(G, T).is_yes
    assert not solve_ntree_via_setcover(G, T, 6, variant="anchored")


def test_ntree_single_node():
    G = Digraph(1, frozenset())
    T = PatternTree(1, 0, (-1,), ("und",))
    assert solve_ntree_via_setcover(G, T, 6)


def test_ntree_planted_yes():
    for seed in range(8):
        nt = 4 + seed % 4
        G, T, _ = gen_planted("embedded_tree", seed=seed, k=nt, host_n=nt,
                              extra_edge_probability=0.2)
        assert solve_ntree_via_setcover(G, T, 6, variant="anchored")


def test_ntree_batch_respects_caps_and_set_sizes():
    rng = random.Random(1)
    for t in range(12):
        nt = rng.randint(2, 8)
        T = gen_random("tree", seed=t * 2 + 1, k=nt, oriented=True)
        G = gen_random("digraph", seed=t * 2, n=nt, edge_probability=0.4)
        for variant in ("literal", "anchored"):
            batch = ntree_to_setcover(G, T, 6, variant=variant)
            count = 0
            for prod in batch.produced:
                count += 1
                assert prod.instance.n <= batch.elements_declared + 1e-9
                assert all(len(s) <= 6 for s in prod.instance.sets)
            if count:
                assert math.log2(count) <= batch.bound_declared_log2 + 1e-9


def test_ntree_differential_anchored():
    rng = random.Random(7)
    for t in range(60):
        nt = rng.choice([4, 5, 6, 7])
        T = gen_random("tree", seed=t * 2 + 1, k=nt, oriented=True)
        G = gen_random("digraph", seed=t * 2, n=nt,
                       edge_probability=rng.choice([0.25, 0.4, 0.6]))
        bt = tree_embed_backtrack(G, T).is_yes
        assert solve_ntree_via_setcover(G, T, 6, variant="anchored") == bt


def test_ntree_literal_complete_but_over_accepts():
    rng = random.Random(77)
    over = 0
    for t in range(40):
        nt = rng.choice([4, 5, 6])
        T = gen_random("tree", seed=t * 7 + 3, k=nt, oriented=True)
        G = gen_random("digraph", seed=t * 7 + 4, n=nt, edge_probability=0.35)
        bt = tree_embed_backtrack(G, T).is_yes
        lit = solve_ntree_via_setcover(G, T, 6, variant="literal")
        if bt:
            assert lit
        elif lit:
            over += 1
    # the root-parent edge gap makes some over-acceptance expected
    assert over > 0


def test_decide_stream_returns_the_first_accepting_instance_for_any_job_count():
    G, _ = gen_planted("ham_cycle", seed=4, n=8, extra_edges=6)
    first = next(prod for prod in ham_to_setcover(G, 2).produced
                 if setcover_dp(prod.instance).optimum == prod.target)
    for jobs in (1, 2):
        decision = decide_stream(ham_to_setcover(G, 2), jobs)
        assert decision.accepted.provenance == first.provenance
        assert decision.result.optimum == first.target
        assert verify_cover(first.instance, decision.result.certificate)
        assert decision.examined >= 1
    no = decide_stream(ham_to_setcover(Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)})), 2))
    assert no.accepted is None and no.result is None and no.examined == 3


def test_ntree_rejects_small_delta():
    G = Digraph(2, frozenset({(0, 1)}))
    T = PatternTree(2, 0, (-1, 0), ("und", "fwd"))
    with pytest.raises(PreconditionError):
        ntree_to_setcover(G, T, 5)
    with pytest.raises(PreconditionError):
        ntree_to_setcover(Digraph(3, frozenset()), T, 6)


# ---------------------------------------------------------------------------
# Hamiltonicity -> cover instances
# ---------------------------------------------------------------------------


def test_ham_c4_hand_construction():
    G = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    batch = ham_to_setcover(G, 2)
    by_order = {prod.provenance: prod for prod in batch.produced}
    assert set(by_order[(0, 2)].instance.sets) == {(0, 1), (2, 3)}
    assert by_order[(0, 2)].target == 2
    assert heldkarp_ham(G).is_yes
    assert solve_ham_via_setcover(G, 2)


def test_ham_p4_no():
    P = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert not heldkarp_ham(P).is_yes
    assert not solve_ham_via_setcover(P, 2)


def test_ham_all_sets_have_size_delta():
    G = gen_random("digraph", seed=5, n=6, edge_probability=0.5)
    for delta in (2, 3, 6):
        for prod in ham_to_setcover(G, delta).produced:
            assert all(len(s) == delta for s in prod.instance.sets)


def test_ham_planted_and_complete():
    G, _ = gen_planted("ham_cycle", seed=2, n=8, extra_edges=5)
    assert solve_ham_via_setcover(G, 2)
    K6 = Digraph(6, frozenset((u, v) for u in range(6) for v in range(6) if u != v))
    assert solve_ham_via_setcover(K6, 3)


def test_ham_differential():
    rng = random.Random(11)
    for t in range(40):
        n = rng.choice([4, 6, 8])
        G = gen_random("digraph", seed=t + 500, n=n,
                       edge_probability=rng.choice([0.2, 0.35, 0.5]))
        hk = heldkarp_ham(G).is_yes
        for delta in (2, n // 2):
            assert solve_ham_via_setcover(G, delta) == hk


def test_ham_accepting_covers_are_disjoint():
    G, _ = gen_planted("ham_cycle", seed=9, n=8, extra_edges=10)
    batch = ham_to_setcover(G, 2)
    checked = 0
    for prod in batch.produced:
        res = setcover_dp(prod.instance)
        if res.answer == "optimum" and res.optimum == prod.target:
            seen = set()
            for j in res.certificate:
                s = set(prod.instance.sets[j])
                assert not seen & s
                seen |= s
            checked += 1
            if checked >= 3:
                break
    assert checked


def test_ham_preconditions():
    G = Digraph(5, frozenset({(0, 1)}))
    with pytest.raises(PreconditionError):
        ham_to_setcover(G, 1)
    with pytest.raises(PreconditionError):
        ham_to_setcover(G, 2)  # 2 does not divide 5
    with pytest.raises(PreconditionError):
        ham_to_setcover(Digraph(2, frozenset()), 4)  # n < delta


# ---------------------------------------------------------------------------
# host graph and pattern trees
# ---------------------------------------------------------------------------


def _crafted_inst():
    return SetCoverInstance(8, ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2)))


def test_host_graph_counts():
    bundle = build_host_graph(_crafted_inst(), 2)
    # 4 + 4*ceil(n/(g/2)) + C(m,g) + m + n = 4 + 32 + 10 + 5 + 8
    assert bundle.host.num_nodes == 59
    r = next(v for v, role in bundle.node_roles.items() if role == ("r",))
    assert len(bundle.host.neighbors(r)) == 3 + 5 + 8


def test_host_graph_no_m_to_mg_edge():
    bundle = build_host_graph(_crafted_inst(), 2)
    for u, v in bundle.host.edges:
        kinds = {bundle.node_roles[u][0], bundle.node_roles[v][0]}
        assert kinds != {"M", "Mg"}


def test_host_graph_edge_semantics():
    inst = _crafted_inst()
    bundle = build_host_graph(inst, 2)
    roles = bundle.node_roles
    by_role = {role: v for v, role in roles.items()}
    for i, s in enumerate(inst.sets):
        node = by_role[("M", i)]
        elems = {roles[w][1] for w in bundle.host.neighbors(node) if roles[w][0] == "N"}
        assert elems == set(s)
    for v, role in roles.items():
        if role[0] == "Mg":
            union = set()
            for i in role[1]:
                union.update(inst.sets[i])
            elems = {roles[w][1] for w in bundle.host.neighbors(v) if roles[w][0] == "N"}
            assert elems == union


def test_host_graph_requires_assumption():
    inst = SetCoverInstance(8, ((0, 1, 2),))  # 3 > 8/4
    with pytest.raises(PreconditionError):
        build_host_graph(inst, 2)


def test_host_graph_capacity():
    inst = SetCoverInstance(25, ((0,),) * 6)
    with pytest.raises(CapacityError):
        build_host_graph(inst, 5)


def test_pattern_tree_examples():
    # alpha=(2,2), g=2: one grouped star with 4 leaves, no remainder
    t = build_pattern_tree(Partition((2, 2)), 2, 4)
    assert t.k == 4 + 4 * 4 + 1 + 4
    # alpha=(1,1,1), g=2: grouped star with 2 leaves + remainder star with 1
    t = build_pattern_tree(Partition((1, 1, 1)), 2, 3)
    assert t.k == 4 + 4 * 3 + 2 + 3


def test_pattern_tree_closed_form_size():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 14)
        g = rng.randint(2, 4)
        alphas = list(enumerate_partitions(n))
        alpha = alphas[rng.randrange(len(alphas))]
        t = build_pattern_tree(alpha, g, n)
        assert t.k == pattern_tree_size(alpha, g, n)


def test_pattern_tree_for_a_partial_leaf_total():
    # p = 5 leaves over n = 8 elements: the gadget is sized by n
    alpha = Partition((3, 2))
    t = build_pattern_tree(alpha, 2, 8)
    assert t.k == pattern_tree_size(alpha, 2, 8) == 4 + 4 * 8 + 1 + 5
    with pytest.raises(PreconditionError):
        build_pattern_tree(Partition((5, 4)), 2, 8)


# ---------------------------------------------------------------------------
# cover -> tree pipeline
# ---------------------------------------------------------------------------


def test_sck_crafted_optimum_four():
    inst = _crafted_inst()
    assert setcover_dp(inst).optimum == 4
    res = setcover_to_ktree(inst, 2)
    assert res.optimum == 4
    assert res.certificate is not None and verify_cover(inst, res.certificate)


def test_sck_yes_direction_upper_bound():
    # a known cover of size d means the pipeline returns at most d
    inst = _crafted_inst()
    res = setcover_to_ktree(inst, 2)
    assert res.optimum <= 4


def test_sck_infeasible_instance():
    inst = SetCoverInstance(8, ((0, 1), (2, 3), (4, 5)))
    assert setcover_to_ktree(inst, 2).answer == "infeasible"


def test_sck_forcing_margin_rejected():
    inst = SetCoverInstance(5, ((0,), (1,), (2,), (3,), (4,)))
    with pytest.raises(PreconditionError):
        setcover_to_ktree(inst, 2)  # ceil(2n/g) = 5 < n/g + 3 = 5.5


def test_preprocess_large_forced_choice():
    inst = SetCoverInstance(8, (tuple(range(8)), (0, 1)))
    pre = setcover_preprocess_large(inst, 2)
    assert pre.solved_with_large is not None
    assert pre.solved_with_large.optimum == 1
    assert solve_setcover_via_ktree(inst, 2).optimum == 1


def test_preprocess_noop_when_all_small():
    inst = _crafted_inst()
    pre = setcover_preprocess_large(inst, 2)
    assert not pre.changed
    assert pre.residual == inst


def test_sck_composition_differential():
    rng = random.Random(4242)
    for t in range(12):
        n = rng.choice([8, 10, 12])
        m = rng.randint(5, 8)
        inst, _ = gen_planted("covered_universe", seed=t * 11 + 1, n=n, m=m,
                              max_set_size=n // 4)
        dp = setcover_dp(inst)
        kt = solve_setcover_via_ktree(inst, 2)
        assert (dp.answer, dp.optimum) == (kt.answer, kt.optimum)
        if kt.certificate is not None:
            assert verify_cover(inst, kt.certificate)
            assert len(set(kt.certificate)) == kt.optimum


def test_sck_composition_g3():
    rng = random.Random(33)
    for t in range(6):
        n = rng.choice([9, 12])
        maxsz = max(1, n // 9)
        m = rng.randint(-(-n // maxsz), -(-n // maxsz) + 3)
        inst, _ = gen_planted("covered_universe", seed=900 + t, n=n, m=m,
                              max_set_size=maxsz)
        dp = setcover_dp(inst)
        kt = solve_setcover_via_ktree(inst, 3)
        assert (dp.answer, dp.optimum) == (kt.answer, kt.optimum)


def test_sck_composition_with_large_sets_differential():
    rng = random.Random(21)
    for t in range(12):
        n = rng.choice([8, 9, 10])
        inst = gen_random("setcover", seed=t * 5, n=n, m=rng.randint(3, 7),
                          max_set_size=n)
        dp = setcover_dp(inst)
        kt = solve_setcover_via_ktree(inst, 2)
        assert (dp.answer, dp.optimum) == (kt.answer, kt.optimum)


# ---------------------------------------------------------------------------
# partial cover -> tree pipeline
# ---------------------------------------------------------------------------


def test_ppc_p_zero():
    inst = SetCoverInstance(6, ((0, 1),), variant="partial", p=0)
    res = ppc_to_ktree(inst, 2)
    assert res.optimum == 0


def test_ppc_matches_partial_dp():
    rng = random.Random(888)
    for t in range(30):
        n = rng.choice([6, 7, 8])
        p = rng.randint(0, n)
        base = gen_random("setcover", seed=t * 13 + 5, n=n, m=rng.randint(3, 7),
                          max_set_size=rng.randint(1, max(1, n // 2)))
        inst = SetCoverInstance(n, base.sets, variant="partial", p=p)
        dp = partialcover_dp(inst)
        kt = solve_ppc_via_ktree(inst, 2)
        assert (dp.answer, dp.optimum) == (kt.answer, kt.optimum), (t, n, p)


def test_ppc_p_equals_n_agrees_with_full_pipeline():
    for t in range(6):
        inst, _ = gen_planted("covered_universe", seed=t, n=8, m=6, max_set_size=2)
        pinst = SetCoverInstance(8, inst.sets, variant="partial", p=8)
        assert solve_ppc_via_ktree(pinst, 2).optimum == \
            solve_setcover_via_ktree(inst, 2).optimum


def test_ppc_preprocess_requires_partial():
    with pytest.raises(PreconditionError):
        ppc_preprocess_large(SetCoverInstance(4, ((0,),)), 2)


def test_ppc_rejects_unpreprocessed_large_sets():
    inst = SetCoverInstance(8, ((0, 1, 2, 3),), variant="partial", p=4)
    with pytest.raises(PreconditionError):
        ppc_to_ktree(inst, 2)
