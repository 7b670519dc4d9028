import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcover import instances, reductions
from xcover.cli import main
from xcover.errors import BudgetExceededError, CapacityError, PreconditionError
from xcover.instances import (
    FWD,
    PARTIAL,
    REV,
    UND,
    Digraph,
    PatternTree,
    SetCoverInstance,
    degree_table,
    gen_planted,
    gen_random,
    parse_instance,
    serialize_instance,
)
from xcover.partitions import Partition, enumerate_partitions, shrink_partition
from xcover.reductions import (
    build_host_graph,
    build_pattern_tree,
    check_cover_properties,
    decide_stream,
    ham_to_setcover,
    leaf_partitions,
    ntree_to_setcover,
    pattern_tree_size,
    ppc_preprocess_large,
    setcover_preprocess_large,
    solve_ham_via_setcover,
    solve_ntree_via_setcover,
    solve_ppc_via_ktree,
    solve_setcover_via_ktree,
    split_large_sets,
    tree_cover,
)
from xcover.solvers import (
    heldkarp_ham,
    partialcover_dp,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
)

from test_cli_golden import _inputs as golden_inputs

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
    oversized = SubtreeCover(((0, frozenset({0, 1, 2})),))
    report = check_cover_properties(path, oversized, 2)
    assert report["size"] and report["coverage"] and not report["ok"]
    missing_leaf = SubtreeCover(((0, frozenset({0, 1})), (2, frozenset({2}))))
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


def test_decide_stream_returns_the_first_accepting_instance():
    G, _ = gen_planted("ham_cycle", seed=4, n=8, extra_edges=6)
    first = next(prod for prod in ham_to_setcover(G, 2).produced
                 if setcover_dp(prod.instance).optimum == prod.target)
    decision = decide_stream(ham_to_setcover(G, 2, live_only=True))
    assert decision.accepted.provenance == first.provenance
    assert decision.result.optimum == first.target
    assert verify_cover(first.instance, decision.result.certificate)
    assert decision.examined >= 1
    no = decide_stream(ham_to_setcover(Digraph(4, frozenset({(0, 1), (1, 2), (2, 3)})), 2,
                                       live_only=True))
    assert no.accepted is None and no.result is None and no.examined == no.filtered == 3
    # instance 29 of 55 of an anchored ntree stream is the first to accept
    G, T, _ = gen_planted("embedded_tree", seed=7, k=7, host_n=7,
                          extra_edge_probability=0.15)
    ntree = decide_stream(ntree_to_setcover(G, T, 6))
    assert ntree.examined == 29
    assert ntree.result.answer == "optimum" and ntree.result.optimum == ntree.accepted.target
    assert verify_cover(ntree.accepted.instance, ntree.result.certificate)


def _decide_without_memo(batch):
    """The decide loop before the per-stream memo: every produced instance
    goes to the cover DP."""
    examined = 0
    for prod in batch.produced:
        examined += 1
        res = setcover_dp(prod.instance)
        if res.answer == "optimum" and res.optimum == prod.target:
            return prod, res, examined
    return None, None, examined


def _seeded_streams():
    """(label, stream factory taking ``live_only``): planted and random
    hosts, so both answers occur."""
    for n in (4, 6, 8):
        for delta in sorted({2, n // 2}):
            for seed in range(2):
                planted, _ = gen_planted("ham_cycle", seed=seed, n=n, extra_edges=n)
                rand = gen_random("digraph", seed=seed, n=n, edge_probability=0.4)
                for name, G in (("planted", planted), ("random", rand)):
                    yield (f"ham n={n} delta={delta} {name} {seed}",
                           lambda live_only, G=G, delta=delta:
                           ham_to_setcover(G, delta, live_only))
    for k in (5, 6, 7):
        for variant in ("anchored", "literal"):
            planted, T, _ = gen_planted("embedded_tree", seed=k, k=k, host_n=k,
                                        extra_edge_probability=0.2)
            rand = gen_random("digraph", seed=k, n=k, edge_probability=0.35)
            for name, G in (("planted", planted), ("random", rand)):
                yield (f"ntree k={k} {variant} {name}",
                       lambda live_only, G=G, T=T, variant=variant:
                       ntree_to_setcover(G, T, 6, variant, live_only))


def _key(prod):
    return prod.target, prod.instance.n, prod.instance.sets


def _covers_representatives(prod):
    """A ham order's instance holds every representative in some set, which
    is the case exactly when the order is live."""
    return set(prod.provenance) <= set().union(*prod.instance.sets)


def _is_full(inst):
    """The instance's sets cover its ground set, which is the case exactly
    when an ntree placement is built by the decide-side stream."""
    return set().union(*inst.sets) == set(range(inst.n))


def _live(label, prod):
    if label.startswith("ham"):
        return _covers_representatives(prod)
    return _is_full(prod.instance)


def test_decide_stream_solves_each_distinct_instance_once(monkeypatch):
    import xcover.reductions as reductions

    calls = []

    def counting(inst):
        calls.append((inst.n, inst.sets))
        return setcover_dp(inst)

    answers = set()
    for label, make in _seeded_streams():
        prod, res, examined = _decide_without_memo(make(False))
        got = decide_stream(make(True))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(reductions, "setcover_dp", counting)
            counted = decide_stream(make(True))
        assert len(calls) == len(set(calls)) == counted.distinct == got.distinct, label
        assert counted.examined == got.examined == examined, label
        if prod is None:
            assert got.accepted is None and got.result is None, label
        else:
            assert got.accepted.provenance == prod.provenance, label
            assert got.accepted.instance == prod.instance, label
            assert got.result.optimum == res.optimum, label
            assert got.result.certificate == res.certificate, label
        # the DP saw exactly the distinct live instances of the examined
        # prefix, and the dead ones were counted as filtered
        prefix = list(itertools.islice(make(False).produced, examined))
        live = [p for p in prefix if _live(label, p)]
        assert got.distinct == len({_key(p) for p in live}), label
        assert got.filtered == len(prefix) - len(live), label
        answers.add(prod is not None)
    assert answers == {True, False}


def test_decide_stream_builds_only_the_distinct_ham_instances(monkeypatch):
    """The decide path builds an instance for each live order it yields and
    for nothing else: every other examined order is a skip count."""
    import xcover.reductions as reductions

    built = []

    def counting(**fields):
        built.append(fields["sets"])
        return SetCoverInstance(**fields)

    monkeypatch.setattr(reductions, "SetCoverInstance", counting)
    no = gen_random("digraph", seed=0, n=8, edge_probability=0.35)
    yes, _ = gen_planted("ham_cycle", seed=3, n=8, extra_edges=8)
    answers = []
    for G in (no, yes):
        built.clear()
        batch = ham_to_setcover(G, 2, live_only=True)
        items = []
        batch.produced = (items.append(item) or item for item in batch.produced)
        decision = decide_stream(batch)
        live = [item for item in items if not isinstance(item, int)]
        assert len(built) == len(live) == decision.examined - decision.filtered
        assert len(built) < decision.examined
        answers.append(decision.accepted is not None)
    assert answers == [False, True]


def test_reduced_layout_full_test_matches_the_union_of_the_sets():
    """For every placement, the layout skips exactly the instances whose
    sets leave an element uncovered."""
    from xcover.reductions import _ReducedLayout

    rng = random.Random(5)
    fulls = set()
    for case in range(40):
        k = rng.choice([4, 5, 6, 7])
        G = gen_random("digraph", seed=case, n=k, edge_probability=rng.choice([0.3, 0.5]))
        T = gen_random("tree", seed=case, k=k, oriented=case % 2 == 0)
        for variant in ("anchored", "literal"):
            produced = list(ntree_to_setcover(G, T, 6, variant).produced)
            assert not any(isinstance(prod, int) for prod in produced)
            if not produced:
                continue
            anchors = [a for a, _ in produced[0].provenance]
            layout = _ReducedLayout(G, T, tree_cover(T, 3).subtrees,
                                    {v: i for i, v in enumerate(anchors)}, variant, 6)
            for prod in produced:
                hosts = tuple(h for _, h in prod.provenance)
                assert layout.instance(hosts) == prod.instance
                full = _is_full(prod.instance)
                assert (layout.instance(hosts, live_only=True) is not None) == full
                fulls.add(full)
    assert fulls == {True, False}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(4, 8), delta=st.integers(6, 9),
       variant=st.sampled_from(["anchored", "literal"]))
def test_ntree_live_decide_matches_the_unfiltered_stream(data, k, delta, variant):
    G = data.draw(_digraphs(k))
    T = data.draw(_trees(k))
    full = list(ntree_to_setcover(G, T, delta, variant).produced)
    items = list(ntree_to_setcover(G, T, delta, variant, live_only=True).produced)
    live = [item for item in items if not isinstance(item, int)]
    # the built placements are the full ones, in stream order, and each run
    # of the others is one skip count
    assert [(p.provenance, p.instance) for p in live] == \
        [(p.provenance, p.instance) for p in full if _is_full(p.instance)]
    assert sum(item for item in items if isinstance(item, int)) + len(live) == len(full)
    assert all(not isinstance(b, int) for a, b in zip(items, items[1:]) if isinstance(a, int))
    prod, res, examined = _decide_without_memo(ntree_to_setcover(G, T, delta, variant))
    got = decide_stream(ntree_to_setcover(G, T, delta, variant, live_only=True))
    assert got.examined == examined
    if prod is None:
        assert got.accepted is None and got.result is None
    else:
        assert got.accepted.provenance == prod.provenance
        assert got.result.certificate == res.certificate


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


def _stream_corpus_digest():
    """sha256 over the exit code and stdout of ``pipeline ham`` at delta 2
    and n/2 and of ``pipeline ntree`` on seeded planted and random hosts,
    then over the first 50 items of seeded ``ham_to_setcover(G, 4)`` full
    streams.  Inputs are written to, and passed by relative paths from, the
    current directory."""
    def write(name, obj):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(obj))
        return name

    commands = []
    for s in range(6):
        n = (6, 8, 10)[s % 3]
        planted, _ = gen_planted("ham_cycle", seed=s, n=n, extra_edges=n)
        for label, G in (("planted", planted),
                         ("random", gen_random("digraph", seed=s, n=n, edge_probability=0.3))):
            g = write(f"ham_{label}{s}.digraph", G)
            commands += [["pipeline", "ham", g, "--delta", str(delta)] for delta in (2, n // 2)]
        host, T, _ = gen_planted("embedded_tree", seed=s, k=7, host_n=7,
                                 extra_edge_probability=0.2)
        t = write(f"tree{s}.tree", T)
        for label, G in (("planted", host),
                         ("random", gen_random("digraph", seed=s, n=7, edge_probability=0.35))):
            g = write(f"ntree_{label}{s}.digraph", G)
            commands += [["pipeline", "ntree", g, t, "--delta", "6", "--variant", variant]
                         for variant in ("anchored", "literal")]
    digest = hashlib.sha256()
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{buf.getvalue()}".encode())
    for s in range(4):
        n = (8, 12)[s % 2]
        for G in (gen_planted("ham_cycle", seed=s, n=n, extra_edges=2 * n)[0],
                  gen_random("digraph", seed=s, n=n, edge_probability=0.4)):
            for prod in itertools.islice(ham_to_setcover(G, 4).produced, 50):
                digest.update(repr((prod.provenance, prod.target, prod.instance)).encode())
    return digest.hexdigest()


def test_ham_and_ntree_pipelines_match_the_pinned_digest(tmp_path, monkeypatch):
    """Taken at commit 8edbd5a, before the ham stream read its liveness
    from an interior index."""
    monkeypatch.chdir(tmp_path)
    assert _stream_corpus_digest() == (
        "365164f4d75e5831f04fb8fbbb49d1e881f961df1651a930fdf7bc2520f9cfe4")


def test_stream_steps_count_placements_tried_and_representative_sets(monkeypatch):
    """The literal variant pins no edge, so its stream tries every partial
    placement of its anchors, sum over i of perm(k, i); the ham stream
    visits C(n - 1, t - 1) representative sets.  Either runs whole at a cap
    of exactly that many steps and stops one step below it."""
    from xcover import reductions

    T = gen_random("tree", seed=3, k=7)
    r = len({root for root, _ in tree_cover(T, 3).subtrees})
    G = gen_random("digraph", seed=3, n=7, edge_probability=0.5)
    ham_G, _ = gen_planted("ham_cycle", seed=3, n=8, extra_edges=8)
    for make, steps in ((lambda: ntree_to_setcover(G, T, 6, "literal", live_only=True),
                         sum(math.perm(7, i) for i in range(1, r + 1))),
                        (lambda: ham_to_setcover(ham_G, 2, live_only=True), math.comb(7, 3))):
        monkeypatch.setattr(reductions, "MAX_STREAM_STEPS", steps)
        assert list(make().produced)
        monkeypatch.setattr(reductions, "MAX_STREAM_STEPS", steps - 1)
        with pytest.raises(BudgetExceededError, match=f"MAX_STREAM_STEPS = {steps - 1} "):
            list(make().produced)


def _ham_items_digest():
    """sha256 over the items (skip counts, provenance, target, instance) of
    full and live seeded ``ham_to_setcover`` streams: whole streams at
    n = 10, delta 2 and 5, on planted and random hosts, and the first 50
    items of streams at n = 16, delta 4."""
    streams = []
    for s in range(4):
        planted, _ = gen_planted("ham_cycle", seed=s, n=10, extra_edges=5 + 3 * s)
        random_host = gen_random("digraph", seed=s, n=10, edge_probability=0.25 + 0.05 * s)
        streams += [(G, delta, None) for G in (planted, random_host) for delta in (2, 5)]
    for s in range(2):
        planted, _ = gen_planted("ham_cycle", seed=s, n=16, extra_edges=48)
        random_host = gen_random("digraph", seed=s, n=16, edge_probability=0.27)
        streams += [(planted, 4, 50), (random_host, 4, 50)]
    digest = hashlib.sha256()
    for G, delta, limit in streams:
        for live_only in (False, True):
            items = ham_to_setcover(G, delta, live_only).produced
            for item in itertools.islice(items, limit):
                if isinstance(item, int):
                    digest.update(f"{item}\n".encode())
                else:
                    digest.update(repr((item.provenance, item.target, item.instance)).encode())
            digest.update(b"end\n")
    return digest.hexdigest()


def test_ham_stream_items_match_the_pinned_digest():
    """Taken at commit dc795ab, before the ham stream read its sets off
    its interior index."""
    assert _ham_items_digest() == (
        "87264bbfd23b84d87f86664106aafe4eb012691ec45eb85a779e861a6c91fb5e")


def _anchored_hosts_and_trees(k, anchors, count, extra_edge_probability):
    """``count`` seeded pairs of a host with an oriented k-node tree planted
    in it and a random host of about the same arc count, each tree pinning
    ``anchors`` nodes in the anchored variant at delta 6."""
    pairs, seed = [], 0
    while len(pairs) < 2 * count:
        seed += 1
        host, T, _ = gen_planted("embedded_tree", seed=seed, k=k, host_n=k, oriented=True,
                                 extra_edge_probability=extra_edge_probability)
        roots = {r for r, _ in tree_cover(T, 3).subtrees}
        if len(roots | {T.parent[r] for r in roots if r != T.root}) != anchors:
            continue
        p = len(host.edges) / (k * (k - 1))
        pairs += [(host, T), (gen_random("digraph", seed=seed, n=k, edge_probability=p), T)]
    return pairs


def _ntree_items_digest():
    """sha256 over the items (skip counts, provenance, target, instance) of
    full and live seeded ``ntree_to_setcover`` streams: whole anchored
    delta 6 streams at k = 10 with 4 anchors on sparse and denser hosts,
    the first 50 items of anchored streams at k = 14 with 5 anchors, and
    whole literal streams at k <= 7."""
    streams = [(G, T, "anchored", None)
               for p in (0.1, 0.3) for G, T in _anchored_hosts_and_trees(10, 4, 4, p)]
    streams += [(G, T, "anchored", 50) for G, T in _anchored_hosts_and_trees(14, 5, 2, 0.25)]
    for s in range(6):
        k = (5, 6, 7)[s % 3]
        host, T, _ = gen_planted("embedded_tree", seed=s, k=k, host_n=k, oriented=s % 2 == 0,
                                 extra_edge_probability=0.2)
        random_host = gen_random("digraph", seed=s, n=k, edge_probability=0.35)
        streams += [(host, T, "literal", None), (random_host, T, "literal", None)]
    digest = hashlib.sha256()
    for G, T, variant, limit in streams:
        for live_only in (False, True):
            items = ntree_to_setcover(G, T, 6, variant, live_only).produced
            for item in itertools.islice(items, limit):
                if isinstance(item, int):
                    digest.update(f"{item}\n".encode())
                else:
                    digest.update(repr((item.provenance, item.target, item.instance)).encode())
            digest.update(b"end\n")
    return digest.hexdigest()


def test_ntree_stream_items_match_the_pinned_digest():
    """Taken at commit f135b9e, before the ntree stream kept its images as
    host bitmasks."""
    assert _ntree_items_digest() == (
        "18d896140f8bf4b2eca8a22adc41826465866ca5693da99aa4076c3e612c04ef")


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
    assert bundle.host.masks_along[UND][r].bit_count() == 3 + 5 + 8


def test_host_graph_no_m_to_mg_edge():
    bundle = build_host_graph(_crafted_inst(), 2)
    for u, v in bundle.host.edges:
        kinds = {bundle.node_roles[u][0], bundle.node_roles[v][0]}
        assert kinds != {"M", "Mg"}


def _neighbours(G, u):
    return [w for w in range(G.num_nodes) if G.has_arc(u, w)]


def test_host_graph_edge_semantics():
    inst = _crafted_inst()
    bundle = build_host_graph(inst, 2)
    roles = bundle.node_roles
    by_role = {role: v for v, role in roles.items()}
    for i, s in enumerate(inst.sets):
        node = by_role[("M", i)]
        elems = {roles[w][1] for w in _neighbours(bundle.host, node) if roles[w][0] == "N"}
        assert elems == set(s)
    for v, role in roles.items():
        if role[0] == "Mg":
            union = set()
            for i in role[1]:
                union.update(inst.sets[i])
            elems = {roles[w][1] for w in _neighbours(bundle.host, v) if roles[w][0] == "N"}
            assert elems == union


def test_cover_indices_are_read_off_the_node_ranges():
    bundle = build_host_graph(_crafted_inst(), 2)
    roles = bundle.node_roles
    by_role = {role: v for v, role in roles.items()}
    # one grouped star (from anchor 1) and one remainder star (from the root)
    tree = build_pattern_tree(Partition((1, 1, 1)), 2, 8)
    grouped, rest = (v for v in range(4, tree.k) if tree.children[v])
    assert (tree.parent[grouped], tree.parent[rest]) == (1, 0)
    pair, single = by_role[("Mg", (0, 4))], by_role[("M", 1)]
    for u, role in roles.items():
        want = sorted({1, *role[1]}) if role[0] == "Mg" else None
        assert reductions._extract_cover_indices(bundle, tree, {grouped: u, rest: single}) == want
        want = sorted({0, 4, role[1]}) if role[0] == "M" else None
        assert reductions._extract_cover_indices(bundle, tree, {grouped: pair, rest: u}) == want


def test_host_graph_requires_assumption():
    inst = SetCoverInstance(8, ((0, 1, 2),))  # 3 > 8/4
    with pytest.raises(PreconditionError):
        build_host_graph(inst, 2)


def test_host_graph_capacity():
    inst = SetCoverInstance(25, ((0,),) * 6)
    with pytest.raises(CapacityError):
        build_host_graph(inst, 5)


def test_host_graph_over_the_node_cap_is_refused_before_it_is_built():
    # n = 24 and m = 260 at g = 2: 24 + 260 + C(260, 2) + 4 * 24 + 4 = 34,054 nodes
    inst = SetCoverInstance(24, tuple((j % 24,) for j in range(260)))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="host of 34054 nodes exceeds"):
        build_host_graph(inst, 2)
    assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build_host_graph(inst, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _pinned_host_cases():
    """60 seeded instances: planted plain covers with sets of at most n/4
    elements, random plain covers (some with large sets), partial covers
    at n = 13..16 and p = n-5..n, and planted singleton covers at g = 3."""
    for seed in range(24):
        n = (8, 10, 12)[seed % 3]
        inst, _ = gen_planted("covered_universe", seed=seed, n=n, m=5 + seed % 4,
                              max_set_size=n // 4)
        yield inst, 2
    for seed in range(16):
        n = 8 + seed % 5
        yield gen_random("setcover", seed=seed, n=n, m=5 + seed % 3, max_set_size=n // 2), 2
    for seed in range(8):
        n = 13 + seed % 4
        yield gen_random("partialcover", seed=seed, n=n, m=6 + seed % 3, max_set_size=4,
                         p=n - seed % 6), 2
    for seed in range(8):
        n = 13 + seed % 4
        inst, _ = gen_planted("covered_universe", seed=seed, n=n, m=n // 2 + 3, max_set_size=2)
        yield SetCoverInstance(n, inst.sets, variant="partial", p=n - 5 + seed % 6), 2
    for seed in range(4):
        n = 9 + seed
        inst, _ = gen_planted("covered_universe", seed=seed, n=n, m=n + 1, max_set_size=1)
        yield inst, 3


def test_host_graphs_and_pipeline_results_are_pinned():
    # residual host, its node roles and the pipeline's record, digested
    digest = hashlib.sha256()
    for inst, g in _pinned_host_cases():
        bundle = build_host_graph(setcover_preprocess_large(inst, g).residual, g)
        res = solve_setcover_via_ktree(inst, g)
        record = [serialize_instance(bundle.host), sorted(bundle.node_roles.items()),
                  res.answer, res.optimum, res.certificate, res.stats]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest()[:16] == "02d11b14dba7d7e1"


def _layout_cases():
    """136 residuals at n = 8..24 (n >= 9 at g = 3, for the forcing
    margins), g = 2 and 3, plain and partial, with g-subset nodes (m >= g
    small sets) and without (m < g); some carry a large set that the split
    removes."""
    rng = random.Random("host layout")
    for n, g, partial, with_mg in itertools.product(range(8, 25), (2, 3), (False, True),
                                                    (True, False)):
        n = max(n, 9) if g == 3 else n
        p = rng.randint(n - 4, n) if partial else n
        small = max(1, (p - partial) // (g * g))
        m = rng.randint(g, 7) if with_mg else rng.randint(1, g - 1)
        sets = [tuple(sorted(rng.sample(range(n), rng.randint(1, small)))) for _ in range(m)]
        sets += [tuple(sorted(rng.sample(range(n), n // 2)))] * rng.randint(0, 1)
        inst = SetCoverInstance(n, tuple(sets), variant="partial" if partial else "plain",
                                p=p if partial else None)
        yield split_large_sets(inst, g)[0], g


def test_host_tables_match_the_edge_built_ones():
    for inst, g in _layout_cases():
        bundle = build_host_graph(inst, g)
        masks = bundle.masks_along[UND]
        edges = {(u, v) for u, mask in enumerate(masks) for v in range(bundle.num_nodes)
                 if mask >> v & 1}
        G = Digraph(num_nodes=bundle.num_nodes, edges=frozenset(edges), undirected_mode=True)
        assert G.masks_along == bundle.masks_along
        assert G.at_least == bundle.at_least
        assert bundle.host == G


@pytest.mark.parametrize("extra", [1 << 10_000, 1 << 8])
def test_host_layout_refuses_an_edge_out_of_range_or_a_self_loop(monkeypatch, extra):
    # n = 8, so node 8 is set 0's own node
    inst = _crafted_inst()
    masks = inst.masks()
    monkeypatch.setattr(SetCoverInstance, "masks", lambda self: [masks[0] | extra] + masks[1:])
    with pytest.raises(ValueError, match="edge out of range or a self-loop"):
        build_host_graph(inst, 2)


def test_host_layout_and_roles_match_the_pinned_digest():
    """Taken at commit ce8fa73, when the host was built as an edge set."""
    digest = hashlib.sha256()
    for inst, g in _layout_cases():
        bundle = build_host_graph(inst, g)
        record = [serialize_instance(bundle.host), sorted(bundle.node_roles.items())]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == (
        "907d0c0f0d79732ac5044d819f7ec99c96e5cfdffb7feb5cb501d527dc6c5824")


def _min_cover_size(sets, total):
    for size in range(len(sets) + 1):
        for combo in itertools.combinations(sets, size):
            if len(set().union(*combo)) >= total:
                return size
    return None


def _embed_shaped_cases():
    """12 instances at n = 16 shaped like the benchmark's embed corpus:
    plain covers of six 4-sets with optimum 5 plus one large set, and
    partial covers of ten 2-sets reaching p = 12 with optimum 7."""
    rng = random.Random("embed corpus shape")
    for i in range(12):
        if i % 3 < 2:
            while True:
                sets = [tuple(sorted(rng.sample(range(16), 4))) for _ in range(6)]
                if _min_cover_size(sets, 16) == 5:
                    break
            large = tuple(sorted(rng.sample(range(16), 5 + rng.randrange(2))))
            yield SetCoverInstance(16, tuple(sets) + (large,))
        else:
            while True:
                sets = [tuple(sorted(rng.sample(range(16), 2))) for _ in range(10)]
                if _min_cover_size(sets, 12) == 7:
                    break
            yield SetCoverInstance(16, tuple(sets), variant=PARTIAL, p=12)


def test_pipeline_at_corpus_size_matches_the_pinned_digest():
    """Taken at commit ce8fa73, before the host's search tables were built
    from its layout; re-taken when the trees began to stop at the
    preprocessing optimum, which lowers trees_tried and explored only."""
    digest = hashlib.sha256()
    for inst in _embed_shaped_cases():
        res = solve_setcover_via_ktree(inst, 2)
        record = [res.answer, res.optimum, res.certificate, res.stats]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == (
        "0de11b560025b1f11fb4f655f5a779c24f0ba3c79d48050e35de27c04f23df85")


def test_pipeline_answers_match_the_pinned_digest():
    """sha256 over answer, optimum and certificate (no stats) on the golden
    corpus's sc/ppc fixtures and the corpus-size cases.  Taken at commit
    89cda68, while the trees still ran past the preprocessing optimum."""
    fixtures = [parse_instance(text) for name, text in sorted(golden_inputs().items())
                if name.endswith((".sc", ".pc"))]
    digest = hashlib.sha256()
    for inst in fixtures + list(_embed_shaped_cases()):
        res = solve_setcover_via_ktree(inst, 2)
        digest.update(json.dumps([res.answer, res.optimum, res.certificate]).encode() + b"\n")
    assert digest.hexdigest() == (
        "96b0f86c1b9e9db73cccbfb0df339a229623e550f67e70d09dbb60feeba70d79")


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
    res = solve_setcover_via_ktree(inst, 2)
    assert res.optimum == 4
    assert res.certificate is not None and verify_cover(inst, res.certificate)


def test_sck_yes_direction_upper_bound():
    # a known cover of size d means the pipeline returns at most d
    inst = _crafted_inst()
    res = solve_setcover_via_ktree(inst, 2)
    assert res.optimum <= 4


def test_leaf_partitions_enumerate_exactly_the_partitions_whose_stars_fit():
    # exactly the partitions that pass the fit filter below, in the same order
    def fits(alpha, g, max_size):
        shrunk = shrink_partition(alpha, g)
        return (all(v <= max_size for v in shrunk.remainder)
                and all(v <= g * max_size for v in shrunk.grouped))

    for total in range(0, 15):
        inst = SetCoverInstance(total, ())
        every = list(leaf_partitions(inst))
        for g in range(1, 5):
            for max_size in range(0, total + 2):
                want = [a for a in every if fits(a, g, max_size)]
                assert list(leaf_partitions(inst, g, max_size)) == want, (total, g, max_size)
    # g = 2, sets of 2: blocks of two parts sum to at most 4, a lone last part is at most 2
    assert [a.parts for a in leaf_partitions(SetCoverInstance(8, ()), 2, 2)] == [
        (2, 2, 2, 2), (2, 2, 2, 1, 1), (3, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)]


def test_sck_builds_one_partition_per_tree_tried(monkeypatch):
    built = []
    init = Partition.__post_init__

    def counted(self):
        built.append(self.parts)
        init(self)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    inst = SetCoverInstance(8, ((0, 1), (2, 3), (4, 5), (6,), (7,)))
    res = solve_setcover_via_ktree(inst, 2)
    assert (res.optimum, res.stats["trees_tried"]) == (5, 2)
    assert built == [(2, 2, 2, 2), (2, 2, 2, 1, 1)]


def test_sck_builds_the_degree_table_once_per_host(monkeypatch):
    # the trees tried on one host share its table; the undirected host
    # files its one table under every orientation.  Both call sites of the
    # shared builder are counted, so a Digraph built for the search would show
    built, bundles = [], []

    def counted(masks):
        built.append(masks)
        return degree_table(masks)

    def kept(inst, g):
        bundles.append(build_host_graph(inst, g))
        return bundles[-1]

    monkeypatch.setattr(instances, "degree_table", counted)
    monkeypatch.setattr(reductions, "degree_table", counted)
    monkeypatch.setattr(reductions, "build_host_graph", kept)
    inst = SetCoverInstance(8, ((0, 1), (2, 3), (4, 5), (6,), (7,)))
    res = solve_setcover_via_ktree(inst, 2)
    assert (res.optimum, res.stats["trees_tried"]) == (5, 2)
    [_], [bundle] = built, bundles
    assert bundle.at_least[FWD] is bundle.at_least[REV] is bundle.at_least[UND]
    # the search never builds the edge set or the roles
    assert "host" not in vars(bundle) and "node_roles" not in vars(bundle)


def test_sck_infeasible_instance():
    inst = SetCoverInstance(8, ((0, 1), (2, 3), (4, 5)))
    assert solve_setcover_via_ktree(inst, 2).answer == "infeasible"


def test_sck_forcing_margin_rejected():
    inst = SetCoverInstance(5, ((0,), (1,), (2,), (3,), (4,)))
    with pytest.raises(PreconditionError):
        solve_setcover_via_ktree(inst, 2)  # ceil(2n/g) = 5 < n/g + 3 = 5.5


def test_preprocess_large_forced_choice():
    inst = SetCoverInstance(8, (tuple(range(8)), (0, 1)))
    pre = setcover_preprocess_large(inst, 2)
    assert pre.solved_with_large is not None
    assert pre.solved_with_large.optimum == 1
    assert solve_setcover_via_ktree(inst, 2).optimum == 1


def test_preprocess_noop_when_all_small():
    inst = _crafted_inst()
    pre = setcover_preprocess_large(inst, 2)
    assert not pre.large_indices
    assert pre.residual == inst
    assert pre.residual_index_map == list(range(inst.m))


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
        pre = setcover_preprocess_large(inst, 2)
        # the small sets' indices in order, each naming its residual set
        assert pre.residual_index_map == [j for j in range(inst.m)
                                          if j not in pre.large_indices]
        assert [inst.sets[j] for j in pre.residual_index_map] == list(pre.residual.sets)
        dp = setcover_dp(inst)
        kt = solve_setcover_via_ktree(inst, 2)
        assert (dp.answer, dp.optimum) == (kt.answer, kt.optimum)


# ---------------------------------------------------------------------------
# partial cover -> tree pipeline
# ---------------------------------------------------------------------------


def test_ppc_p_zero():
    inst = SetCoverInstance(6, ((0, 1),), variant="partial", p=0)
    res = solve_setcover_via_ktree(inst, 2)
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
    # the partial bound is |S|g^2 >= p: singletons are large at p = 4, not at p = 5
    sets = ((0,), (1,), (2,))
    with pytest.raises(PreconditionError, match="over the size bound"):
        build_host_graph(SetCoverInstance(8, sets, variant="partial", p=4), 2)
    assert build_host_graph(SetCoverInstance(8, sets, variant="partial", p=5), 2).m == 3


# ---------------------------------------------------------------------------
# whole ntree and ham streams against independent oracles
# ---------------------------------------------------------------------------


def _stream_records(batch):
    return [(prod.instance, prod.target, prod.provenance) for prod in batch.produced]


def _edge_ok(G, hp, hv, o):
    if o == FWD:
        return G.has_arc(hp, hv)
    if o == REV:
        return G.has_arc(hv, hp)
    return G.has_arc(hp, hv) or G.has_arc(hv, hp)


def _oracle_images(G, T, nodes, root, pins, avoid):
    """Host-node sets of the orientation-respecting copies of a subtree,
    pinned and kept off ``avoid``, placing parents before children."""
    depths = T.depths()
    order = sorted(nodes, key=lambda v: depths[v])
    images = set()

    def place(i, assign):
        if i == len(order):
            images.add(tuple(sorted(assign.values())))
            return
        v = order[i]
        for u in ([pins[v]] if v in pins else range(G.num_nodes)):
            if u in avoid or u in assign.values():
                continue
            if v != root and not _edge_ok(G, assign[T.parent[v]], u, T.orientation[v]):
                continue
            place(i + 1, {**assign, v: u})

    place(0, {})
    return sorted(images)


def _ntree_oracle(G, T, delta, variant):
    """Every anchor permutation, then the pinned-edge filter, then per
    placement the subtree images with the other pinned hosts avoided."""
    subtrees = tree_cover(T, delta // 3 + 1).subtrees
    roots = sorted({r for r, _ in subtrees})
    anchors = roots
    if variant == "anchored":
        anchors = sorted(set(roots) | {T.parent[r] for r in roots if r != T.root})
    out = []
    for perm in itertools.permutations(range(T.k), len(anchors)):
        pins = dict(zip(anchors, perm))
        if variant == "anchored" and not all(
                _edge_ok(G, pins[p], pins[v], o) for p, v, o in T.edge_list()
                if p in pins and v in pins):
            continue
        pinned = set(perm)
        host_elem = {u: i for i, u in enumerate(u for u in range(T.k) if u not in pinned)}
        next_id = len(host_elem)
        bases = []
        for r, nodes in subtrees:
            base = [next_id]
            next_id += 1
            if variant == "anchored":
                for q in sorted(nodes):
                    if q in pins and q != r:
                        base.append(next_id)
                        next_id += 1
            bases.append(base)
        sets = []
        for (r, nodes), base in zip(subtrees, bases):
            local = {v: pins[v] for v in nodes if v in pins}
            for image in _oracle_images(G, T, nodes, r, local, pinned - set(local.values())):
                sets.append(tuple(sorted(base + [host_elem[u] for u in image if u in host_elem])))
        inst = SetCoverInstance(n=next_id, sets=tuple(dict.fromkeys(sets)), delta=delta)
        out.append((inst, len(subtrees), tuple(sorted(pins.items()))))
    return out


def _ham_oracle(G, delta):
    """Per cyclic order, one path search per consecutive pair."""
    n = G.num_nodes
    t = n // delta
    out = []
    for rest in itertools.combinations(range(1, n), t - 1):
        for perm in itertools.permutations(rest):
            order = (0,) + perm
            sets = []
            for i in range(t):
                a, b = order[i], order[(i + 1) % t]
                stack = [[a]]
                while stack:
                    path = stack.pop()
                    if len(path) == delta:
                        if G.has_arc(path[-1], b):
                            sets.append(tuple(sorted(path)))
                        continue
                    # reversed, so the pop order is ascending successor order
                    for w in reversed(range(n)):
                        if G.has_arc(path[-1], w) and w not in order and w not in path:
                            stack.append(path + [w])
            inst = SetCoverInstance(n=n, sets=tuple(dict.fromkeys(sets)), delta=delta)
            out.append((inst, t, order))
    return out


@st.composite
def _digraphs(draw, n):
    """Each ordered pair is an arc independently, so anti-parallel pairs occur."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, frozenset(pair for pair, k in zip(pairs, keep) if k))


@st.composite
def _trees(draw, k):
    """A tree with a drawn root and labelling, oriented or not."""
    label = draw(st.permutations(range(k)))
    parent = [-1] * k
    orientation = ["und"] * k
    oriented = draw(st.booleans())
    for i in range(1, k):
        parent[label[i]] = label[draw(st.integers(0, i - 1))]
        if oriented:
            orientation[label[i]] = draw(st.sampled_from([FWD, REV]))
    return PatternTree(k, label[0], tuple(parent), tuple(orientation))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(4, 8), delta=st.integers(6, 9),
       variant=st.sampled_from(["anchored", "literal"]))
def test_ntree_stream_matches_the_oracle(data, k, delta, variant):
    G = data.draw(_digraphs(k))
    T = data.draw(_trees(k))
    assert _stream_records(ntree_to_setcover(G, T, delta, variant)) == \
        _ntree_oracle(G, T, delta, variant)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(4, 8))
def test_ham_stream_matches_the_oracle(data, n):
    G = data.draw(_digraphs(n))
    delta = data.draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    assert _stream_records(ham_to_setcover(G, delta)) == _ham_oracle(G, delta)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(4, 8))
def test_ham_live_decide_matches_the_unpruned_stream(data, n):
    G = data.draw(_digraphs(n))
    for delta in range(2, n + 1):
        if n % delta:
            continue
        full = list(ham_to_setcover(G, delta).produced)
        items = list(ham_to_setcover(G, delta, live_only=True).produced)
        live = [item for item in items if not isinstance(item, int)]
        # the live orders are the orders covering every representative, in
        # stream order, and the skip counts account for all the others
        assert [(p.provenance, p.instance) for p in live] == \
            [(p.provenance, p.instance) for p in full if _covers_representatives(p)], delta
        assert sum(item for item in items if isinstance(item, int)) + len(live) == len(full)
        # each run of dead orders is one skip count
        assert all(not isinstance(b, int) for a, b in zip(items, items[1:]) if isinstance(a, int))
        if delta == n:
            # one representative: its single order is live exactly when
            # node 0 has a closed delta-walk, i.e. its instance has a set
            assert len(live) == (full[0].instance.m > 0)
        prod, _, examined = _decide_without_memo(ham_to_setcover(G, delta))
        got = decide_stream(ham_to_setcover(G, delta, live_only=True))
        assert got.examined == examined, delta
        if prod is None:
            assert got.accepted is None
            assert got.filtered + len(live) == got.examined == len(full)
        else:
            assert got.accepted.provenance == prod.provenance, delta


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(4, 7), variant=st.sampled_from(["anchored", "literal"]))
def test_ntree_decide_matches_the_unmemoized_stream(data, k, variant):
    G = data.draw(_digraphs(k))
    T = data.draw(_trees(k))
    prod, res, examined = _decide_without_memo(ntree_to_setcover(G, T, 6, variant))
    got = decide_stream(ntree_to_setcover(G, T, 6, variant))
    assert (got.accepted is None) == (prod is None)
    assert got.examined == examined and got.filtered == 0
    prefix = itertools.islice(ntree_to_setcover(G, T, 6, variant).produced, examined)
    assert got.distinct == len({_key(p) for p in prefix})
    if prod is not None:
        assert got.accepted.provenance == prod.provenance
        assert got.result.certificate == res.certificate
