"""The kernels, the color-coding trial and the tree sieve against brute-force
oracles."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from xcover import kernels, solvers
from xcover.instances import EXACT, PARTIAL, SetCoverInstance, gen_planted
from xcover.solvers import (
    exactcover_solve,
    exactcover_with_large_sets,
    heldkarp_ham,
    partialcover_dp,
    setcover_dp,
    verify_cover,
    verify_ham_cycle,
)


def _subsets_by_size(m):
    for c in range(m + 1):
        yield from itertools.combinations(range(m), c)


def _union(masks, chosen):
    got = 0
    for j in chosen:
        got |= masks[j]
    return got


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_cover_optimum_matches_subset_enumeration():
    rng = random.Random(10)
    for _ in range(400):
        n = rng.randint(0, 10)
        m = rng.randint(0, 12)
        masks = [rng.getrandbits(n) for _ in range(m)]
        p = rng.randint(0, n)
        want = next((len(c) for c in _subsets_by_size(m)
                     if bin(_union(masks, c)).count("1") >= p), None)
        size, chosen, _ = kernels.cover_optimum(masks, n, p)
        res = None if size is None else (size, chosen)
        assert (res is None) == (want is None), (n, masks, p)
        if res is not None:
            assert res[0] == want
            assert len(res[1]) == res[0]
            assert bin(_union(masks, res[1])).count("1") >= p


def test_exact_cover_optimum_matches_disjoint_subset_enumeration():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 10)
        m = rng.randint(0, 12)
        masks = [rng.getrandbits(n) for _ in range(m)]
        full = (1 << n) - 1
        # the masks of c are pairwise disjoint exactly when their sum has no carry
        want = next((len(c) for c in _subsets_by_size(m)
                     if sum(masks[j] for j in c) == full == _union(masks, c)), None)
        size, chosen, _ = kernels.exact_cover_optimum(masks, n)
        res = None if size is None else (size, chosen)
        assert (res is None) == (want is None), (n, masks)
        if res is not None:
            assert res[0] == want
            assert len(res[1]) == res[0]
            got = 0
            for j in res[1]:
                assert got & masks[j] == 0
                got |= masks[j]
            assert got == full


# Reference oracle: the dense subset DPs over all 2^n masks that the sparse
# cover search replaced, kept here (the exact one reading its answer at the
# uncovered mask rather than the full one).  A partial cover must reproduce
# their certificates exactly; a full cover, which grows only by the sets
# holding the lowest missing element, their optima.
_INF = 0xFF


def _dense_cover_optimum(masks, n, p):
    if p <= 0:
        return 0, []
    size = 1 << n
    dp = bytearray([_INF]) * size
    dp[0] = 0
    choice = [-1] * size
    pred = [0] * size
    m = len(masks)
    for mask in range(size):
        d = dp[mask]
        if d == _INF:
            continue
        d1 = d + 1
        for j in range(m):
            nm = mask | masks[j]
            if dp[nm] > d1:
                dp[nm] = d1
                choice[nm] = j
                pred[nm] = mask
    best = _INF
    best_mask = -1
    for mask in range(size):
        if dp[mask] < best and bin(mask).count("1") >= p:
            best = dp[mask]
            best_mask = mask
    if best_mask < 0:
        return None
    chosen = []
    mask = best_mask
    while mask:
        chosen.append(choice[mask])
        mask = pred[mask]
    chosen.reverse()
    return best, chosen


def _dense_exact_cover_optimum(masks, n, covered=0):
    size = 1 << n
    full = (size - 1) & ~covered
    if full == 0:
        return 0, []
    buckets = [[] for _ in range(n)]
    for j, s in enumerate(masks):
        if s:
            buckets[(s & -s).bit_length() - 1].append(j)
    dp = bytearray([_INF]) * size
    dp[0] = 0
    choice = [-1] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        best = _INF
        bj = -1
        for j in buckets[low]:
            s = masks[j]
            if s & ~mask:
                continue
            d = dp[mask ^ s]
            if d + 1 < best:
                best = d + 1
                bj = j
        if bj >= 0:
            dp[mask] = best
            choice[mask] = bj
    if dp[full] == _INF:
        return None
    chosen = []
    mask = full
    while mask:
        j = choice[mask]
        chosen.append(j)
        mask ^= masks[j]
    chosen.reverse()
    return dp[full], chosen


@st.composite
def _mask_lists(draw, max_masks=12):
    """n <= 10 and up to ``max_masks`` masks, drawn partly from a small pool
    so that duplicate and empty masks are common."""
    n = draw(st.integers(0, 10))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(mask, min_size=1, max_size=4)) + [0]
    masks = draw(st.lists(st.one_of(st.sampled_from(pool), mask), max_size=max_masks))
    return n, masks


def _remap(mask, rest):
    """``mask`` restricted to the elements ``rest``, renumbered in order."""
    return sum(1 << i for i, e in enumerate(rest) if mask >> e & 1)


def _check_full_cover(masks, n, start, got, want, disjoint):
    size, chosen, states = got
    assert size == (None if want is None else want[0])
    assert 1 <= states <= 1 << n
    if size is None:
        return
    assert len(chosen) == size
    union = start
    for j in chosen:
        assert not (disjoint and union & masks[j])
        union |= masks[j]
    assert union == (1 << n) - 1


@settings(max_examples=300, deadline=None)
@given(_mask_lists(), st.integers(0, (1 << 10) - 1))
def test_union_search_matches_the_dense_oracles(case, covered):
    """Cover from the empty union and from ``covered``, against the dense DP
    on the masks renumbered over the uncovered elements."""
    n, masks = case
    covered &= (1 << n) - 1
    for start in (0, covered):
        rest = [e for e in range(n) if not start >> e & 1]
        sub_masks = [_remap(s, rest) for s in masks]
        for p in range(n + 1):
            got = kernels.cover_optimum(masks, n, p, covered=start)
            want = _dense_cover_optimum(sub_masks, len(rest), p - start.bit_count())
            if p < n:
                size, chosen, states = got
                assert want == (None if size is None else (size, chosen))
                assert 1 <= states <= 1 << n
            else:
                _check_full_cover(masks, n, start, got, want, False)
        got = kernels.exact_cover_optimum(masks, n, start)
        _check_full_cover(masks, n, start, got, _dense_exact_cover_optimum(masks, n, start), True)


def test_partial_cover_certificates_match_the_pinned_digest():
    """(size, chosen) of every partial cover (p < n) of 40 seeded instances,
    n = 12-16 with 20-30 sets of 1-4 elements, from the empty union and
    from one of the sets.  Taken before the search was bounded; only the
    states it counts may move."""
    rng = random.Random(25)
    digest = hashlib.sha256()
    for n in [12, 13, 14, 15, 16] * 8:
        m = rng.randint(20, 30)
        masks = [sum(1 << e for e in rng.sample(range(n), rng.randint(1, 4)))
                 for _ in range(m)]
        for covered in (0, rng.choice(masks)):
            for p in range(n):
                size, chosen, _ = kernels.cover_optimum(masks, n, p, covered)
                digest.update(repr((size, chosen)).encode())
    assert digest.hexdigest() == (
        "11247087a149afc72c3b4e9e5c5123f52afb445a2e12de0acf0ff4a1df474f15")


def test_bounded_partial_passes_match_the_dense_oracle():
    """Partial covers (p < n) from the empty union and from one of the sets,
    against the dense DP.  Counts the optima the first pass (bound L) finds,
    those left to the second (bound U), and the cases whose greedy bound U
    exceeds the optimum; each must occur (1,243, 115 and 9 of 1,500)."""
    rng = random.Random(26)
    counts = {"first pass": 0, "second pass": 0, "greedy above optimum": 0}
    for _ in range(1500):
        n = rng.randint(5, 10)
        # half the cases draw their sets from a window of 5 elements, so that
        # the sets overlap and their sizes alone underestimate the optimum
        pool = range(n) if rng.random() < 0.5 else range(rng.randint(0, n - 5), n)[:5]
        masks = [sum(1 << e for e in rng.sample(pool, rng.randint(1, 4)))
                 for _ in range(rng.randint(3, 12))]
        masks += [1 << e for e in rng.sample(range(n), rng.randint(0, n))]
        covered = rng.choice((0, masks[0]))
        p = rng.randint(min(covered.bit_count() + 1, n - 1), n - 1)
        rest = [e for e in range(n) if not covered >> e & 1]
        want = _dense_cover_optimum([_remap(s, rest) for s in masks], len(rest),
                                    p - covered.bit_count())
        size, chosen, _ = kernels.cover_optimum(masks, n, p, covered)
        assert want == (None if size is None else (size, chosen)), (n, masks, p, covered)
        if not size:
            continue
        _, low, high = kernels._partial_bounds(list(dict.fromkeys(masks)), p, covered)
        assert low <= size <= high
        counts["first pass" if size == low else "second pass"] += 1
        counts["greedy above optimum"] += high > size
    assert all(counts.values()), counts


def test_bounded_partial_search_on_overlapping_triples():
    """30 triples inside 8 elements plus every singleton, n = 16, p = 15: the
    set sizes put the lower bound at 5 sets, far below the optimum of 10, so
    the first pass finds nothing and the second prunes little.  The
    unbounded search reached 65,483 unions and returned this certificate;
    the second pass keeps every union the first kept, so the count of
    either pass's unions cannot exceed it."""
    rng = random.Random(16)
    triples = rng.sample(list(itertools.combinations(range(8), 3)), 30)
    masks = [sum(1 << e for e in t) for t in triples] + [1 << e for e in range(16)]
    size, chosen, states = kernels.cover_optimum(masks, 16, 15)
    assert (size, chosen) == (10, [7, 29, 2, 38, 39, 40, 41, 42, 43, 44])
    assert states <= 65_483


def _split_with_residual_remap(inst, delta):
    """The exact split as it was before the kernel took a covered mask: each
    guess renumbers the uncovered elements and solves the small sets that
    avoid the guess.  Every guess is solved, so the split's first-layer
    precheck must skip only guesses the kernel rejects.  Returns (answer,
    optimum, certificate, explored)."""
    masks = inst.masks()
    large = [j for j, s in enumerate(inst.sets) if len(s) > delta]
    small = [j for j, s in enumerate(inst.sets) if len(s) <= delta]
    full = inst.full_mask()
    best = None
    explored = 0

    def residual_solve(covered, chosen_large):
        nonlocal best, explored
        explored += 1
        rest = full & ~covered
        positions = [e for e in range(inst.n) if rest >> e & 1]
        remap = {e: i for i, e in enumerate(positions)}
        sub_masks = []
        sub_index = []
        for j in small:
            s = masks[j]
            if s & covered:
                continue
            sub_masks.append(sum(1 << remap[e] for e in inst.sets[j]))
            sub_index.append(j)
        opt, chosen, _ = kernels.exact_cover_optimum(sub_masks, len(positions))
        if opt is None:
            return
        total = len(chosen_large) + opt
        if best is None or total < best[0]:
            best = (total, sorted(chosen_large + [sub_index[j] for j in chosen]))

    def rec(i, covered, chosen_large):
        residual_solve(covered, chosen_large)
        for t in range(i, len(large)):
            j = large[t]
            if masks[j] & covered:
                continue
            rec(t + 1, covered | masks[j], chosen_large + [j])

    rec(0, 0, [])
    if best is None:
        return "infeasible", None, None, explored
    return "optimum", best[0], best[1], explored


@st.composite
def _partition_blocks(draw):
    """n <= 10 and up to 10 masks: the blocks of two random partitions of
    the ground set into at most four blocks (so exact covers exist, often
    several of one size), with empty and repeated blocks, plus up to two
    random masks, shuffled."""
    n = draw(st.integers(0, 10))
    masks = []
    for _ in range(2):
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        masks += [sum(1 << e for e in range(n) if labels[e] == b) for b in range(4)]
    masks += draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2))
    return n, draw(st.permutations(masks))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mask_lists(max_masks=10), _partition_blocks()), st.integers(0, 4))
def test_exact_split_on_the_covered_mask_matches_the_residual_remap(case, delta):
    n, masks = case
    sets = tuple(tuple(e for e in range(n) if s >> e & 1) for s in masks)
    inst = SetCoverInstance(n, sets, variant=EXACT)
    res = exactcover_with_large_sets(inst, delta)
    got = (res.answer, res.optimum, res.certificate, res.stats["explored"])
    assert got == _split_with_residual_remap(inst, delta)


def test_exact_split_precheck_fires(monkeypatch):
    # {0, 1, 2} and {3, 4, 5} are large at delta 2; after either one alone
    # no small set missing it starts at the lowest uncovered element (3 or 0)
    inst = SetCoverInstance(6, ((0, 1, 2), (0, 3), (1, 4), (2, 5), (3, 4, 5)), variant=EXACT)
    calls = []
    solve = kernels.exact_cover_optimum
    monkeypatch.setattr(kernels, "exact_cover_optimum",
                        lambda *a: calls.append(a[2]) or solve(*a))
    res = exactcover_with_large_sets(inst, 2)
    assert (res.optimum, res.certificate, res.stats["explored"]) == (2, [0, 4], 4)
    assert calls == [0, 0b111111]


def test_wide_instance_at_the_default_cap():
    """n = 24: 8 disjoint triples and noise sets of at most 3 elements, so
    every cover needs 8 sets and 21 elements need 7.  The dense tables of
    2^24 states needed over 300 MB."""
    rng = random.Random(24)
    sets = [tuple(range(3 * i, 3 * i + 3)) for i in range(8)]
    sets += [tuple(sorted(rng.sample(range(24), rng.randint(2, 3)))) for _ in range(8)]
    plain = SetCoverInstance(24, tuple(sets))
    exact = SetCoverInstance(24, tuple(sets), variant=EXACT)
    partial = SetCoverInstance(24, tuple(sets), variant=PARTIAL, p=21)
    results = []
    peaks = []
    for solve, inst in ((setcover_dp, plain), (exactcover_solve, exact),
                        (partialcover_dp, partial)):
        tracemalloc.start()
        try:
            results.append(solve(inst))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [r.optimum for r in results] == [8, 8, 7]
    assert verify_cover(plain, results[0].certificate)
    assert verify_cover(exact, results[1].certificate)
    assert verify_cover(partial, results[2].certificate)
    assert all(0 < r.stats["explored"] < 1 << 24 for r in results)
    # the unbounded partial search reached 9,447 unions
    assert results[2].stats["explored"] == 509
    # full covers keep only the unions they reach; the partial one keeps one
    # table of 2^24 bytes for both its passes
    assert peaks[0] < 1 << 20 and peaks[1] < 1 << 20
    assert peaks[2] < 2 << 24


def _pred_masks(succ, n):
    return [sum(1 << u for u in range(n) if succ[u] >> v & 1) for v in range(n)]


def test_ham_cycle_matches_permutation_search():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(2, 7)
        succ = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    succ[u] |= 1 << v
        exists = any(
            all(succ[c[i]] >> c[(i + 1) % n] & 1 for i in range(n))
            for c in ((0,) + rest for rest in itertools.permutations(range(1, n))))
        order, _ = kernels.ham_cycle(succ, _pred_masks(succ, n), n)
        assert (order is not None) == exists, (n, succ)
        if order is not None:
            assert sorted(order) == list(range(n))
            assert order[0] == 0
            for i in range(n):
                assert succ[order[i]] >> order[(i + 1) % n] & 1


def _dense_ham_cycle(succ, n):
    """Reference oracle: the dense Held-Karp DP over all 2^(n-1) visited
    sets holding node 0 that the layered search replaced, kept here; the
    layered search must return the same order."""
    if n < 2:
        return None
    size = 1 << n
    preds = [0] * n
    for u in range(n):
        s = succ[u]
        while s:
            v = (s & -s).bit_length() - 1
            s &= s - 1
            preds[v] |= 1 << u
    dp = [0] * size
    dp[1] = 1
    for mask in range(1, size, 2):
        ends = dp[mask]
        if not ends:
            continue
        ext = 0
        e = ends
        while e:
            u = (e & -e).bit_length() - 1
            e &= e - 1
            ext |= succ[u]
        ext &= ~mask
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            dp[mask | (1 << v)] |= 1 << v
    full = size - 1
    cand = dp[full] & preds[0]
    if not cand:
        return None
    cur = (cand & -cand).bit_length() - 1
    order = [cur]
    mask = full
    while mask != 1:
        pm = mask ^ (1 << cur)
        prev = dp[pm] & preds[cur]
        cur = (prev & -prev).bit_length() - 1
        order.append(cur)
        mask = pm
    order.reverse()
    return order


def test_ham_cycle_returns_the_dense_oracles_order():
    rng = random.Random(15)
    reached = []
    for t in range(2000):
        n = 2 + t % 9
        # every ninth graph of each size is empty or complete
        p = (0.0, 1.0)[t // 9 % 2] if t // 9 % 9 == 0 else rng.choice((0.15, 0.3, 0.5, 0.8))
        succ = [sum(1 << v for v in range(n) if v != u and rng.random() < p)
                for u in range(n)]
        order, states = kernels.ham_cycle(succ, _pred_masks(succ, n), n)
        assert order == _dense_ham_cycle(succ, n), (n, succ)
        # the reachable visited sets: {0}, and each set holding 0 that some
        # path from 0 visits exactly
        assert 1 <= states <= 1 << (n - 1)
        if p == 0.0:
            assert states == 1
        if p == 1.0:
            assert states == 1 << (n - 1) and order is not None
        reached.append(order is not None)
    assert 200 < sum(reached) < 1800


def test_heldkarp_at_the_cap():
    """n = 22, the Hamiltonicity cap: a planted cycle plus 22 random arcs.
    The dense DP kept 2^22 list slots and their ints, over 32 MB; the
    layered search keeps one 4-byte entry per visited set, 16 MB."""
    g, _ = gen_planted("ham_cycle", seed=22, n=22, extra_edges=22)
    tracemalloc.start()
    try:
        res = heldkarp_ham(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.is_yes and verify_ham_cycle(g, res.certificate)
    assert 22 <= res.stats["explored"] < 1 << 21
    assert peak < 20 << 20


def _colorful_root_hosts(k, parent, orient, out_adj, colors):
    """Hosts of the root over all colorful, orientation-respecting embeddings.

    Backtracks over the tree nodes in id order (every parent precedes its
    children); distinct colors make the image injective.
    """
    def arc(a, b):
        return out_adj[a] >> b & 1

    def extends(image):
        v = len(image)
        if v == k:
            return True
        hp, o = image[parent[v]], orient[v]
        used = {colors[x] for x in image}
        return any(
            colors[u] not in used
            and (arc(hp, u) if o == 1 else arc(u, hp) if o == 2 else arc(hp, u) or arc(u, hp))
            and extends(image + [u])
            for u in range(len(colors)))

    return {u for u in range(len(colors)) if extends([u])}


def test_color_disjoint_tables_hold_the_disjoint_masks():
    rng = random.Random(16)
    for k in range(1, 17):
        h, low, high = kernels.color_disjoint(k)
        masks = range(1 << k) if k <= 7 else rng.sample(range(1 << k), 40)
        for a in masks:
            got = low[a & ((1 << h) - 1)] & high[a >> h]
            if k <= 7:
                assert got == sum(1 << b for b in range(1 << k) if a & b == 0), (k, a)
            else:
                for b in rng.sample(range(1 << k), 40) + [a, (1 << k) - 1 - a]:
                    assert got >> b & 1 == (a & b == 0), (k, a, b)
                assert got >> (1 << k) == 0


def test_colorful_trial_matches_embedding_search():
    """1-40 colorings per tree and host, one per kernel call: the kernel hits
    exactly on the colorings with a colorful embedding, and extraction from
    each hit puts the root at its lowest host."""
    rng = random.Random(13)
    hits = []
    for _ in range(300):
        k = rng.randint(1, 7)
        n = rng.randint(1, 10)
        # random tree over 0..k-1 rooted at 0, random orientations
        parent = [-1] + [rng.randrange(v) for v in range(1, k)]
        orient = [0] + [rng.choice([0, 1, 2]) for _ in range(k - 1)]
        children = [[] for _ in range(k)]
        for v in range(1, k):
            children[parent[v]].append(v)
        post = []
        stack = [(0, False)]
        while stack:
            v, done = stack.pop()
            if done:
                post.append(v)
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in children[v])
        out_adj = [0] * n
        in_adj = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    out_adj[u] |= 1 << v
                    in_adj[v] |= 1 << u
        und_adj = [o | i for o, i in zip(out_adj, in_adj)]
        by_orient = (und_adj, out_adj, in_adj)
        edge_adj = [by_orient[o] for o in orient]
        host = SimpleNamespace(along=lambda u, o: [w for w in range(n)
                                                   if by_orient[o][u] >> w & 1])
        tree = SimpleNamespace(k=k, post_order=post, parent=parent, orientation=orient)
        for _ in range(rng.randint(1, 40)):
            colors = [rng.randrange(k) for _ in range(n)]
            roots = _colorful_root_hosts(k, parent, orient, out_adj, colors)
            got = kernels.colorful_trial_yes(k, post, parent, edge_adj, colors)
            assert got == (0 if roots else -1), (k, n, parent, orient, colors)
            if got < 0:
                continue
            hits.append(k)
            mapping = solvers._colorful_reconstruct(host, tree, edge_adj, colors)
            assert mapping[0] == min(roots)
            assert sorted(colors[mapping[v]] for v in range(k)) == list(range(k))
            assert all(mapping[v] in host.along(mapping[parent[v]], orient[v])
                       for v in range(1, k))
    # 2,102 hits, 195 of them at k >= 5
    assert len(hits) > 1000 and sum(size >= 5 for size in hits) > 100


def test_gf_tables_cycle_through_the_nonzero_elements():
    """x generates GF(2^16)*: the antilog table runs through all 65,535
    nonzero elements once, twice over, and log inverts it; the two tables
    are array('H') of under 0.5 MB together."""
    log, exp = kernels.gf_tables()
    order = kernels.GF_ORDER
    assert order == 65535 and len(exp) == 2 * order and len(log) == 1 << 16
    assert sorted(exp[:order]) == list(range(1, 1 << 16))
    assert exp[order:] == exp[:order]
    assert all(log[exp[i]] == i for i in range(order))
    # x^16 = x^12 + x^3 + x + 1
    assert exp[16] == 0x100B and exp[1] == 2
    assert {log.typecode, exp.typecode} == {"H"}
    assert log.itemsize * len(log) + exp.itemsize * len(exp) < 500_000


def test_gf_tables_are_built_on_the_first_sieve_call():
    script = (
        "from xcover import kernels, solvers\n"
        "from xcover.instances import Digraph, PatternTree\n"
        "assert kernels.gf_tables.cache_info().currsize == 0\n"
        "path = PatternTree(2, 0, (-1, 0), ('und', 'fwd'))\n"
        "G = Digraph(3, frozenset({(0, 1), (1, 2)}))\n"
        "assert solvers.ktree_colorcoding(G, path).is_yes\n"
        "assert kernels.gf_tables.cache_info().currsize == 0\n"
        "edge_adj = [None, G.masks_along['fwd']]\n"
        "assert kernels.tree_sieve(2, path.post_order, path.parent, edge_adj, 7, 0)\n"
        "assert kernels.gf_tables.cache_info().currsize == 1\n")
    src = str(Path(kernels.__file__).parents[1])
    subprocess.run([sys.executable, "-c", script], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
