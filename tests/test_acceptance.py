"""Acceptance suite: every criterion at its stated scale and time budget.

One pass/fail line per criterion is printed (run with ``pytest -s`` to see
them live).  Expected values marked as derived were computed with the
independent oracles in this file or in the sibling test modules.
"""

import math
import random
import time

from xcover.analysis import koivisto_lambda, pipeline_total_exponent
from xcover.instances import SetCoverInstance, gen_planted, gen_random
from xcover.partitions import count_partitions, enumerate_partitions
from xcover.reductions import (
    build_host_graph,
    build_pattern_tree,
    check_cover_properties,
    ham_to_setcover,
    ntree_to_setcover,
    pattern_tree_size,
    solve_ppc_via_ktree,
    solve_setcover_via_ktree,
    tree_cover,
)
from xcover.solvers import (
    exactcover_solve,
    exactcover_with_large_sets,
    heldkarp_ham,
    ktree_colorcoding,
    partialcover_dp,
    setcover_dp,
    tree_embed_backtrack,
    verify_embedding,
)


def _report(number, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} "
          f"[{elapsed:.1f}s of {limit}s] {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed <= limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_subtree_cover_guarantees():
    start = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for t in range(1000):
        k = rng.randint(2, 200)
        T = gen_random("tree", seed=t, k=k)
        l = rng.randint(2, k)
        cover = tree_cover(T, l)
        report = check_cover_properties(T, cover, l)
        if not report["ok"]:
            failures += 1
            continue
        if max(len(nodes) for _, nodes in cover.subtrees) > 2 * (l - 1):
            failures += 1
        if len(cover.subtrees) > 3 * k / (l - 1):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(1, "subtree cover guarantees", failures == 0, elapsed, 60,
            f"1000 trees, {failures} failures")


def test_criterion_2_ntree_reduction_equivalence():
    start = time.perf_counter()
    rng = random.Random(202)
    mismatches = 0
    cap_violations = 0
    pairs = 100
    for t in range(pairs):
        nt = 4 + t % 4  # 4..7
        T = gen_random("tree", seed=2000 + 2 * t + 1, k=nt, oriented=True)
        G = gen_random("digraph", seed=2000 + 2 * t, n=nt,
                       edge_probability=rng.choice([0.25, 0.4, 0.55]))
        expected = tree_embed_backtrack(G, T).is_yes
        batch = ntree_to_setcover(G, T, 6, variant="anchored")
        hit = False
        count = 0
        max_elems = 0
        for prod in batch.produced:
            count += 1
            max_elems = max(max_elems, prod.instance.n)
            if not hit:
                res = setcover_dp(prod.instance)
                hit = res.answer == "optimum" and res.optimum == prod.target
        if hit != expected:
            mismatches += 1
        if count and math.log2(count) > batch.bound_declared_log2 + 1e-9:
            cap_violations += 1
        if max_elems > batch.elements_declared + 1e-9:
            cap_violations += 1
    elapsed = time.perf_counter() - start
    _report(2, "tree-pattern reduction equivalence",
            mismatches == 0 and cap_violations == 0, elapsed, 600,
            f"{pairs} pairs, {mismatches} mismatches, {cap_violations} cap violations")


def test_criterion_3_ham_reduction_equivalence():
    start = time.perf_counter()
    rng = random.Random(303)
    mismatches = 0
    size_violations = 0
    overlap_violations = 0
    digraphs = 100
    for t in range(digraphs):
        n = (4, 6, 8, 10)[t % 4]
        G = gen_random("digraph", seed=3000 + t, n=n,
                       edge_probability=rng.choice([0.25, 0.4, 0.55]))
        expected = heldkarp_ham(G).is_yes
        for delta in (2, n // 2):
            batch = ham_to_setcover(G, delta)
            hit = False
            for prod in batch.produced:
                if any(len(s) != delta for s in prod.instance.sets):
                    size_violations += 1
                if hit:
                    continue
                res = setcover_dp(prod.instance)
                if res.answer == "optimum" and res.optimum == prod.target:
                    hit = True
                    seen = set()
                    for j in res.certificate:
                        s = set(prod.instance.sets[j])
                        if seen & s:
                            overlap_violations += 1
                        seen |= s
            if hit != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(3, "Hamiltonicity reduction equivalence",
            mismatches == 0 and size_violations == 0 and overlap_violations == 0,
            elapsed, 600,
            f"{digraphs} digraphs, {mismatches} mismatches, "
            f"{size_violations} size violations, {overlap_violations} overlaps")


def test_criterion_4_setcover_ktree_equivalence():
    start = time.perf_counter()
    g = 2
    instances = [SetCoverInstance(8, ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2)))]
    seed = 0
    while len(instances) < 20:
        rng = random.Random(4000 + seed)
        seed += 1
        n = rng.choice([8, 10, 12])
        m = rng.randint(5, 8)
        inst, _ = gen_planted("covered_universe", seed=4000 + seed, n=n, m=m,
                              max_set_size=n // (g * g))
        instances.append(inst)
    mismatches = 0
    formula_violations = 0
    for inst in instances:
        n, m = inst.n, inst.m
        bundle = build_host_graph(inst, g)
        q = -(-2 * n // g)
        expected_nodes = 4 + 4 * q + math.comb(m, g) + m + n
        if bundle.host.num_nodes != expected_nodes:
            formula_violations += 1
        for alpha in enumerate_partitions(n):
            if build_pattern_tree(alpha, g, n).k != pattern_tree_size(alpha, g, n):
                formula_violations += 1
                break
        dp = setcover_dp(inst)
        kt = solve_setcover_via_ktree(inst, g)
        if (dp.answer, dp.optimum) != (kt.answer, kt.optimum):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(4, "cover-to-tree pipeline equivalence",
            mismatches == 0 and formula_violations == 0, elapsed, 1800,
            f"{len(instances)} instances, {mismatches} mismatches, "
            f"{formula_violations} formula violations")


def test_criterion_5_partial_cover_variant():
    start = time.perf_counter()
    rng = random.Random(505)
    mismatches = 0
    stream_violations = 0
    cases = 50
    for t in range(cases):
        n = rng.choice([6, 7, 8])
        p = rng.randint(0, n)
        base = gen_random("setcover", seed=5000 + t, n=n, m=rng.randint(3, 7),
                          max_set_size=rng.randint(1, max(1, n // 2)))
        inst = SetCoverInstance(n, base.sets, variant="partial", p=p)
        dp = partialcover_dp(inst)
        kt = solve_ppc_via_ktree(inst, 2)
        if (dp.answer, dp.optimum) != (kt.answer, kt.optimum):
            mismatches += 1
        if len(list(enumerate_partitions(p))) != count_partitions(p):
            stream_violations += 1
    elapsed = time.perf_counter() - start
    _report(5, "partial-cover pipeline equivalence",
            mismatches == 0 and stream_violations == 0, elapsed, 600,
            f"{cases} instances, {mismatches} mismatches")


def test_criterion_6_exact_cover_split():
    start = time.perf_counter()
    rng = random.Random(606)
    mismatches = 0
    cases = 100
    for t in range(cases):
        n = rng.randint(1, 12)
        inst = gen_random("exactcover", seed=6000 + t, n=n, m=rng.randint(0, 10),
                          max_set_size=rng.randint(1, n))
        a = exactcover_solve(inst)
        for delta in (2, 3):
            b = exactcover_with_large_sets(inst, delta)
            if (a.answer, a.optimum) != (b.answer, b.optimum):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(6, "exact-cover large-set split", mismatches == 0, elapsed, 60,
            f"{cases} instances, {mismatches} mismatches")


def _brute_partitions(a, max_part=None):
    if max_part is None:
        max_part = a
    if a == 0:
        return [()]
    out = []
    for first in range(min(max_part, a), 0, -1):
        for rest in _brute_partitions(a - first, first):
            out.append((first,) + rest)
    return out


def test_criterion_7_partition_facts():
    start = time.perf_counter()
    ok = len(_brute_partitions(5)) == 7 and count_partitions(5) == 7
    ok = ok and len(_brute_partitions(10)) == 42 and count_partitions(10) == 42
    for a in range(0, 31):
        stream = list(enumerate_partitions(a))
        ok = ok and len(stream) == count_partitions(a)
        ok = ok and len({p.parts for p in stream}) == len(stream)
    elapsed = time.perf_counter() - start
    _report(7, "partition counts", ok, elapsed, 60, "a <= 30")


def test_criterion_8_bound_calculators():
    start = time.perf_counter()
    ok = True
    for delta in range(2, 10 ** 4 + 1):
        if koivisto_lambda(delta) > 1 - 1 / (2 * delta) + 1e-9:
            ok = False
            break
    # threshold computed by scanning powers of two: the composed exponent
    # first dips below ntilde(1 - eps/2) at ntilde = 2^19 for eps = 0.1
    eps = 0.1
    threshold = 2 ** 19
    ok = ok and pipeline_total_exponent(threshold // 2, eps) \
        > (threshold // 2) * (1 - eps / 2)
    for nt in (threshold, 2 ** 20, 2 ** 24, 2 ** 30):
        ok = ok and pipeline_total_exponent(nt, eps) <= nt * (1 - eps / 2)
    elapsed = time.perf_counter() - start
    _report(8, "bound calculators", ok, elapsed, 60,
            f"lambda up to 1e4; exponent threshold 2^19")


def test_criterion_9_ktree_contract():
    start = time.perf_counter()
    yes_count = 0
    bad_certificates = 0
    cases = 50
    for t in range(cases):
        G, T, _ = gen_planted("embedded_tree", seed=9000 + t, k=8, host_n=14,
                              oriented=True, extra_edge_probability=0.05)
        res = ktree_colorcoding(G, T, failure_prob=0.01, seed=t)
        if res.is_yes:
            yes_count += 1
            if not verify_embedding(G, T, res.certificate):
                bad_certificates += 1
    elapsed = time.perf_counter() - start
    _report(9, "ktree contract", yes_count >= 49 and bad_certificates == 0,
            elapsed, 600, f"{yes_count}/{cases} yes, {bad_certificates} bad certificates")
