"""Seeded query corpora for the three workloads and the checks of their answers.

A query is one ``xcover`` command line plus the instance files it reads.
Corpora are built from ``--seed`` alone, so the same seed gives the same
files.  Each query kind has fixed sizes, arc counts and (for planted
yes-instances) a fixed band for where in the reduction stream the planted
solution sits, so that corpora drawn with different seeds cost about the
same.  ``check`` runs after the timed phase: every certificate goes
through the benchmark's own checkers in ``checks``, and every decision or
optimum is compared with a second route through the package.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass

from xcover import reductions, solvers
from xcover.instances import (
    EXACT,
    FWD,
    PARTIAL,
    Digraph,
    SetCoverInstance,
    gen_random,
    parse_instance,
    serialize_instance,
)

import checks

# Instance sizes and query counts.  "full" is what the benchmark measures;
# "tiny" keeps the smoke test fast and exercises the same code paths.
SIZES = {
    "full": {
        "stream": {"count": {"ntree-yes": 36, "ntree-no": 48, "ham-yes": 12, "ham-no": 24},
                   "ntree": (10, 4, 13, 18), "ham": (10, 15, 22)},
        "embed": {"count": {"sc": 80, "ppc": 40}, "sc": (16, 6, 4, 5), "ppc": (16, 12, 10, 2, 7)},
        "kernel": {"captured": 18, "streams": 6, "n": 16, "m": (22, 27), "ntree": (14, 5, 60),
                   "ham": (16, 64), "hk": (17, 34), "ktree": (5, 10, 14, 12),
                   "count": {"ham-yes": 28, "ham-no": 28, "ktree-yes": 24, "ktree-no": 8}},
    },
    "tiny": {
        "stream": {"count": {"ntree-yes": 1, "ntree-no": 1, "ham-yes": 1, "ham-no": 1},
                   "ntree": (7, 3, 8, 10), "ham": (6, 8, 10)},
        "embed": {"count": {"sc": 2, "ppc": 2}, "sc": (8, 4, 2, 4), "ppc": (8, 6, 8, 1, 6)},
        "kernel": {"captured": 1, "streams": 1, "n": None, "m": (1, 99), "ntree": (8, 3, 20),
                   "ham": (8, 16), "hk": (8, 14), "ktree": (4, 7, 9, 6),
                   "count": {"ham-yes": 1, "ham-no": 1, "ktree-yes": 1, "ktree-no": 1}},
    },
}

# Query counts place the median and the 90th percentile inside a group of
# similar cost, not at the edge between two groups, where they would jump
# from one seed to the next.

KTREE_FAILURE_PROB = "0.001"

# The planted solution of a yes-instance sits in this band of its stream, so
# a yes-query examines about half of the stream a no-query examines.
YES_BAND = (0.4, 0.6)


@dataclass
class Query:
    kind: str
    command: list  # CLI arguments; "@name" stands for the file ``name``
    files: dict  # file name -> text, in command order
    expect: str | None = None  # "yes" when planted

    def argv(self, workdir):
        return [os.path.join(workdir, a[1:]) if a.startswith("@") else a
                for a in self.command]


def _interleave(groups):
    """Spread every group evenly over the corpus, so any prefix keeps the mix."""
    keyed = [((i + 0.5) / len(group), g, item)
             for g, group in enumerate(groups) for i, item in enumerate(group)]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


def _digraph(rng, n, arcs, total):
    """``arcs`` plus random other arcs, ``total`` arcs in all."""
    arcs = set(arcs)
    pool = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in arcs]
    arcs.update(rng.sample(pool, total - len(arcs)))
    return Digraph(num_nodes=n, edges=frozenset(arcs))


def _tree(rng, k, anchors):
    """A random oriented tree whose anchored ntree reduction pins ``anchors`` nodes."""
    while True:
        T = gen_random("tree", seed=rng.randrange(2 ** 31), k=k, oriented=True)
        if len(anchor_nodes(T)) == anchors:
            return T


def _in_band(rng, total):
    """A position drawn from the YES_BAND share of a stream of ``total`` items."""
    lo, hi = (int(f * total) for f in YES_BAND)
    return rng.randrange(lo, max(hi, lo + 1))


def _nth_permutation(k, r, index):
    """The index-th r-permutation of range(k) in itertools.permutations order."""
    items, out = list(range(k)), []
    for i in range(r):
        j, index = divmod(index, math.perm(k - i - 1, r - i - 1))
        out.append(items.pop(j))
    return tuple(out)


def anchor_nodes(T, delta=6):
    """Tree nodes the anchored ntree reduction pins, in the order it pins them."""
    cover = reductions.tree_cover(T, delta // 3 + 1)
    roots = {r for r, _ in cover.subtrees}
    return sorted(roots | {T.parent[r] for r in roots if r != T.root})


# ---------------------------------------------------------------------------
# stream: reduction streams decided by the cover DP
# ---------------------------------------------------------------------------


def _plant(rng, T, host_n, place, arcs):
    """A host with T embedded by ``place`` (tree node -> host node), ``arcs`` arcs in all."""
    tree_arcs = [(place[p], place[v]) if o == FWD else (place[v], place[p])
                 for p, v, o in T.edge_list()]
    return _digraph(rng, host_n, tree_arcs, arcs)


def _ntree_yes(rng, k, anchors, arcs):
    T = _tree(rng, k, anchors)
    pins = anchor_nodes(T)
    images = _nth_permutation(k, len(pins), _in_band(rng, math.perm(k, len(pins))))
    rest = [u for u in range(k) if u not in images]
    rng.shuffle(rest)
    place = dict(zip(pins, images))
    place.update(zip([v for v in range(k) if v not in place], rest))
    return _plant(rng, T, k, place, arcs), T


def _ntree_no(rng, k, anchors, arcs):
    while True:
        G, T = _digraph(rng, k, (), arcs), _tree(rng, k, anchors)
        if solvers.tree_embed_backtrack(G, T).answer == "no":
            return G, T


def _ham_yes(rng, n, arcs, delta=2):
    combos = list(itertools.combinations(range(1, n), n // delta - 1))
    reps = combos[_in_band(rng, len(combos))]
    reps = (0,) + tuple(rng.sample(reps, len(reps)))
    others = [u for u in range(n) if u not in reps]
    rng.shuffle(others)
    cycle = [u for i, r in enumerate(reps)
             for u in (r, *others[i * (delta - 1):(i + 1) * (delta - 1)])]
    return _digraph(rng, n, zip(cycle, cycle[1:] + cycle[:1]), arcs)


def _ham_no(rng, n, arcs):
    while True:
        G = _digraph(rng, n, (), arcs)
        if solvers.heldkarp_ham(G).answer == "no":
            return G


def build_stream(seed, size):
    rng = random.Random(f"stream/{seed}")
    count = size["count"]
    k, anchors, yes_arcs, no_arcs = size["ntree"]
    n, ham_yes_arcs, ham_no_arcs = size["ham"]
    groups = [
        [_ntree_yes(rng, k, anchors, yes_arcs) + ("yes",) for _ in range(count["ntree-yes"])],
        [_ntree_no(rng, k, anchors, no_arcs) + (None,) for _ in range(count["ntree-no"])],
        [(_ham_yes(rng, n, ham_yes_arcs), None, "yes") for _ in range(count["ham-yes"])],
        [(_ham_no(rng, n, ham_no_arcs), None, None) for _ in range(count["ham-no"])],
    ]
    queries = []
    for i, (G, T, expect) in enumerate(_interleave(groups)):
        g, t = f"q{i:03d}.graph", f"q{i:03d}.tree"
        if T is None:
            queries.append(Query("ham", ["pipeline", "ham", "@" + g, "--delta", "2"],
                                 {g: serialize_instance(G)}, expect))
        else:
            queries.append(Query("ntree", ["pipeline", "ntree", "@" + g, "@" + t, "--delta", "6"],
                                 {g: serialize_instance(G), t: serialize_instance(T)}, expect))
    return queries


# ---------------------------------------------------------------------------
# embed: cover instances solved through pattern-tree embedding
# ---------------------------------------------------------------------------


def _sets(rng, n, m, size):
    return [tuple(sorted(rng.sample(range(n), size))) for _ in range(m)]


def _sc(rng, n, m, size, optimum):
    """m sets of ``size`` <= n/g^2 elements with the given optimum, plus one
    set above n/g^2 that sends the query through large-set preprocessing."""
    while True:
        sets = _sets(rng, n, m, size)
        if checks.min_cover(n, [frozenset(s) for s in sets]) == optimum:
            large = tuple(rng.sample(range(n), n // 4 + 1 + rng.randrange(2)))
            return SetCoverInstance(n=n, sets=tuple(sets) + (large,))


def _ppc(rng, n, p, m, size, optimum):
    """m sets of ``size`` < p/g^2 elements that reach p elements with ``optimum`` sets."""
    while True:
        sets = _sets(rng, n, m, size)
        if checks.min_cover(n, [frozenset(s) for s in sets], p) == optimum:
            return SetCoverInstance(n=n, sets=tuple(sets), variant=PARTIAL, p=p)


def build_embed(seed, size):
    rng = random.Random(f"embed/{seed}")
    groups = [[_sc(rng, *size["sc"]) for _ in range(size["count"]["sc"])],
              [_ppc(rng, *size["ppc"]) for _ in range(size["count"]["ppc"])]]
    queries = []
    for i, inst in enumerate(_interleave(groups)):
        f = f"q{i:03d}.sc"
        kind = "sc-ktree" if inst.variant != PARTIAL else "ppc-ktree"
        queries.append(Query(kind, ["pipeline", kind, "@" + f, "--g", "2"],
                             {f: serialize_instance(inst)}))
    return queries


# ---------------------------------------------------------------------------
# kernel: direct solves of captured reduction outputs, Held-Karp, color coding
# ---------------------------------------------------------------------------


def _capture(rng, make_batch, size):
    """``captured`` produced instances that cover their ground set, with the
    wanted n and m, drawn from the first 50 instances of several seeded
    streams.  Scanning a fixed number of streams keeps set-up work steady."""
    n, (m_lo, m_hi) = size["n"], size["m"]
    pool = []
    while len(pool) < size["captured"]:
        for _ in range(size["streams"]):
            pool += [prod.instance for prod in itertools.islice(make_batch().produced, 50)
                     if (n is None or prod.instance.n == n)
                     and m_lo <= prod.instance.m <= m_hi
                     and len(set().union(*prod.instance.sets)) == prod.instance.n]
    return rng.sample(pool, size["captured"])


def _cover_queries(i, inst):
    """Plain, exact (with and without the large-set split) and partial solves."""
    sc, ec, pc = (f"q{i:03d}.{x}" for x in ("sc", "ec", "pc"))
    sc_text = serialize_instance(inst)
    ec_text = serialize_instance(SetCoverInstance(n=inst.n, sets=inst.sets, variant=EXACT))
    pc_text = serialize_instance(SetCoverInstance(n=inst.n, sets=inst.sets, variant=PARTIAL,
                                                  p=inst.n - 2))
    return [
        Query("setcover", ["solve", "setcover", "@" + sc], {sc: sc_text}),
        Query("exactcover", ["solve", "exactcover", "@" + ec], {ec: ec_text}),
        Query("exactcover", ["solve", "exactcover", "@" + ec, "--delta", "3"], {ec: ec_text}),
        Query("partialcover", ["solve", "partialcover", "@" + pc], {pc: pc_text}),
    ]


def _decision_query(i, item):
    kind, values, expect = item
    files = {f"q{i:03d}.{key}": serialize_instance(v) for key, v in values.items()}
    command = ["solve", kind] + ["@" + f for f in files]
    if kind == "ktree":
        command += ["--failure-prob", KTREE_FAILURE_PROB, "--seed", str(i)]
    return [Query(kind, command, files, expect)]


def build_kernel(seed, size):
    rng = random.Random(f"kernel/{seed}")
    k, anchors, ntree_arcs = size["ntree"]
    ham_n, ham_arcs = size["ham"]
    captured = (_capture(rng, lambda: reductions.ntree_to_setcover(
                    *_ntree_yes(rng, k, anchors, ntree_arcs), 6), size)
                + _capture(rng, lambda: reductions.ham_to_setcover(
                    _ham_yes(rng, ham_n, ham_arcs, delta=4), 4), size))
    hk_n, hk_arcs = size["hk"]
    tk, host_n, yes_arcs, no_arcs = size["ktree"]
    count = size["count"]
    decisions = {"ham-yes": [], "ham-no": [], "ktree-yes": [], "ktree-no": []}
    for _ in range(count["ham-yes"]):
        order = rng.sample(range(hk_n), hk_n)
        decisions["ham-yes"].append(
            ("ham", {"graph": _digraph(rng, hk_n, zip(order, order[1:] + order[:1]), hk_arcs)},
             "yes"))
    for _ in range(count["ham-no"]):
        decisions["ham-no"].append(("ham", {"graph": _ham_no(rng, hk_n, hk_arcs)}, None))
    for _ in range(count["ktree-yes"]):
        T = gen_random("tree", seed=rng.randrange(2 ** 31), k=tk, oriented=True)
        place = dict(enumerate(rng.sample(range(host_n), tk)))
        decisions["ktree-yes"].append(
            ("ktree", {"graph": _plant(rng, T, host_n, place, yes_arcs), "tree": T}, "yes"))
    for _ in range(count["ktree-no"]):
        while True:
            G = _digraph(rng, host_n, (), no_arcs)
            T = gen_random("tree", seed=rng.randrange(2 ** 31), k=tk, oriented=True)
            if solvers.tree_embed_backtrack(G, T).answer == "no":
                decisions["ktree-no"].append(("ktree", {"graph": G, "tree": T}, None))
                break
    blocks = [[(_cover_queries, inst) for inst in captured]]
    blocks += [[(_decision_query, item) for item in group] for group in decisions.values()]
    queries = []
    for i, (make, item) in enumerate(_interleave(blocks)):
        queries += make(i, item)
    return queries


def build(workload, seed, scale="full"):
    make = {"stream": build_stream, "embed": build_embed, "kernel": build_kernel}[workload]
    return make(seed, SIZES[scale][workload])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _file(query, index=0):
    return list(query.files.values())[index]


def _decision(query, record, oracle_yes, certificate_ok=None):
    answer = record.get("answer")
    if answer not in ("yes", "no"):
        return f"answer {answer!r} is not a decision"
    if query.expect and answer != query.expect:
        return f"planted {query.expect}-instance answered {answer}"
    if (answer == "yes") != oracle_yes:
        return f"answered {answer}, the second route says {'yes' if oracle_yes else 'no'}"
    if answer == "yes" and certificate_ok is not None and not certificate_ok(record["certificate"]):
        return "yes-certificate rejected by the checker"
    return None


def _optimum(record, n, sets, p, disjoint, reference):
    """Compare an optimum record with ``reference`` (None = infeasible)."""
    answer, opt, cert = record.get("answer"), record.get("optimum"), record.get("certificate")
    if answer == "infeasible":
        return None if reference is None else f"infeasible, the second route finds {reference}"
    if answer != "optimum":
        return f"unexpected answer {answer!r}"
    if cert is None or len(cert) != opt or not checks.cover_ok(n, sets, cert, p, disjoint):
        return f"optimum {opt} without a verified certificate"
    if opt != reference:
        return f"optimum {opt}, the second route finds {reference}"
    return None


def _route(res):
    return res.optimum if res.answer == "optimum" else None


def check(query, record):
    """None when the answer is right, else a one-line reason."""
    kind = query.kind
    if kind in ("ntree", "ktree"):
        g_text, t_text = _file(query, 0), _file(query, 1)
        G, T = parse_instance(g_text), parse_instance(t_text, "tree")
        n, arcs = checks.read_arcs(g_text)
        k, edges = checks.read_tree(t_text)
        oracle = solvers.tree_embed_backtrack(G, T)
        if oracle.answer == "yes" and not checks.embedding_ok(n, arcs, k, edges, oracle.certificate):
            return "the second route's embedding is rejected by the checker"
        if kind == "ntree":  # the pipeline record carries no certificate
            return _decision(query, record, oracle.answer == "yes")
        return _decision(query, record, oracle.answer == "yes", lambda cert: checks.embedding_ok(
            n, arcs, k, edges, {int(v): u for v, u in cert.items()}))
    if kind == "ham":
        text = _file(query)
        n, arcs = checks.read_arcs(text)
        if query.command[0] == "pipeline":
            oracle = solvers.heldkarp_ham(parse_instance(text))
            if oracle.answer == "yes" and not checks.cycle_ok(n, arcs, oracle.certificate):
                return "the second route's cycle is rejected by the checker"
            return _decision(query, record, oracle.answer == "yes")
        return _decision(query, record, checks.has_ham_cycle(n, arcs),
                         lambda cert: checks.cycle_ok(n, arcs, cert))
    text = _file(query)
    n, sets, p = checks.read_sets(text)
    inst = parse_instance(text)
    if kind == "sc-ktree":
        reference = _route(solvers.setcover_dp(inst))
        if len(set(sets)) <= solvers.DEFAULT_CAP_M_BRUTE:
            brute = _route(solvers.setcover_bruteforce(inst))
            if brute != reference:
                return f"setcover_dp finds {reference}, brute force finds {brute}"
        return _optimum(record, n, sets, None, False, reference)
    if kind == "ppc-ktree":
        return _optimum(record, n, sets, p, False, _route(solvers.partialcover_dp(inst)))
    if kind == "exactcover":
        if "--delta" in query.command:
            reference = _route(solvers.exactcover_solve(inst))
        else:
            reference = _route(solvers.exactcover_with_large_sets(inst, 3))
        return _optimum(record, n, sets, None, True, reference)
    if kind == "setcover":
        if len(set(sets)) <= solvers.DEFAULT_CAP_M_BRUTE:
            reference = _route(solvers.setcover_bruteforce(inst))
        else:
            reference = checks.min_cover(n, sets)
        return _optimum(record, n, sets, None, False, reference)
    if kind == "partialcover":
        return _optimum(record, n, sets, p, False, checks.min_cover(n, sets, p))
    return f"no check for query kind {kind!r}"
