"""Kernels for the hot inner loops.

One breadth-first union search serves plain, partial and exact cover.  A
partial cover keeps a union only while the largest remaining sets could
still lift it to p bits within a bound on the optimum: first the fewest
sets whose sizes could reach p, then, when that pass finds no cover, the
size of a greedy cover; both passes share one visited byte per union.
Held-Karp runs layer by layer over the visited sets reachable from node 0
only, keeping each set's end nodes in one flat table of 4 bytes per
possible set (16 MB at n = 22).  The tree sieve, the kTree decider, takes
one pass of GF(2^16) products per subset of the k labels.  All of them
work on integer bitmasks and return plain ints, lists and tuples.  Callers
reach them as attributes of this module (``kernels.cover_optimum(...)``),
never through a local alias, so a profiler can wrap them in one place.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache

BACKEND = "python"


def cover_optimum(masks, n, p, covered=0):
    """Smallest sub-collection whose union with ``covered`` has at least p bits.

    Returns (size, chosen indices, states), with size and chosen None when
    no such union exists; ``states`` counts the distinct unions the search
    kept, the ``covered`` one included.  A partial cover (p < n) that the
    sets cannot reach is decided before the search, at 1 state.  See
    ``_union_search``.
    """
    return _union_search(masks, n, p, covered, False)


def exact_cover_optimum(masks, n, covered=0):
    """Smallest partition of the uncovered elements into pairwise-disjoint sets.

    The uncovered elements are those of range(n) outside the bitmask
    ``covered`` (none by default), so no set meeting ``covered`` is chosen.
    Returns (size, chosen indices, states) as ``cover_optimum`` does.
    """
    return _union_search(masks, n, n, covered, True)


def _union_search(masks, n, p, covered, disjoint):
    """Breadth-first search over the unions reachable from ``covered``.

    Layer c holds the unions first reached with c sets; the search stops at
    the first layer holding a union of at least p bits and takes the
    smallest such union.

    A full cover (p >= n) grows a union u only by the sets holding its
    lowest missing element ``~u & (u + 1)``, as every cover of u's
    complement has one of them; with ``disjoint`` the set must also miss u.
    The few unions reached are kept in a ``set``.  A partial cover lets
    every set extend every union, in at most two passes bounded by what the
    remaining sets can add; see ``_bounded_layers``.

    The certificate walks back one layer at a time to the smallest union of
    the layer before and then the smallest index j that reaches the current
    union (disjointly, with ``disjoint``).  For a partial cover from the
    empty union that is the first strict improvement of the subset DP over
    all 2^n unions in ascending (union, j) order, so both give the same
    sets in the same order.
    """
    if covered.bit_count() >= p:
        return 0, [], 1
    distinct = list(dict.fromkeys(masks))
    if p < n:
        layers, goal = _bounded_layers(distinct, n, p, covered)
        if goal < 0:
            return None, None, 1
    else:
        # by_low[e]: the sets holding e, or with ``disjoint`` the sets whose
        # lowest element is e (a set missing u has no element below u's
        # lowest missing one); a full union's lowest missing element is n
        by_low = [[] for _ in range(n + 1)]
        for s in distinct:
            rest = s
            while rest:
                low = rest & -rest
                by_low[low.bit_length() - 1].append(s)
                rest = 0 if disjoint else rest ^ low
        seen = {covered}
        layers = [[covered]]
        goal = -1
        while goal < 0:
            layer = []
            for u in layers[-1]:
                for s in by_low[(~u & (u + 1)).bit_length() - 1]:
                    v = u | s
                    if v not in seen and not (disjoint and u & s):
                        seen.add(v)
                        layer.append(v)
            if not layer:
                return None, None, sum(map(len, layers))
            layers.append(layer)
            goal = min((v for v in layer if v.bit_count() >= p), default=-1)
    chosen = []
    cur = goal
    for layer in reversed(layers[:-1]):
        cur, j = next((u, j) for u in sorted(layer) if u | cur == cur
                      for j, s in enumerate(masks)
                      if u | s == cur and not (disjoint and u & s))
        chosen.append(j)
    chosen.reverse()
    return len(chosen), chosen, sum(map(len, layers))


def _partial_bounds(distinct, p, covered):
    """(top, low, high) for a partial cover of p bits from ``covered``.

    ``top[r]`` is the most that r of the sets ``distinct`` can add to
    ``covered``: the sum of their r largest counts of bits outside it.
    ``low``, the least r with ``covered`` plus ``top[r]`` reaching p, is at
    most the optimum; ``high``, the size of a greedy cover that takes at
    each step the first set in ``distinct`` adding the most bits, is at
    least it.  The sets must reach p bits together.
    """
    have = covered.bit_count()
    top = [0]
    for gain in sorted(((s & ~covered).bit_count() for s in distinct), reverse=True):
        top.append(top[-1] + gain)
    low = next(r for r, add in enumerate(top) if have + add >= p)
    high, u = 0, covered
    while u.bit_count() < p:
        u |= max(distinct, key=lambda s: (u | s).bit_count())
        high += 1
    return top, low, high


def _bounded_layers(distinct, n, p, covered):
    """The layers of a partial cover search (p < n) and its goal, -1 when
    the sets and ``covered`` hold fewer than p bits together, which is
    decided before any search.

    A pass with bound B lets every set extend every union of the layer
    before; a union v first reached in layer c is marked seen, but joins
    the layer only when its bits plus ``top[B - c]`` of ``_partial_bounds``
    reach p.  With B at least the optimum, every union on a path to an
    optimal goal passes, in the layer the unbounded search first reaches it
    in, and a union of another layer cannot lead to the goal layer.  So the
    goal and the walk-back's candidates in every layer are the unbounded
    search's.

    The first pass takes B = ``low``; when it finds no goal, a second takes
    B = ``high``.  Both share one byte per possible union, 2^n bytes,
    tagged with the pass number.  The second pass keeps every union the
    first kept, no later than the first did, so the layers returned hold
    every union either pass kept, and never more than the unbounded search
    reaches.
    """
    reach = covered
    for s in distinct:
        reach |= s
    if reach.bit_count() < p:
        return None, -1
    distinct = [s for s in distinct if s & ~covered]
    top, low, high = _partial_bounds(distinct, p, covered)
    seen = bytearray(1 << n)
    for tag, bound in ((1, low), (2, high)):
        seen[covered] = tag
        layers = [[covered]]
        goal = -1
        while goal < 0 and layers[-1]:
            need = p - top[bound - len(layers)]
            layer = []
            for u in layers[-1]:
                for s in distinct:
                    v = u | s
                    if seen[v] != tag:
                        seen[v] = tag
                        if v.bit_count() >= need:
                            layer.append(v)
            layers.append(layer)
            goal = min((v for v in layer if v.bit_count() >= p), default=-1)
        if goal >= 0:
            return layers, goal


def ham_cycle(succ, pred, n):
    """Directed Hamiltonian cycle through all n nodes: (order or None, states).

    ``succ[u]`` and ``pred[u]`` are the bitmasks of node u's successors and
    predecessors; the search extends paths along ``succ`` and the walk back
    from the full set steps along ``pred``.  Cycles are anchored at
    node 0; the returned order starts there.  Held-Karp over the visited
    sets reachable from node 0 only, layer by layer: layer c holds the sets
    of c + 1 nodes first reached in that layer, each expanded once, and the
    search stops at the first empty layer.  ``ends[s]`` is the bitmask of
    the nodes a path from 0 through exactly the nodes of s can end at, one
    4-byte entry per possible set (16 MB at n = 22); unreached sets stay 0,
    as in the dense DP over all 2^(n-1) sets holding node 0, so the walk
    back returns the cycle that DP returns.  ``states`` counts the visited
    sets reached, {0} included (0 when n < 2).
    """
    if n < 2:
        return None, 0
    ends = array("I", [0]) * (1 << n)
    ends[1] = 1
    layer = [1]
    states = 1
    while layer:
        nxt = []
        for mask in layer:
            e = ends[mask]
            ext = 0
            while e:
                low = e & -e
                e ^= low
                ext |= succ[low.bit_length() - 1]
            ext &= ~mask
            while ext:
                bit = ext & -ext
                ext ^= bit
                nm = mask | bit
                got = ends[nm]
                if not got:
                    nxt.append(nm)
                ends[nm] = got | bit
        states += len(nxt)
        layer = nxt
    full = (1 << n) - 1
    cand = ends[full] & pred[0]
    if not cand:
        return None, states
    cur = (cand & -cand).bit_length() - 1
    order = [cur]
    mask = full
    while mask != 1:
        pm = mask ^ (1 << cur)
        prev = ends[pm] & pred[cur]
        cur = (prev & -prev).bit_length() - 1
        order.append(cur)
        mask = pm
    order.reverse()
    return order, states


# GF(2^16) as polynomials over GF(2) modulo x^16 + x^12 + x^3 + x + 1, which
# is primitive: the powers of x run through all 65,535 nonzero elements.
GF_POLY = 0x1100B
GF_ORDER = 65535


@lru_cache(maxsize=None)
def gf_tables():
    """(log, exp): ``exp[i]`` = x^i for i < 2 * GF_ORDER, so nonzero a * b is
    ``exp[log[a] + log[b]]``.  Two ``array('H')``, 384 KB, built on first use."""
    exp = array("H", bytes(4 * GF_ORDER))
    log = array("H", bytes(2 << 16))
    a = 1
    for i in range(GF_ORDER):
        exp[i] = exp[i + GF_ORDER] = a
        log[a] = i
        a = a << 1 ^ (GF_POLY if a >> 15 else 0)
    return log, exp


def tree_sieve(k, post_order, parent, edge_adj, hosts, seed):
    """One run of the characteristic-2 sieve: F in GF(2^16), nonzero only if
    the tree embeds into the hosts of the bitmask ``hosts``.

    Tree nodes 0..k-1; ``post_order`` lists them children-first with the
    root last; ``edge_adj[c][u]`` is the bitmask of the hosts that the edge
    above c allows for c when its parent is at host u.  With x[l][v] (label
    l, host v) and y[c][u][w] (the edge above c, parent at u, c at w) drawn
    by ``random.Random(seed)``, F sums prod_t w_X(phi(t)) * prod_c
    y[c][phi(parent c)][phi(c)] over X subset of [k] and the homomorphisms
    phi, where w_X(v) sums x[l][v] over l in X.  In characteristic 2 only
    bijective labellings survive the sum over X; swapping the labels of the
    first two tree nodes on one host cancels a non-injective phi's terms in
    pairs; and each embedding keeps its own monomial of degree 2k - 1.  So
    an embedding gives F = 0 with probability at most (2k - 1) / 2^16.
    Each X, in Gray-code order, takes one post-order pass that pushes every
    child's values along its arcs into its parent's: O(k * m) products.  A
    host outside ``hosts`` gets x = 0, so all its values are 0.
    """
    log, exp = gf_tables()
    draw = random.Random(seed).getrandbits
    n = hosts.bit_length()
    x = [[draw(16) if hosts >> v & 1 else 0 for v in range(n)] for _ in range(k)]
    # into[c][w]: (u, log y) per arc the edge above c allows from u to w
    into = [[[] for _ in range(n)] for _ in range(k)]
    for c in post_order[:-1]:
        for u in range(n):
            for v in range(n):
                if (edge_adj[c][u] & hosts) >> v & 1 and (y := draw(16)):
                    into[c][v].append((u, log[y]))
    total, w = 0, [0] * n
    for i in range(1, 1 << k):
        w = [a ^ b for a, b in zip(w, x[(i & -i).bit_length() - 1])]
        val = [w] * k
        for c in post_order[:-1]:
            acc = [0] * n
            for a, arcs in zip(val[c], into[c]):
                if a:
                    la = log[a]
                    for u, ly in arcs:
                        acc[u] ^= exp[la + ly]
            p = parent[c]
            val[p] = [exp[log[a] + log[b]] if a and b else 0 for a, b in zip(val[p], acc)]
        for a in val[post_order[-1]]:
            total ^= a
    return total


def colorful_trial_yes(*args):
    """Retired with colour coding, which no solver runs any more.  The name
    stays only as a hook target of ``perfbench/tracing.py``, whose smoke test
    needs every traced metric to be a number; drop both together."""
    raise NotImplementedError("colour coding is retired; kTree runs kernels.tree_sieve")
