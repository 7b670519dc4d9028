"""Kernels for the hot inner loops.

The cover and exact-cover searches, the Hamiltonicity DP and the
color-coding trial work on integer bitmasks and return plain ints, lists
and tuples.  Callers reach them as attributes of this module
(``kernels.cover_optimum(...)``), never through a local alias, so a
profiler can wrap them in one place.
"""

from __future__ import annotations

_INF = 0xFF

BACKEND = "python"


def cover_optimum(masks, n, p):
    """Smallest sub-collection whose union has at least p bits.

    Returns (size, chosen indices, states), with size and chosen None when
    no union has p bits; ``states`` counts the distinct unions reached,
    the empty one included.  The search runs breadth-first over unions:
    layer c holds the unions first reached with c sets, and it stops at the
    first layer holding a union of at least p bits, taking the smallest
    such union.  The certificate walks back one layer at a time to the
    smallest union of the layer before and then the smallest index j that
    reaches the current union, which is the first strict improvement of the
    subset DP over all 2^n unions in ascending (union, j) order, so both
    give the same sets in the same order.
    """
    if p <= 0:
        return 0, [], 1
    seen = bytearray(1 << n)
    seen[0] = 1
    distinct = list(dict.fromkeys(masks))
    layers = [[0]]
    states = 1
    goal = -1
    while goal < 0:
        layer = []
        for u in layers[-1]:
            for s in distinct:
                v = u | s
                if not seen[v]:
                    seen[v] = 1
                    layer.append(v)
        if not layer:
            return None, None, states
        states += len(layer)
        layers.append(layer)
        goal = min((v for v in layer if v.bit_count() >= p), default=-1)
    chosen = []
    cur = goal
    for layer in reversed(layers[:-1]):
        cur, j = next((u, j) for u in sorted(layer) if u | cur == cur
                      for j, s in enumerate(masks) if u | s == cur)
        chosen.append(j)
    chosen.reverse()
    return len(chosen), chosen, states


def exact_cover_optimum(masks, n, covered=0):
    """Smallest partition of the uncovered elements into pairwise-disjoint sets.

    The uncovered elements are those of range(n) outside the bitmask
    ``covered`` (none by default), so no set meeting ``covered`` is chosen.
    Returns (size, chosen indices, states), with size and chosen None when
    no exact cover exists; ``states`` counts the distinct uncovered masks
    solved, the empty one included.  Each uncovered mask branches on its
    lowest element, trying only the sets whose lowest element it is, in
    index order; the memo keeps the first strictly better set.  This is the
    subset-DP recurrence over all 2^n masks evaluated top-down from the
    uncovered mask, so both give the same sets in the same order.  Every
    level of the recursion covers at least one element, so it is at most n
    deep.
    """
    buckets = [[] for _ in range(n)]
    for j, s in enumerate(masks):
        if s:
            buckets[(s & -s).bit_length() - 1].append((j, s))
    memo = {0: 0}
    choice = {}

    def solve(rest):
        best = memo.get(rest)
        if best is not None:
            return best
        best = _INF
        for j, s in buckets[(rest & -rest).bit_length() - 1]:
            if s & rest != s:
                continue
            d = solve(rest ^ s) + 1
            if d < best:
                best = d
                choice[rest] = j
                if d == 1:  # no later set can do strictly better
                    break
        memo[rest] = best
        return best

    full = ((1 << n) - 1) & ~covered
    if solve(full) == _INF:
        return None, None, len(memo)
    chosen = []
    rest = full
    while rest:
        j = choice[rest]
        chosen.append(j)
        rest ^= masks[j]
    chosen.reverse()
    return len(chosen), chosen, len(memo)


def ham_cycle(succ, n):
    """Directed Hamiltonian cycle through all n nodes, or None.

    ``succ[u]`` is the successor bitmask of node u.  Cycles are anchored at
    node 0; the returned order starts there.
    """
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


def colorful_trial_yes(k, post_order, parent, orient, out_adj, in_adj, colors):
    """One color-coding trial: does a colorful embedding of the tree exist?

    Tree nodes 0..k-1; ``post_order`` lists them children-first with the
    root last; ``orient[v]`` is 0 undirected / 1 parent->child / 2
    child->parent for the edge above v.  ``out_adj``/``in_adj`` are host
    adjacency bitmasks and ``colors[u]`` in [0, k) the trial coloring.
    Returns a host node for the root on success, else -1.
    """
    n = len(colors)
    full = (1 << k) - 1
    fam = [[{1 << colors[u]} for u in range(n)] for _ in range(k)]
    root = post_order[-1]
    for v in post_order[:-1]:
        if not colorful_merge(fam[parent[v]], fam[v], orient[v], out_adj, in_adj):
            return -1
    root_fam = fam[root]
    for u in range(n):
        if full in root_fam[u]:
            return u
    return -1


def colorful_merge(parent_fam, child_fam, orient, out_adj, in_adj):
    """Merge the finished subtree of one child into its parent's families.

    ``parent_fam[u]`` is the set of color masks of colorful embeddings of
    the parent's merged part with the parent at host u; ``child_fam[w]``
    the same for the child's whole subtree at w.  ``orient`` is the edge
    code of ``colorful_trial_yes``.  Each nonempty ``parent_fam[u]`` is
    replaced by the disjoint unions over the hosts w the edge allows.
    Entries are replaced, never mutated, so a shallow ``list(parent_fam)``
    taken before the call still holds the earlier stage.  Returns whether
    any entry stays nonempty.
    """
    alive = False
    for u in range(len(parent_fam)):
        cur = parent_fam[u]
        if not cur:
            continue
        if orient == 1:
            ws = out_adj[u]
        elif orient == 2:
            ws = in_adj[u]
        else:
            ws = out_adj[u] | in_adj[u]
        pool = set()
        while ws:
            w = (ws & -ws).bit_length() - 1
            ws &= ws - 1
            pool |= child_fam[w]
        acc = set()
        for b in pool:
            for a in cur:
                if a & b == 0:
                    acc.add(a | b)
        parent_fam[u] = acc
        alive = alive or bool(acc)
    return alive
