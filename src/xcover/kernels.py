"""Subset-DP kernels for the hot inner loops.

The cover, exact-cover and Hamiltonicity DPs and the color-coding trial
work on integer bitmasks and return plain ints, lists and tuples.  Callers
reach them as attributes of this module (``kernels.cover_optimum(...)``),
never through a local alias, so a profiler can wrap them in one place.
"""

from __future__ import annotations

_INF = 0xFF

BACKEND = "python"


def cover_optimum(masks, n, p):
    """Smallest sub-collection whose union has at least p bits.

    Returns (size, chosen indices) or None when unreachable.  The DP state
    is the exact union bitmask; predecessors are stored for certificate
    reconstruction.
    """
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


def exact_cover_optimum(masks, n):
    """Smallest partition of the ground set into pairwise-disjoint sets.

    Returns (size, chosen indices) or None when no exact cover exists.
    """
    size = 1 << n
    full = size - 1
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
