"""Kernels for the hot inner loops.

One breadth-first union search serves plain, partial and exact cover.
It, the Hamiltonicity DP and the color-coding trial work on integer
bitmasks and return plain ints, lists and tuples.  Callers reach them as
attributes of this module (``kernels.cover_optimum(...)``), never through
a local alias, so a profiler can wrap them in one place.
"""

from __future__ import annotations

BACKEND = "python"


def cover_optimum(masks, n, p, covered=0):
    """Smallest sub-collection whose union with ``covered`` has at least p bits.

    Returns (size, chosen indices, states), with size and chosen None when
    no such union exists; ``states`` counts the distinct unions reached,
    the ``covered`` one included.  See ``_union_search``.
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
    every set extend every union and keeps one visited byte per possible
    union, 2^n bytes.

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
        seen = bytearray(1 << n)
        seen[covered] = 1
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
        if p < n:
            for u in layers[-1]:
                for s in distinct:
                    v = u | s
                    if not seen[v]:
                        seen[v] = 1
                        layer.append(v)
        else:
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
