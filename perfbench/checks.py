"""The benchmark's own certificate checkers and small independent oracles.

Nothing here imports xcover: the instance files are re-read with a
minimal parser, and certificates are checked against that reading, so a
bug in xcover's parser, solvers or verifiers cannot vouch for itself.
"""

from __future__ import annotations


def _records(text):
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("c")]
    return lines[0].split(), lines[1:]


def read_sets(text):
    """(n, sets in file order, p or None) of a setcover-family file."""
    head, body = _records(text)
    n, m = int(head[2]), int(head[3])
    p = int(head[4]) if head[1] == "partialcover" else None
    sets = [frozenset(int(t) for t in line.split()) for line in body]
    if len(sets) != m:
        raise ValueError(f"expected {m} sets, read {len(sets)}")
    return n, sets, p


def read_arcs(text):
    """(node count, set of usable (u, v) arcs) of a digraph or graph file."""
    head, body = _records(text)
    arcs = set()
    for line in body:
        u, v = (int(t) for t in line.split())
        arcs.add((u, v))
        if head[1] == "graph":
            arcs.add((v, u))
    return int(head[2]), arcs


def read_tree(text):
    """(k, {child: (parent, orientation)}) of a tree file."""
    head, body = _records(text)
    edges = {}
    for line in body:
        toks = line.split()
        edges[int(toks[1])] = (int(toks[0]), toks[2] if len(toks) > 2 else "und")
    return int(head[2]), edges


def cover_ok(n, sets, chosen, p=None, disjoint=False):
    """``chosen`` names distinct sets whose union has >= p (default n) elements."""
    if len(set(chosen)) != len(chosen) or not all(0 <= j < len(sets) for j in chosen):
        return False
    got = set()
    for j in chosen:
        if disjoint and got & sets[j]:
            return False
        got |= sets[j]
    return len(got) >= (n if p is None else p) and got <= set(range(n))


def cycle_ok(n, arcs, order):
    return (sorted(order) == list(range(n)) and n >= 2
            and all((order[i], order[(i + 1) % n]) in arcs for i in range(n)))


def embedding_ok(n, arcs, k, tree_edges, mapping):
    """Injective map of the k tree nodes into [0, n) respecting every edge."""
    if sorted(mapping) != list(range(k)) or len(set(mapping.values())) != k:
        return False
    if not all(0 <= u < n for u in mapping.values()):
        return False
    for child, (parent, o) in tree_edges.items():
        a, b = mapping[parent], mapping[child]
        fwd, rev = (a, b) in arcs, (b, a) in arcs
        if not (fwd if o == "fwd" else rev if o == "rev" else fwd or rev):
            return False
    return True


def min_cover(n, sets, p=None, disjoint=False):
    """Fewest sets whose union reaches p (default n) elements, or None.

    Breadth-first over the distinct unions reachable with c sets, so it
    shares nothing with xcover's dense 2^n DP.
    """
    target = n if p is None else p
    if target <= 0:
        return 0
    masks = {sum(1 << e for e in s) for s in sets} - {0}
    frontier, seen = {0}, {0}
    for c in range(1, len(masks) + 1):
        nxt = set()
        for u in frontier:
            for s in masks:
                if disjoint and u & s:
                    continue
                w = u | s
                if w not in seen:
                    if bin(w).count("1") >= target:
                        return c
                    seen.add(w)
                    nxt.add(w)
        if not nxt:
            return None
        frontier = nxt
    return None


def has_ham_cycle(n, arcs):
    """Depth-first search for a directed Hamiltonian cycle through node 0."""
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    seen = [False] * n
    seen[0] = True

    def extend(u, placed):
        if placed == n:
            return 0 in succ[u]
        for v in succ[u]:
            if not seen[v]:
                seen[v] = True
                if extend(v, placed + 1):
                    return True
                seen[v] = False
        return False

    return n >= 2 and extend(0, 1)
