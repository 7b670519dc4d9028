"""Reductions between set-cover variants and tree-pattern embedding.

Two directions, each with one driver:

  * directed tree pattern (k = n) -> bounded-set-size cover instances, and
    directed Hamiltonicity -> same-size-set cover instances.  Each is a
    lazy instance stream; ``decide_stream`` decides either stream with the
    cover DP, serially or on a process pool.
  * set cover and p-partial cover -> host graph + one pattern tree per
    partition of the leaf total (n for a plain cover, p for a partial
    one).  ``setcover_preprocess_large``, ``setcover_to_ktree`` and their
    composition ``solve_setcover_via_ktree`` read the variant, and so the
    leaf total and the large-set test, from the instance; the ``ppc_*``
    names are the same routines restricted to partial instances.

The tree-to-cover direction ships in two variants.  ``literal`` pins only
the subtree roots and each produced set certifies one subtree in isolation,
which leaves the edge from a subtree root to its (non-root) parent
unchecked; it is complete but can over-accept.  ``anchored`` (default) also
pins every subtree root's parent and rejects guesses whose pinned tree
edges are missing from the host, which is what makes the pipeline pass
differential soundness tests.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb
from typing import Iterator

from xcover import kernels
from xcover.errors import CapacityError, PreconditionError
from xcover.instances import (
    FWD,
    PARTIAL,
    REV,
    UND,
    Digraph,
    PatternTree,
    SetCoverInstance,
    SubtreeCover,
)
from xcover.partitions import Partition, partitions_with_length, shrink_partition
from xcover.solvers import (
    DEFAULT_BUDGET,
    SolveResult,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
)

LITERAL = "literal"
ANCHORED = "anchored"

_VARIANT_ALIASES = {
    "literal": LITERAL,
    "paper": LITERAL,
    "paper-literal": LITERAL,
    "anchored": ANCHORED,
}

MG_MAX_G = 4
MG_MAX_NODES = 10 ** 6


def normalize_variant(name: str) -> str:
    try:
        return _VARIANT_ALIASES[name]
    except KeyError:
        raise PreconditionError(f"unknown variant {name!r}") from None


@dataclass
class ProducedInstance:
    instance: SetCoverInstance
    target: int
    provenance: tuple


@dataclass
class ReductionBatch:
    """Lazy stream of produced instances plus the declared caps.

    Counts are astronomically large in general, so the stream-length cap is
    carried in log2.
    """

    produced: Iterator[ProducedInstance]
    bound_declared_log2: float
    elements_declared: float


@dataclass
class StreamDecision:
    """The first produced instance whose minimum cover has exactly the
    target size (None if there is none), the cover DP's result on it, and
    the number of instances examined."""

    accepted: ProducedInstance | None
    result: SolveResult | None
    examined: int


def _solve_instance(inst: SetCoverInstance) -> SolveResult:
    # a module-level function, so the process pool can pickle it by name
    return setcover_dp(inst)


def _accepts(prod: ProducedInstance, res: SolveResult) -> bool:
    return res.answer == "optimum" and res.optimum == prod.target


def decide_stream(batch: ReductionBatch, jobs: int = 1) -> StreamDecision:
    """Solve the produced instances with the cover DP until one accepts.

    With ``jobs`` > 1 blocks of instances go to a process pool and every
    instance of a block counts as examined.  The accepted instance does not
    depend on the job count: it is the first accepting one of the stream.
    """
    examined = 0
    if jobs <= 1:
        for prod in batch.produced:
            examined += 1
            res = setcover_dp(prod.instance)
            if _accepts(prod, res):
                return StreamDecision(prod, res, examined)
        return StreamDecision(None, None, examined)
    chunk = max(jobs * 4, 8)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while True:
            block = list(itertools.islice(batch.produced, chunk))
            if not block:
                return StreamDecision(None, None, examined)
            examined += len(block)
            results = pool.map(_solve_instance, [prod.instance for prod in block])
            for prod, res in zip(block, results):
                if _accepts(prod, res):
                    return StreamDecision(prod, res, examined)


# ---------------------------------------------------------------------------
# subtree covers
# ---------------------------------------------------------------------------


def tree_cover(T: PatternTree, l: int) -> SubtreeCover:
    """Cover T by subtrees of at most 2(l-1) nodes that meet only at roots.

    DFS accumulation: returning from v to its parent p merges v's pending
    set into p's; once p's set reaches l nodes it is emitted rooted at p.
    Smaller leftovers are emitted when p is finished and already roots a
    set, or at the very last return of the traversal.  Children are visited
    in ascending node id, so the output is deterministic.  Orientations are
    ignored here.
    """
    if l < 2:
        raise PreconditionError("need l >= 2: subtrees of at most 2(l-1) = 0 nodes are empty")
    k = T.k
    if k == 1:
        return SubtreeCover(((T.root, frozenset({T.root})),), source_k=1, l=l)
    children = T.children
    next_child = [0] * k
    pending = [{v} for v in range(k)]
    emitted: list[tuple[int, frozenset[int]]] = []
    rooted = set()
    stack = [T.root]
    while stack:
        u = stack[-1]
        if next_child[u] < len(children[u]):
            stack.append(children[u][next_child[u]])
            next_child[u] += 1
            continue
        stack.pop()
        if not stack:
            break
        p = stack[-1]
        pending[p] |= pending[u]
        unvisited = next_child[p] < len(children[p])
        if len(pending[p]) >= l:
            emitted.append((p, frozenset(pending[p])))
            rooted.add(p)
            pending[p] = {p} if unvisited else set()
        elif not unvisited and p in rooted:
            emitted.append((p, frozenset(pending[p])))
            pending[p] = set()
        elif p == T.root and not unvisited:
            emitted.append((p, frozenset(pending[p])))
            rooted.add(p)
    return SubtreeCover(tuple(emitted), source_k=k, l=l)


def check_cover_properties(T: PatternTree, cover: SubtreeCover, l: int) -> dict:
    """Verify the subtree-cover guarantees; violations are listed, not raised.

    Items: (a) every subtree has at most 2(l-1) nodes; (b) the subtrees
    cover V(T); (c) two subtrees intersect at most in one of their roots;
    (d) there are at most 3k/(l-1) subtrees.  Additionally each node set
    must be connected in T with its recorded root nearest the global root.
    """
    report = {"size": [], "coverage": [], "intersection": [], "count": [],
              "connectivity": [], "root": []}
    subtrees = cover.subtrees
    limit = 2 * (l - 1)
    depths = T.depths()
    covered = set()
    for idx, (r, nodes) in enumerate(subtrees):
        if len(nodes) > limit:
            report["size"].append(idx)
        covered |= nodes
        if r not in nodes or depths[r] != min(depths[v] for v in nodes):
            report["root"].append(idx)
        seen = {r}
        frontier = [r]
        while frontier:
            u = frontier.pop()
            for w in itertools.chain(T.children[u], [T.parent[u]] if u != T.root else []):
                if w in nodes and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != set(nodes):
            report["connectivity"].append(idx)
    missing = set(range(T.k)) - covered
    if missing:
        report["coverage"] = sorted(missing)
    for i in range(len(subtrees)):
        ri, ni = subtrees[i]
        for j in range(i + 1, len(subtrees)):
            rj, nj = subtrees[j]
            inter = ni & nj
            if inter and not (inter <= {ri} or inter <= {rj}):
                report["intersection"].append((i, j))
    if len(subtrees) > 3 * T.k / (l - 1):
        report["count"] = [len(subtrees)]
    report["ok"] = not any(report[key] for key in
                           ("size", "coverage", "intersection", "count", "connectivity", "root"))
    return report


# ---------------------------------------------------------------------------
# directed tree pattern (k = n) -> bounded-size set cover
# ---------------------------------------------------------------------------


def count_bound_log2(ntilde: int, delta: int, variant: str = LITERAL) -> float:
    """log2 of the declared instance-count cap of the tree-to-cover stream."""
    if ntilde <= 1:
        return 0.0
    exponent = (9 if variant == LITERAL else 18) * ntilde / delta
    return exponent * math.log2(ntilde)


def element_bound(ntilde: int, delta: int) -> float:
    """Declared per-instance ground-set cap of the tree-to-cover stream."""
    return ntilde + 9 * ntilde / delta


def ntree_to_setcover(G: Digraph, T: PatternTree, delta: int,
                      variant: str = ANCHORED) -> ReductionBatch:
    """One cover instance per guessed placement of the subtree anchor nodes.

    The pattern is covered by subtrees of at most delta nodes (size
    parameter l = floor(delta/3) + 1).  For each injective placement of the
    anchors, every orientation-respecting image of each subtree becomes a
    set: a label element standing for the subtree plus the image's
    non-pinned host nodes.  A cover hitting the target size reassembles a
    full embedding.
    """
    variant = normalize_variant(variant)
    if G.num_nodes != T.k:
        raise PreconditionError("host and pattern must have the same node count")
    if delta < 6:
        raise PreconditionError("delta >= 6 required so the size parameter is at least 2")
    ntilde = T.k
    l = delta // 3 + 1
    cover = tree_cover(T, l)
    subtrees = cover.subtrees
    roots = sorted({r for r, _ in subtrees})
    if variant == ANCHORED:
        anchors = sorted(set(roots) | {T.parent[r] for r in roots if r != T.root})
    else:
        anchors = roots

    def stream():
        for perm in itertools.permutations(range(ntilde), len(anchors)):
            pins = dict(zip(anchors, perm))
            if variant == ANCHORED and not _pinned_edges_ok(G, T, pins):
                continue
            inst = _build_reduced_instance(G, T, subtrees, pins, delta, variant)
            yield ProducedInstance(inst, len(subtrees), provenance=tuple(sorted(pins.items())))

    return ReductionBatch(produced=stream(),
                          bound_declared_log2=count_bound_log2(ntilde, delta, variant),
                          elements_declared=element_bound(ntilde, delta))


def _pinned_edges_ok(G, T, pins):
    for p, v, o in T.edge_list():
        if p in pins and v in pins:
            hp, hv = pins[p], pins[v]
            if o == FWD:
                ok = G.has_arc(hp, hv)
            elif o == REV:
                ok = G.has_arc(hv, hp)
            else:
                ok = G.has_arc(hp, hv) or G.has_arc(hv, hp)
            if not ok:
                return False
    return True


def _build_reduced_instance(G, T, subtrees, pins, delta, variant):
    pinned_images = set(pins.values())
    free_hosts = [u for u in range(G.num_nodes) if u not in pinned_images]
    host_elem = {u: i for i, u in enumerate(free_hosts)}
    next_id = len(free_hosts)
    label_elem = []
    incidence_elem = {}
    for idx, (r, nodes) in enumerate(subtrees):
        label_elem.append(next_id)
        next_id += 1
        if variant == ANCHORED:
            for q in sorted(nodes):
                if q in pins and q != r:
                    incidence_elem[(idx, q)] = next_id
                    next_id += 1
    produced = []
    for idx, (r, nodes) in enumerate(subtrees):
        local_pins = {v: pins[v] for v in nodes if v in pins}
        avoid = pinned_images - set(local_pins.values())
        base = [label_elem[idx]]
        base += [incidence_elem[(idx, q)] for q in sorted(nodes)
                 if (idx, q) in incidence_elem]
        for image in _subtree_images(G, T, nodes, r, local_pins, avoid):
            elems = base + [host_elem[u] for u in image if u not in pinned_images]
            produced.append(tuple(sorted(elems)))
    produced = list(dict.fromkeys(produced))
    return SetCoverInstance(n=next_id, sets=tuple(produced), delta=delta)


def _subtree_images(G, T, nodes, root, local_pins, avoid):
    """Distinct host-node sets carrying an orientation-respecting copy of the
    subtree with the given pins, avoiding other pinned images."""
    members = set(nodes)
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for c in T.children[u]:
            if c in members:
                order.append(c)
                stack.append(c)
    images = set()
    assign = {}
    used = set()

    def rec(i):
        if i == len(order):
            images.add(tuple(sorted(assign.values())))
            return
        v = order[i]
        if v == root:
            cands = (local_pins[root],)
        else:
            cands = G.along(assign[T.parent[v]], T.orientation[v])
        pin = local_pins.get(v)
        for u in cands:
            if pin is not None and u != pin:
                continue
            if u in used or u in avoid:
                continue
            assign[v] = u
            used.add(u)
            rec(i + 1)
            del assign[v]
            used.remove(u)

    rec(0)
    return sorted(images)


def solve_ntree_via_setcover(G: Digraph, T: PatternTree, delta: int,
                             variant: str = ANCHORED) -> bool:
    """True iff some produced instance admits a cover of exactly the target size."""
    return decide_stream(ntree_to_setcover(G, T, delta, variant)).accepted is not None


# ---------------------------------------------------------------------------
# directed Hamiltonicity -> same-size-set cover
# ---------------------------------------------------------------------------


def ham_to_setcover(G: Digraph, delta: int) -> ReductionBatch:
    """One instance per guessed representative set and cyclic order.

    Representatives are n/delta nodes with node 0 fixed first (a
    Hamiltonian cycle visits node 0, so rotations need not be enumerated).
    Each delta-edge host path between consecutive representatives whose
    interior avoids all representatives contributes the set of its nodes
    minus the endpoint; all sets have size exactly delta and a cover of the
    target size n/delta must consist of pairwise-disjoint sets.
    """
    n = G.num_nodes
    if delta < 2:
        raise PreconditionError("delta >= 2 required")
    if n < delta:
        raise PreconditionError("host has fewer nodes than delta")
    if n % delta:
        raise PreconditionError("delta must divide the node count; padding is out of scope")
    t = n // delta
    bound_log2 = (t - 1) * math.log2(n) if n > 1 else 0.0

    def stream():
        for rest in itertools.combinations(range(1, n), t - 1):
            for perm in itertools.permutations(rest):
                order = (0,) + perm
                reps = frozenset(order)
                produced = []
                for i in range(t):
                    a, b = order[i], order[(i + 1) % t]
                    for path in _paths_exact(G, a, b, delta, reps):
                        produced.append(tuple(sorted(path[:-1])))
                produced = list(dict.fromkeys(produced))
                inst = SetCoverInstance(n=n, sets=tuple(produced), delta=delta)
                yield ProducedInstance(inst, t, provenance=order)

    return ReductionBatch(produced=stream(), bound_declared_log2=bound_log2,
                          elements_declared=float(n))


def _paths_exact(G, a, b, length, reps):
    """Simple directed paths from a to b with exactly ``length`` edges whose
    interior avoids ``reps``."""
    out = []
    path = [a]

    def rec(u, depth):
        if depth == length:
            if u == b:
                out.append(list(path))
            return
        last = depth + 1 == length
        for w in G.successors(u):
            if last:
                if w == b:
                    path.append(w)
                    rec(w, depth + 1)
                    path.pop()
            elif w not in reps and w not in path:
                path.append(w)
                rec(w, depth + 1)
                path.pop()

    rec(a, 0)
    return out


def solve_ham_via_setcover(G: Digraph, delta: int) -> bool:
    """True iff some produced instance admits a cover of exactly the target size."""
    return decide_stream(ham_to_setcover(G, delta)).accepted is not None


# ---------------------------------------------------------------------------
# set cover -> tree pattern embedding
# ---------------------------------------------------------------------------


@dataclass
class HostGraphBundle:
    host: Digraph
    node_roles: dict[int, tuple]
    g: int


def _pendant_count(n: int, g: int) -> int:
    return -(-2 * n // g)  # ceil(n / (g/2))


def build_host_graph(inst: SetCoverInstance, g: int) -> HostGraphBundle:
    """Incidence graph of the instance plus g-subset nodes and a rigid anchor
    gadget that forces pattern placement.

    Node layout: element nodes, one node per set, one node per g-subset of
    sets, four pendant groups of ceil(n/(g/2)) nodes, and the four anchors.
    Requires every set size at most n/g^2.
    """
    n, m = inst.n, inst.m
    if g < 2:
        raise PreconditionError("g >= 2 required")
    for s in inst.sets:
        if len(s) * g * g > n:
            raise PreconditionError(
                f"set of size {len(s)} exceeds n/g^2 = {n}/{g * g}; "
                "run setcover_preprocess_large first")
    if g > MG_MAX_G or comb(m, g) > MG_MAX_NODES:
        raise CapacityError(f"materializing C({m}, {g}) g-subset nodes is over the cap")
    q = _pendant_count(n, g)
    roles = {}
    for j in range(n):
        roles[j] = ("N", j)
    for i in range(m):
        roles[n + i] = ("M", i)
    combos = list(itertools.combinations(range(m), g))
    base_mg = n + m
    for c, combo in enumerate(combos):
        roles[base_mg + c] = ("Mg", combo)
    base_r = base_mg + len(combos)
    for i in range(1, 5):
        for j in range(q):
            roles[base_r + (i - 1) * q + j] = ("R", i, j)
    base_s = base_r + 4 * q
    rg, r1, r2, r = base_s, base_s + 1, base_s + 2, base_s + 3
    roles[rg] = ("rg",)
    roles[r1] = ("r1",)
    roles[r2] = ("r2",)
    roles[r] = ("r",)

    def pend(i, j):
        return base_r + (i - 1) * q + j

    edges = set()
    masks = inst.masks()
    for i in range(m):
        for e in inst.sets[i]:
            edges.add((e, n + i))
    for c, combo in enumerate(combos):
        union = 0
        for i in combo:
            union |= masks[i]
        x = base_mg + c
        while union:
            e = (union & -union).bit_length() - 1
            union &= union - 1
            edges.add((e, x))
        edges.add((min(rg, x), max(rg, x)))
    for j in range(q):
        edges.add((min(rg, pend(4, j)), max(rg, pend(4, j))))
        edges.add((min(r1, pend(1, j)), max(r1, pend(1, j))))
        edges.add((min(r2, pend(2, j)), max(r2, pend(2, j))))
        edges.add((min(r, pend(3, j)), max(r, pend(3, j))))
    edges.add((min(r, rg), max(r, rg)))
    edges.add((min(r, r1), max(r, r1)))
    edges.add((min(r, r2), max(r, r2)))
    for i in range(m):
        edges.add((min(r, n + i), max(r, n + i)))
    host = Digraph(num_nodes=base_s + 4, edges=frozenset(edges), undirected_mode=True)
    return HostGraphBundle(host=host, node_roles=roles, g=g)


def build_pattern_tree(alpha: Partition, g: int, n: int) -> PatternTree:
    """Pattern tree for one partition of the leaf total over n elements.

    The leaf total is n for a plain cover and p <= n for a partial one; the
    rigid anchor gadget is sized by n either way, so the forcing margins
    match build_host_graph.  One star per grouped sum hangs from anchor 1
    (beside the g-subset nodes) and one star per remainder part from the
    root (beside the set nodes).
    """
    if alpha.total > n:
        raise PreconditionError(f"partition sums to {alpha.total}, more than n = {n}")
    q = _pendant_count(n, g)
    shrunk = shrink_partition(alpha, g)
    # ids: root, three anchors, four pendant groups, then one star per entry
    parent = [-1, 0, 0, 0]
    for _ in range(q):
        parent.append(2)  # pendants of the first anchor
    for _ in range(q):
        parent.append(3)
    for _ in range(q):
        parent.append(0)
    for _ in range(q):
        parent.append(1)
    for value, is_grouped in shrunk.entries():
        center = len(parent)
        parent.append(1 if is_grouped else 0)
        for _ in range(value):
            parent.append(center)
    k = len(parent)
    return PatternTree(k=k, root=0, parent=tuple(parent), orientation=(UND,) * k)


def pattern_tree_size(alpha: Partition, g: int, n: int) -> int:
    """Closed-form node count of build_pattern_tree's output."""
    shrunk = shrink_partition(alpha, g)
    return 4 + 4 * _pendant_count(n, g) + len(shrunk.entries()) + alpha.total


def leaf_partitions(inst: SetCoverInstance) -> Iterator[Partition]:
    """Partitions of the leaf total (n, or p for a partial cover) in
    ascending part count: the order setcover_to_ktree tries them in."""
    total = _leaf_total(inst)
    for length in range(1, total + 1):
        yield from partitions_with_length(total, length)


def _leaf_total(inst: SetCoverInstance) -> int:
    return inst.p if inst.variant == PARTIAL else inst.n


def _large_indices(inst: SetCoverInstance, g: int) -> list[int]:
    """Sets too large for the pattern trees: |S|g^2 > n for a plain cover,
    |S|g^2 >= p for a partial one."""
    if inst.variant == PARTIAL:
        return [j for j, s in enumerate(inst.sets) if len(s) * g * g >= inst.p]
    return [j for j, s in enumerate(inst.sets) if len(s) * g * g > inst.n]


def _require_partial(inst: SetCoverInstance):
    if inst.variant != PARTIAL:
        raise PreconditionError("expected a partial-variant instance")


def _check_forcing_margins(n: int, g: int):
    # the anchor-degree arguments need ceil(2n/g) >= n/g + 3
    q = _pendant_count(n, g)
    if q * g < n + 3 * g:
        raise PreconditionError(
            f"forcing margin fails: ceil(2n/g) = {q} < n/g + 3 for n={n}, g={g}")


def _ktree_stats(start, trees_tried=0, explored=0, **extra):
    """Pipeline counters: pattern trees handed to the solver and the sum of
    the solver's ``explored`` counts over them."""
    return {"trees_tried": trees_tried, "explored": explored,
            "wall_time": time.perf_counter() - start, **extra}


def _extract_cover_indices(bundle, tree, mapping):
    """Sets named by the images of the star centers, or None when a center
    landed on a node of the wrong kind.

    The star centers are the nodes after the anchors that have leaves:
    grouped stars hang from anchor 1 and name a g-subset node, remainder
    stars hang from the root and name a set node.
    """
    chosen = set()
    for v in range(4, tree.k):
        if not tree.children[v]:
            continue
        role = bundle.node_roles[mapping[v]]
        if tree.parent[v] == 1 and role[0] == "Mg":
            chosen.update(role[1])
        elif tree.parent[v] == 0 and role[0] == "M":
            chosen.add(role[1])
        else:
            return None
    return sorted(chosen)


def setcover_to_ktree(inst: SetCoverInstance, g: int,
                      budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Optimum cover size via pattern-tree embeddings, one tree per partition.

    The stars carry one leaf per element to cover, n for a plain cover and
    p for a partial one; leaves map injectively into element nodes, so an
    embedding covers at least that many elements.  Partitions are tried in
    ascending part count; the first accepted partition length is the
    optimum.  Requires the preprocessed size bound and the numeric forcing
    margins; both are checked, never assumed.
    """
    start = time.perf_counter()
    n, total = inst.n, _leaf_total(inst)
    if total == 0:
        return SolveResult("optimum", optimum=0, certificate=[], stats=_ktree_stats(start))
    large = _large_indices(inst, g)
    if large:
        raise PreconditionError(
            f"set of size {len(inst.sets[large[0]])} is over the size bound for g={g}; "
            "run setcover_preprocess_large first")
    _check_forcing_margins(n, g)
    bundle = build_host_graph(inst, g)
    coverable = set()
    for s in inst.sets:
        coverable.update(s)
    if len(coverable) < total:
        # a star leaf standing for an uncovered element can never map
        return SolveResult("infeasible",
                           stats=_ktree_stats(start, uncoverable=total - len(coverable)))
    max_size = max((len(s) for s in inst.sets), default=0)
    trees_tried = explored = 0
    for alpha in leaf_partitions(inst):
        shrunk = shrink_partition(alpha, g)
        # stars larger than any achievable neighborhood cannot embed
        if any(v > max_size for v in shrunk.remainder):
            continue
        if any(v > g * max_size for v in shrunk.grouped):
            continue
        tree = build_pattern_tree(alpha, g, n)
        trees_tried += 1
        res = tree_embed_backtrack(bundle.host, tree, budget=budget)
        explored += res.stats.get("explored", 0)
        if res.is_yes:
            indices = _extract_cover_indices(bundle, tree, res.certificate)
            cert = indices if indices is not None and verify_cover(inst, indices) else None
            return SolveResult("optimum", optimum=len(alpha), certificate=cert,
                               stats=_ktree_stats(start, trees_tried, explored,
                                                  partition=alpha.parts))
    return SolveResult("infeasible", stats=_ktree_stats(start, trees_tried, explored))


def ppc_to_ktree(inst: SetCoverInstance, g: int, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """setcover_to_ktree for a partial-variant instance (leaf total p)."""
    _require_partial(inst)
    return setcover_to_ktree(inst, g, budget)


@dataclass
class PreprocessOutcome:
    """Split result: the best solution forced through a removed large set
    (when any exists) plus the residual instance of small sets only."""

    solved_with_large: SolveResult | None
    residual: SetCoverInstance
    large_indices: list[int]
    residual_index_map: list[int] = field(default_factory=list)
    changed: bool = False


def setcover_preprocess_large(inst: SetCoverInstance, g: int) -> PreprocessOutcome:
    """Handle the sets too large for the pattern trees by guessing one of them.

    Large means |S|g^2 > n for a plain cover and |S|g^2 >= p for a partial
    one.  When some optimal solution uses a large set, the optimum is found
    here by trying each large set and covering the rest of the leaf total
    from the elements outside it by DP.  The residual instance (large sets
    removed) satisfies the size assumption and is returned either way.
    """
    total = _leaf_total(inst)
    large = _large_indices(inst, g)
    small = [j for j in range(inst.m) if j not in set(large)]
    small_sets = tuple(inst.sets[j] for j in small)
    residual = SetCoverInstance(n=inst.n, sets=small_sets, variant=inst.variant, p=inst.p)
    order = sorted(range(len(small)), key=lambda t: (small_sets[t], t))
    index_map = [small[t] for t in order]
    if not large or not total:
        return PreprocessOutcome(None, residual, large, index_map, changed=bool(large))
    best = None
    for j in large:
        covered = set(inst.sets[j])
        rest = [e for e in range(inst.n) if e not in covered]
        remap = {e: i for i, e in enumerate(rest)}
        sub_masks = []
        for s in inst.sets:
            mask = 0
            for e in s:
                if e in remap:
                    mask |= 1 << remap[e]
            sub_masks.append(mask)
        res = kernels.cover_optimum(sub_masks, len(rest), max(0, total - len(covered)))
        if res is None:
            continue
        opt, chosen = res
        if best is None or 1 + opt < best[0]:
            best = (1 + opt, sorted({j} | set(chosen)))
    solved = None
    if best is not None:
        solved = SolveResult("optimum", optimum=best[0], certificate=best[1])
    return PreprocessOutcome(solved, residual, large, index_map, changed=True)


def ppc_preprocess_large(inst: SetCoverInstance, g: int) -> PreprocessOutcome:
    """setcover_preprocess_large for a partial-variant instance."""
    _require_partial(inst)
    return setcover_preprocess_large(inst, g)


def solve_setcover_via_ktree(inst: SetCoverInstance, g: int,
                             budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Large-set preprocessing composed with the partition-tree pipeline,
    for a plain or a partial cover.

    ``stats`` passes through the pipeline's ``trees_tried`` and the summed
    solver ``explored`` count.
    """
    start = time.perf_counter()
    pre = setcover_preprocess_large(inst, g)
    candidates = []
    if pre.solved_with_large is not None:
        candidates.append((pre.solved_with_large.optimum, pre.solved_with_large.certificate))
    kt = setcover_to_ktree(pre.residual, g, budget)
    if kt.answer == "optimum":
        cert = None
        if kt.certificate is not None:
            cert = sorted(pre.residual_index_map[j] for j in kt.certificate)
        candidates.append((kt.optimum, cert))
    stats = _ktree_stats(start, kt.stats["trees_tried"], kt.stats["explored"])
    if not candidates:
        return SolveResult("infeasible", stats=stats)
    opt, cert = min(candidates, key=lambda c: c[0])
    return SolveResult("optimum", optimum=opt, certificate=cert, stats=stats)


def solve_ppc_via_ktree(inst: SetCoverInstance, g: int,
                        budget: int = DEFAULT_BUDGET) -> SolveResult:
    """solve_setcover_via_ktree for a partial-variant instance."""
    _require_partial(inst)
    return solve_setcover_via_ktree(inst, g, budget)
