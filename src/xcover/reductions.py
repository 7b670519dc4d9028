"""Reductions between set-cover variants and tree-pattern embedding.

Four pipelines, each exposed as a lazy instance stream plus an end-to-end
decision/optimization routine:

  * directed tree pattern (k = n) -> bounded-set-size cover instances
  * directed Hamiltonicity       -> same-size-set cover instances
  * set cover                    -> host graph + one pattern tree per partition
  * partial cover                -> the same with leaf total p

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
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator

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
    exponent = (9 if variant == LITERAL else 18) * ntilde / delta
    bound_log2 = exponent * math.log2(ntilde) if ntilde > 1 else 0.0
    elements_declared = ntilde + 9 * ntilde / delta

    def stream():
        for perm in itertools.permutations(range(ntilde), len(anchors)):
            pins = dict(zip(anchors, perm))
            if variant == ANCHORED and not _pinned_edges_ok(G, T, pins):
                continue
            inst = _build_reduced_instance(G, T, subtrees, pins, delta, variant)
            yield ProducedInstance(inst, len(subtrees), provenance=tuple(sorted(pins.items())))

    return ReductionBatch(produced=stream(), bound_declared_log2=bound_log2,
                          elements_declared=elements_declared)


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

    def adj(u, orient):
        if orient == FWD:
            return G.successors(u)
        if orient == REV:
            return G.predecessors(u)
        return G.neighbors(u)

    def rec(i):
        if i == len(order):
            images.add(tuple(sorted(assign.values())))
            return
        v = order[i]
        if v == root:
            cands = (local_pins[root],)
        else:
            cands = adj(assign[T.parent[v]], T.orientation[v])
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
                             solver: Callable[[SetCoverInstance], SolveResult] | None = None,
                             variant: str = ANCHORED) -> bool:
    """True iff some produced instance admits a cover of exactly the target size."""
    solver = solver or setcover_dp
    batch = ntree_to_setcover(G, T, delta, variant)
    for prod in batch.produced:
        res = solver(prod.instance)
        if res.answer == "optimum" and res.optimum == prod.target:
            return True
    return False


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


def solve_ham_via_setcover(G: Digraph, delta: int,
                           solver: Callable[[SetCoverInstance], SolveResult] | None = None) -> bool:
    solver = solver or setcover_dp
    batch = ham_to_setcover(G, delta)
    for prod in batch.produced:
        res = solver(prod.instance)
        if res.answer == "optimum" and res.optimum == prod.target:
            return True
    return False


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


@dataclass
class _TreeMeta:
    tree: PatternTree
    grouped_centers: list[int]
    remainder_centers: list[int]


def _build_pattern_tree(alpha: Partition, g: int, gadget_n: int, total: int) -> _TreeMeta:
    if alpha.total != total:
        raise PreconditionError(f"partition sums to {alpha.total}, expected {total}")
    q = _pendant_count(gadget_n, g)
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
    grouped_centers = []
    remainder_centers = []
    for value, is_grouped in shrunk.entries():
        center = len(parent)
        parent.append(1 if is_grouped else 0)
        (grouped_centers if is_grouped else remainder_centers).append(center)
        for _ in range(value):
            parent.append(center)
    k = len(parent)
    tree = PatternTree(k=k, root=0, parent=tuple(parent), orientation=(UND,) * k)
    return _TreeMeta(tree=tree, grouped_centers=grouped_centers,
                     remainder_centers=remainder_centers)


def build_pattern_tree(alpha: Partition, g: int, n: int) -> PatternTree:
    """Pattern tree for one partition of the ground set: the rigid anchor
    gadget plus one star per grouped sum (attached beside the g-subset
    nodes) and one star per remainder part (attached beside the set nodes).
    """
    return _build_pattern_tree(alpha, g, gadget_n=n, total=n).tree


def pattern_tree_size(alpha: Partition, g: int, n: int) -> int:
    """Closed-form node count of build_pattern_tree's output."""
    shrunk = shrink_partition(alpha, g)
    return 4 + 4 * _pendant_count(n, g) + len(shrunk.entries()) + alpha.total


def _check_forcing_margins(n: int, g: int):
    # the anchor-degree arguments need ceil(2n/g) >= n/g + 3
    q = _pendant_count(n, g)
    if q * g < n + 3 * g:
        raise PreconditionError(
            f"forcing margin fails: ceil(2n/g) = {q} < n/g + 3 for n={n}, g={g}")


def _default_ktree_solver(budget):
    def solve(host, tree):
        return tree_embed_backtrack(host, tree, budget=budget)

    return solve


def _ktree_stats(start, trees_tried=0, explored=0, **extra):
    """Pipeline counters: pattern trees handed to the solver and the sum of
    the solver's ``explored`` counts over them."""
    return {"trees_tried": trees_tried, "explored": explored,
            "wall_time": time.perf_counter() - start, **extra}


def _extract_cover_indices(bundle, meta, mapping):
    chosen = set()
    for center in meta.grouped_centers:
        role = bundle.node_roles[mapping[center]]
        if role[0] != "Mg":
            return None
        chosen.update(role[1])
    for center in meta.remainder_centers:
        role = bundle.node_roles[mapping[center]]
        if role[0] != "M":
            return None
        chosen.add(role[1])
    return sorted(chosen)


def setcover_to_ktree(inst: SetCoverInstance, g: int,
                      ktree_solver=None, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Optimum cover size via pattern-tree embeddings, one tree per partition.

    Partitions of n are tried in ascending part count; the first accepted
    partition length is the optimum.  Requires the preprocessed size bound
    and the numeric forcing margins; both are checked, never assumed.
    """
    start = time.perf_counter()
    n = inst.n
    if n == 0:
        return SolveResult("optimum", optimum=0, certificate=[], stats=_ktree_stats(start))
    _check_forcing_margins(n, g)
    bundle = build_host_graph(inst, g)  # also enforces the set-size assumption
    coverable = set()
    for s in inst.sets:
        coverable.update(s)
    if len(coverable) < n:
        # a star leaf standing for an uncovered element can never map
        return SolveResult("infeasible",
                           stats=_ktree_stats(start, uncoverable=n - len(coverable)))
    solver = ktree_solver or _default_ktree_solver(budget)
    max_size = max((len(s) for s in inst.sets), default=0)
    trees_tried = explored = 0
    for length in range(1, n + 1):
        for alpha in partitions_with_length(n, length):
            shrunk = shrink_partition(alpha, g)
            # stars larger than any achievable neighborhood cannot embed
            if any(v > max_size for v in shrunk.remainder):
                continue
            if any(v > g * max_size for v in shrunk.grouped):
                continue
            meta = _build_pattern_tree(alpha, g, gadget_n=n, total=n)
            trees_tried += 1
            res = solver(bundle.host, meta.tree)
            explored += res.stats.get("explored", 0)
            if res.is_yes:
                cert = None
                if isinstance(res.certificate, dict):
                    indices = _extract_cover_indices(bundle, meta, res.certificate)
                    if indices is not None and verify_cover(inst, indices):
                        cert = indices
                return SolveResult("optimum", optimum=length, certificate=cert,
                                   stats=_ktree_stats(start, trees_tried, explored,
                                                      partition=alpha.parts))
    return SolveResult("infeasible", stats=_ktree_stats(start, trees_tried, explored))


@dataclass
class PreprocessOutcome:
    """Split result: the best solution forced through a removed large set
    (when any exists) plus the residual instance of small sets only."""

    solved_with_large: SolveResult | None
    residual: SetCoverInstance
    large_indices: list[int]
    residual_index_map: list[int] = field(default_factory=list)
    changed: bool = False


def _restricted_cover_best(inst, fixed_indices_pool, p_of_rest):
    """min over j in pool of 1 + optimum on elements outside set j."""
    best = None
    for j in fixed_indices_pool:
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
        p_sub = p_of_rest(len(covered))
        res = kernels.cover_optimum(sub_masks, len(rest), p_sub)
        if res is None:
            continue
        opt, chosen = res
        total = 1 + opt
        if best is None or total < best[0]:
            best = (total, sorted({j} | set(chosen)))
    return best


def setcover_preprocess_large(inst: SetCoverInstance, g: int) -> PreprocessOutcome:
    """Handle sets larger than n/g^2 by guessing one of them.

    When some optimal solution uses a large set, the optimum is found here
    by trying each large set and solving the uncovered remainder by DP.
    The residual instance (large sets removed) satisfies the size
    assumption and is returned either way.
    """
    n = inst.n
    large = [j for j, s in enumerate(inst.sets) if len(s) * g * g > n]
    small = [j for j in range(inst.m) if j not in set(large)]
    small_sets = tuple(inst.sets[j] for j in small)
    residual = SetCoverInstance(n=n, sets=small_sets, variant=inst.variant, p=inst.p)
    order = sorted(range(len(small)), key=lambda t: (small_sets[t], t))
    index_map = [small[t] for t in order]
    if not large:
        return PreprocessOutcome(None, residual, [], index_map, changed=False)
    best = _restricted_cover_best(inst, large, lambda covered: n - covered)
    solved = None
    if best is not None:
        solved = SolveResult("optimum", optimum=best[0], certificate=best[1])
    return PreprocessOutcome(solved, residual, large, index_map, changed=True)


def solve_setcover_via_ktree(inst: SetCoverInstance, g: int,
                             ktree_solver=None, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Large-set preprocessing composed with the partition-tree pipeline.

    ``stats`` passes through the pipeline's ``trees_tried`` and the summed
    solver ``explored`` count.
    """
    start = time.perf_counter()
    pre = setcover_preprocess_large(inst, g)
    candidates = []
    if pre.solved_with_large is not None:
        candidates.append((pre.solved_with_large.optimum, pre.solved_with_large.certificate))
    kt = setcover_to_ktree(pre.residual, g, ktree_solver, budget)
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


# ---------------------------------------------------------------------------
# partial cover -> tree pattern embedding
# ---------------------------------------------------------------------------


def ppc_preprocess_large(inst: SetCoverInstance, g: int) -> PreprocessOutcome:
    """Partial-cover analogue: guess one set of size at least p/g^2."""
    if inst.variant != PARTIAL:
        raise PreconditionError("expected a partial-variant instance")
    p = inst.p
    large = [j for j, s in enumerate(inst.sets) if len(s) * g * g >= p]
    small = [j for j in range(inst.m) if j not in set(large)]
    small_sets = tuple(inst.sets[j] for j in small)
    residual = SetCoverInstance(n=inst.n, sets=small_sets, variant=PARTIAL, p=p)
    order = sorted(range(len(small)), key=lambda t: (small_sets[t], t))
    index_map = [small[t] for t in order]
    if not large or p == 0:
        return PreprocessOutcome(None, residual, large, index_map, changed=bool(large))
    best = _restricted_cover_best(inst, large, lambda covered: max(0, p - covered))
    solved = None
    if best is not None:
        solved = SolveResult("optimum", optimum=best[0], certificate=best[1])
    return PreprocessOutcome(solved, residual, large, index_map, changed=True)


def ppc_to_ktree(inst: SetCoverInstance, g: int,
                 ktree_solver=None, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Partition-tree pipeline over partitions of p (leaf total p).

    The anchor gadget is sized by the host's ground set so the forcing
    margins match build_host_graph; the stars contribute p leaves mapped
    injectively into element nodes, i.e. at least p covered elements.
    """
    if inst.variant != PARTIAL:
        raise PreconditionError("expected a partial-variant instance")
    start = time.perf_counter()
    p = inst.p
    if p == 0:
        return SolveResult("optimum", optimum=0, certificate=[], stats=_ktree_stats(start))
    n = inst.n
    for s in inst.sets:
        if len(s) * g * g >= p:
            raise PreconditionError(
                f"set of size {len(s)} is >= p/g^2 = {p}/{g * g}; "
                "run ppc_preprocess_large first")
    _check_forcing_margins(n, g)
    bundle = build_host_graph(inst, g)
    coverable = set()
    for s in inst.sets:
        coverable.update(s)
    if len(coverable) < p:
        return SolveResult("infeasible", stats=_ktree_stats(start))
    solver = ktree_solver or _default_ktree_solver(budget)
    max_size = max((len(s) for s in inst.sets), default=0)
    trees_tried = explored = 0
    for length in range(1, p + 1):
        for alpha in partitions_with_length(p, length):
            shrunk = shrink_partition(alpha, g)
            if any(v > max_size for v in shrunk.remainder):
                continue
            if any(v > g * max_size for v in shrunk.grouped):
                continue
            meta = _build_pattern_tree(alpha, g, gadget_n=n, total=p)
            trees_tried += 1
            res = solver(bundle.host, meta.tree)
            explored += res.stats.get("explored", 0)
            if res.is_yes:
                cert = None
                if isinstance(res.certificate, dict):
                    indices = _extract_cover_indices(bundle, meta, res.certificate)
                    if indices is not None:
                        covered = set()
                        for j in indices:
                            covered.update(inst.sets[j])
                        if len(covered) >= p:
                            cert = indices
                return SolveResult("optimum", optimum=length, certificate=cert,
                                   stats=_ktree_stats(start, trees_tried, explored,
                                                      partition=alpha.parts))
    return SolveResult("infeasible", stats=_ktree_stats(start, trees_tried, explored))


def solve_ppc_via_ktree(inst: SetCoverInstance, g: int,
                        ktree_solver=None, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Partial-cover analogue of solve_setcover_via_ktree, with the same stats."""
    start = time.perf_counter()
    pre = ppc_preprocess_large(inst, g)
    candidates = []
    if pre.solved_with_large is not None:
        candidates.append((pre.solved_with_large.optimum, pre.solved_with_large.certificate))
    kt = ppc_to_ktree(pre.residual, g, ktree_solver, budget)
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
