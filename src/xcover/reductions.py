"""Reductions between set-cover variants and tree-pattern embedding.

Two directions, each with one driver:

  * directed tree pattern (k = n) -> bounded-set-size cover instances, and
    directed Hamiltonicity -> same-size-set cover instances.  Each is a
    lazy instance stream; ``decide_stream`` decides either stream with the
    cover DP.
  * set cover and p-partial cover -> host graph + one pattern tree per
    partition of the leaf total (n for a plain cover, p for a partial
    one).  ``solve_setcover_via_ktree`` runs ``setcover_preprocess_large``
    and then the trees; both read the variant, and so the leaf total and
    the large-set test, from the instance.  The ``ppc_*`` names are the
    same routines restricted to partial instances.

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
import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator

from xcover import kernels
from xcover.errors import BudgetExceededError, CapacityError, PreconditionError
from xcover.instances import (
    FWD,
    MAX_HOST_NODES,
    PARTIAL,
    REVERSED,
    UND,
    Digraph,
    PatternTree,
    SetCoverInstance,
    SubtreeCover,
    degree_table,
)
from xcover.partitions import Partition, partitions_with_length, shrink_partition
from xcover.solvers import (
    DEFAULT_BUDGET,
    SolveResult,
    _check_cap_n,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
)

LITERAL = "literal"
ANCHORED = "anchored"

_VARIANT_ALIASES = {
    "literal": LITERAL,
    "paper": LITERAL,
    "anchored": ANCHORED,
}

MG_MAX_G = 4

# Loop items a reduction stream may enumerate, built or skipped: anchor
# placements tried by the ntree stream, partial ones included, and
# representative sets by the ham stream.  On a shared 2-core x86-64 host
# that is about 3 s of a dead ntree stream and 11 s of a dead ham one.
MAX_STREAM_STEPS = 5_000_000


def _over_steps(items: str) -> BudgetExceededError:
    return BudgetExceededError(
        f"the stream enumerates more than MAX_STREAM_STEPS = {MAX_STREAM_STEPS} {items}")


def normalize_variant(name: str) -> str:
    if isinstance(name, str) and name in _VARIANT_ALIASES:
        return _VARIANT_ALIASES[name]
    raise PreconditionError(f"unknown variant {name!r}")


@dataclass
class ProducedInstance:
    """One instance of a reduction stream: the instance, its target cover
    size and the guess that produced it."""

    instance: SetCoverInstance
    target: int
    provenance: tuple


@dataclass
class ReductionBatch:
    """Lazy stream of produced instances plus the declared caps.

    Counts are astronomically large in general, so the stream-length cap is
    carried in log2.  Every instance of a stream has the same ground set of
    ``elements`` elements.  A stream made for deciding may also yield ints:
    each is a number of instances, in stream order, skipped because they
    cannot accept.
    """

    produced: Iterator[ProducedInstance | int]
    bound_declared_log2: float
    elements_declared: float
    elements: int


@dataclass
class StreamDecision:
    """The first produced instance whose minimum cover has exactly the
    target size (None if there is none), the cover DP's result on it, the
    number of instances examined, the number of distinct instances the
    cover DP solved and the number of instances examined as skip counts,
    without being built."""

    accepted: ProducedInstance | None
    result: SolveResult | None
    examined: int
    distinct: int
    filtered: int


def decide_stream(batch: ReductionBatch, budget: int = DEFAULT_BUDGET) -> StreamDecision:
    """Solve the produced instances with the cover DP until one accepts.

    A skip count the stream yields is added to ``examined`` and
    ``filtered``.  Each distinct instance is solved once: an instance with
    the same target and sets as an earlier one cannot accept, because the
    earlier one was rejected, so it is only counted as examined.  The memo
    of decided ``(target, sets)`` pairs holds one entry per distinct
    instance solved and is released on return.  Raises
    BudgetExceededError when the stream yields a built instance beyond the
    first ``budget``, before it is looked at; skip counts build nothing
    and do not count.  Raises CapacityError before the first item when the
    stream's ground set is over the cover DP's cap.
    """
    _check_cap_n(batch.elements)
    seen = set()
    examined = filtered = 0
    for prod in batch.produced:
        if isinstance(prod, int):
            examined += prod
            filtered += prod
            continue
        if examined - filtered >= budget:
            raise BudgetExceededError(
                f"the stream builds more than the budget of {budget} instances")
        examined += 1
        key = (prod.target, prod.instance.sets)
        if key in seen:
            continue
        seen.add(key)
        res = setcover_dp(prod.instance)
        if res.answer == "optimum" and res.optimum == prod.target:
            return StreamDecision(prod, res, examined, len(seen), filtered)
    return StreamDecision(None, None, examined, len(seen), filtered)


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
    k, root = T.k, T.root
    if k == 1:
        return SubtreeCover(((root, frozenset({root})),))
    parent, children = T.parent, T.children
    # the pre-order that visits children in descending id, whose reverse is
    # the order in which the traversal returns from each node
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += children[v]
    pending = [{v} for v in range(k)]
    emitted: list[tuple[int, frozenset[int]]] = []
    rooted = set()
    for u in reversed(order):
        p = parent[u]
        if p < 0:  # the root, returned from last
            break
        pending[p] |= pending[u]
        finished = u == children[p][-1]
        if len(pending[p]) >= l:
            emitted.append((p, frozenset(pending[p])))
            rooted.add(p)
            pending[p] = set() if finished else {p}
        elif finished and (p in rooted or p == root):
            emitted.append((p, frozenset(pending[p])))
            pending[p] = set()
    return SubtreeCover(tuple(emitted))


def check_cover_properties(T: PatternTree, cover: SubtreeCover, l: int) -> dict:
    """Verify the subtree-cover guarantees; violations are listed, not raised.

    Items: (a) every subtree has at most 2(l-1) nodes; (b) the subtrees
    cover V(T); (c) two subtrees intersect at most in one of their roots;
    (d) there are at most 3k/(l-1) subtrees.  Additionally each node set
    must be connected in T with its recorded root nearest the global root.
    The report lists each item's violations under its key, then ``ok``,
    true when every list is empty.
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
    report["ok"] = not any(report.values())
    return report


# ---------------------------------------------------------------------------
# directed tree pattern (k = n) -> bounded-size set cover
# ---------------------------------------------------------------------------


def _require_delta(delta: int):
    if delta < 1:
        raise PreconditionError(f"delta >= 1 required, got {delta}")


def count_bound_log2(ntilde: int, delta: int, variant: str = LITERAL) -> float:
    """log2 of the declared instance-count cap of the tree-to-cover stream."""
    _require_delta(delta)
    if ntilde <= 1:
        return 0.0
    exponent = (9 if variant == LITERAL else 18) * ntilde / delta
    return exponent * math.log2(ntilde)


def element_bound(ntilde: int, delta: int) -> float:
    """Declared per-instance ground-set cap of the tree-to-cover stream."""
    _require_delta(delta)
    return ntilde + 9 * ntilde / delta


def ntree_to_setcover(G: Digraph, T: PatternTree, delta: int,
                      variant: str = ANCHORED, live_only: bool = False) -> ReductionBatch:
    """One cover instance per guessed placement of the subtree anchor nodes.

    The pattern is covered by subtrees of at most delta nodes (size
    parameter l = floor(delta/3) + 1).  For each injective placement of the
    anchors, every orientation-respecting image of each subtree becomes a
    set: a label element standing for the subtree plus the image's
    non-pinned host nodes.  A cover hitting the target size reassembles a
    full embedding.

    Placements come in lexicographic order of the host tuple given to the
    anchors in ascending node id (``itertools.permutations`` order), with
    the anchored variant skipping the placements that miss a pinned tree
    edge.  One backtracking loop generates them and yields the stream: each
    pinned edge restricts the hosts of its later anchor, so a miss prunes
    every completion.  Every placement tried, partial ones included, counts
    against MAX_STREAM_STEPS, and the stream raises BudgetExceededError
    past it.  The images of a subtree depend only on its own pins; they are
    found once per stream and kept as free-host bitmasks.

    A placement's instance is full when its sets cover the ground set; one
    that is not cannot accept.  With ``live_only`` (the decide-side form)
    only the full instances are built, and each run of consecutive other
    placements comes as one skip count in its place in the stream.  The
    test costs a bitmask AND and OR per image, with no set or host tuple
    built.
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
    slot = {v: i for i, v in enumerate(anchors)}
    layout = _ReducedLayout(G, T, subtrees, slot, variant, delta)
    # each pinned tree edge restricts the later of its two anchors to the
    # hosts the edge can reach from the earlier one's host: (slot, host masks)
    reach = [[] for _ in anchors]
    if variant == ANCHORED:
        along = G.masks_along
        for v in anchors:
            p, o = T.parent[v], T.orientation[v]
            if p in slot:
                if slot[p] < slot[v]:
                    reach[slot[v]].append((slot[p], along[o]))
                else:
                    reach[slot[p]].append((slot[v], along[REVERSED[o]]))

    def stream():
        # free[i]: the hosts no earlier anchor took; cands[i]: those anchor i
        # can still take, tried lowest first
        last = len(anchors) - 1
        hosts = [0] * len(anchors)
        free = [(1 << ntilde) - 1] + [0] * last
        cands = free[:]
        i = skipped = 0
        steps_left = MAX_STREAM_STEPS
        while i >= 0:
            c = cands[i]
            if not c:
                i -= 1
                continue
            if not steps_left:
                raise _over_steps("anchor placements")
            steps_left -= 1
            low = c & -c
            cands[i] = c ^ low
            hosts[i] = low.bit_length() - 1
            if i < last:
                i += 1
                c = free[i] = free[i - 1] ^ low
                for j, masks in reach[i]:
                    c &= masks[hosts[j]]
                cands[i] = c
                continue
            inst = layout.instance(hosts, live_only)
            if inst is None:
                skipped += 1
                continue
            if skipped:
                yield skipped
                skipped = 0
            yield ProducedInstance(inst, len(subtrees), provenance=tuple(zip(anchors, hosts)))
        if skipped:
            yield skipped

    return ReductionBatch(produced=stream(),
                          bound_declared_log2=count_bound_log2(ntilde, delta, variant),
                          elements_declared=element_bound(ntilde, delta), elements=layout.n)


class _ReducedLayout:
    """Element numbering, subtree walks and memoized subtree images of one
    ntree stream.

    Elements are the non-pinned host nodes in ascending order, then per
    subtree its label element followed, in the anchored variant, by one
    incidence element per pinned non-root node of the subtree.  With a
    fixed anchor count these ids do not depend on the placement.

    Each subtree's walk lists its nodes parent-first, the root first, each
    as (its parent's position in the walk, the host masks along its
    orientation, its anchor slot or None); it is built once per stream.
    ``pins[i]`` reads the hosts of subtree i's pinned nodes off a
    placement, and ``images[i]`` maps them to the free-host bitmask of each
    image.  ``hosts_of`` reads an image's ascending host tuple off its
    bitmask when an instance is built, once per stream and bitmask.
    """

    def __init__(self, G, T, subtrees, slot, variant, delta):
        self.delta = delta
        next_id = G.num_nodes - len(slot)
        children, orientation, along = T.children, T.orientation, G.masks_along
        self.bases, self.pins, self.walks = bases, pins, walks = [], [], []
        for r, nodes in subtrees:
            pinned = [slot[r]]  # the slots of the subtree's pinned nodes
            walk, stack = [(None, None, pinned[0])], [(r, 0)]
            while stack:
                u, at = stack.pop()
                for c in children[u]:
                    if c in nodes:
                        s = slot.get(c)
                        if s is not None:
                            pinned.append(s)
                        stack.append((c, len(walk)))
                        walk.append((at, along[orientation[c]], s))
            walks.append(walk)
            pins.append(operator.itemgetter(*pinned))
            base = [next_id]
            next_id += 1
            if variant == ANCHORED:
                base += range(next_id, next_id + len(pinned) - 1)
                next_id += len(pinned) - 1
            bases.append(base)
        self.n = next_id
        self.hosts_mask = (1 << G.num_nodes) - 1
        self.images = [{} for _ in subtrees]
        self.hosts_of = _HostTuples().__getitem__

    def instance(self, hosts, live_only=False):
        """The placement's cover instance, or None under ``live_only`` when
        its sets cannot cover the ground set.

        An image's free hosts are those of the subtree's non-pinned nodes,
        and it is kept when they avoid every pinned host.  The label and
        incidence elements of a subtree lie in each of its kept images'
        sets, so the sets cover the ground set exactly when every subtree
        keeps an image and the kept images' free hosts together with the
        pinned hosts are every host.
        """
        pinned = 0
        for u in hosts:
            pinned |= 1 << u
        union = pinned
        kept = []
        for pins, memo, walk in zip(self.pins, self.images, self.walks):
            key = pins(hosts)
            images = memo.get(key)
            if images is None:
                images = memo[key] = _subtree_images(walk, hosts)
            alive = []
            for mask in images:
                if not mask & pinned:
                    alive.append(mask)
                    union |= mask
            if live_only and not alive:
                return None
            kept.append(alive)
        if live_only and union != self.hosts_mask:
            return None
        elem = {u: i for i, u in enumerate(self.hosts_of(self.hosts_mask ^ pinned))}
        # host elements precede the label and incidence ones; the free hosts
        # of one key's images are distinct and the labels tell subtrees apart,
        # so no two sets are equal (the instance sorts its sets itself)
        produced = [tuple([elem[u] for u in self.hosts_of(mask)] + base)
                    for alive, base in zip(kept, self.bases) for mask in alive]
        return SetCoverInstance(n=self.n, sets=tuple(produced), delta=self.delta)


class _HostTuples(dict):
    """Bitmask -> the ascending tuple of its set bits, each computed once.
    A stream keeps one for its own life and calls its ``__getitem__``."""

    def __missing__(self, mask):
        hosts = self[mask] = tuple(u for u in range(mask.bit_length()) if mask >> u & 1)
        return hosts


def _subtree_images(walk, hosts):
    """Distinct free-host bitmasks of the orientation-respecting copies of
    a subtree whose pinned nodes sit on their anchors' ``hosts``: each is
    the set of hosts of the subtree's non-pinned nodes.  ``walk`` is the
    subtree's walk (see _ReducedLayout)."""
    images = set()
    at = [hosts[walk[0][2]]] + [0] * (len(walk) - 1)

    def rec(i, used, free):
        if i == len(walk):
            images.add(free)
            return
        parent, along, s = walk[i]
        cands = along[at[parent]] & ~used
        if s is not None:
            cands &= 1 << hosts[s]
        while cands:
            low = cands & -cands
            cands ^= low
            at[i] = low.bit_length() - 1
            rec(i + 1, used | low, free if s is not None else free | low)

    rec(1, 1 << at[0], 0)
    return list(images)


def solve_ntree_via_setcover(G: Digraph, T: PatternTree, delta: int,
                             variant: str = ANCHORED) -> bool:
    """True iff some produced instance admits a cover of exactly the target size."""
    return decide_stream(ntree_to_setcover(G, T, delta, variant,
                                           live_only=True)).accepted is not None


# ---------------------------------------------------------------------------
# directed Hamiltonicity -> same-size-set cover
# ---------------------------------------------------------------------------


def ham_to_setcover(G: Digraph, delta: int, live_only: bool = False) -> ReductionBatch:
    """One instance per guessed representative set and cyclic order.

    Representatives are n/delta nodes with node 0 fixed first (a
    Hamiltonian cycle visits node 0, so rotations need not be enumerated).
    Each delta-edge host path between consecutive representatives whose
    interior avoids all representatives contributes the set of its nodes
    minus the endpoint; all sets have size exactly delta and a cover of the
    target size n/delta must consist of pairwise-disjoint sets.

    Orders come as ``itertools.combinations`` of the other representatives,
    each followed by its ``itertools.permutations``.  Each start node's
    simple delta-edge paths are found once per stream and kept as an index
    by interior mask: for each interior, the bitmask of the ends reached
    through it.  A path's set is its start plus its interior, so the path
    groups of an order, each consecutive pair's paths whose interior avoids
    the representatives, are read off the index only when its instance is
    built, once per representative set and pair; a set's node tuple is
    read off its bitmask once per stream.

    An order is live when every consecutive pair, the closing one included,
    has a path.  A representative lies only in the sets of the paths to its
    successor, so a dead order cannot accept.  With ``live_only`` (the
    decide-side form) only the live orders are built.  A representative's
    live successors are the ends of its interiors that avoid the
    representatives, so a representative set with one of them lacking a
    live successor or predecessor has no live order, and the backtracking
    over positions prunes a dead pair with every completion of its prefix.
    Each run of dead orders comes as one skip count in its place in the
    stream.
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
        # start node -> (interior mask, ends reached through it) pairs
        by_inner = [_paths_by_interior(G, a, delta) for a in range(n)]
        node_tuple = _HostTuples().__getitem__
        bits = [1 << a for a in range(n)]
        orders_after = [math.factorial(i) for i in range(t)]
        live = [0] * n
        skipped = 0

        def live_orders(order, free):
            nonlocal skipped
            succ = live[order[-1]]
            if not free:
                if succ & 1:
                    yield order
                else:
                    skipped += 1
                return
            for i, b in enumerate(free):
                if succ >> b & 1:
                    yield from live_orders(order + (b,), free[:i] + free[i + 1:])
                else:
                    skipped += orders_after[len(free) - 1]

        for steps, rest in enumerate(itertools.combinations(range(1, n), t - 1), 1):
            if steps > MAX_STREAM_STEPS:
                raise _over_steps("representative sets")
            reps_mask = sum(map(bits.__getitem__, rest)) | 1
            if not live_only:
                orders = ((0,) + perm for perm in itertools.permutations(rest))
            else:
                reached = 0
                for a in (0,) + rest:
                    succ = 0
                    for inner, ends in by_inner[a]:
                        if not inner & reps_mask:
                            succ |= ends
                    # a's successor is another representative unless a is the only one
                    succ &= reps_mask if t == 1 else reps_mask ^ bits[a]
                    if not succ:
                        break
                    live[a] = succ
                    reached |= succ
                # each representative also needs a live predecessor
                if not succ or reached != reps_mask:
                    skipped += orders_after[t - 1]
                    continue
                orders = live_orders((0,), rest)
            groups = {}  # (a, b) -> the sets of a's paths to b that avoid the representatives
            for order in orders:
                if skipped:
                    yield skipped
                    skipped = 0
                sets = []
                for a, b in zip(order, order[1:] + (0,)):
                    group = groups.get((a, b))
                    if group is None:
                        group = groups[a, b] = [node_tuple(inner | bits[a])
                                                for inner, ends in by_inner[a]
                                                if ends >> b & 1 and not inner & reps_mask]
                    sets += group
                yield ProducedInstance(SetCoverInstance(n=n, sets=tuple(sets), delta=delta),
                                       t, order)
        if skipped:
            yield skipped

    return ReductionBatch(produced=stream(), bound_declared_log2=bound_log2,
                          elements_declared=float(n), elements=n)


def _paths_by_interior(G, a, length):
    """(interior mask, ends mask) pairs of the simple directed paths from a
    with exactly ``length`` edges, one pair per interior: the ends reached
    through it.  An end may be a itself, never an interior node."""
    reach, succ = {}, G.masks_along[FWD]

    def rec(u, depth, inner):
        # ``inner`` is the path without a; only the last edge may end at a
        if depth + 1 == length:
            ends = succ[u] & ~inner
            if ends:
                reach[inner] = reach.get(inner, 0) | ends
            return
        ends = succ[u] & ~(inner | 1 << a)
        while ends:
            low = ends & -ends
            ends ^= low
            rec(low.bit_length() - 1, depth + 1, inner | low)

    rec(a, 0, 0)
    return tuple(reach.items())


def solve_ham_via_setcover(G: Digraph, delta: int) -> bool:
    """True iff some produced instance admits a cover of exactly the target size."""
    return decide_stream(ham_to_setcover(G, delta, live_only=True)).accepted is not None


# ---------------------------------------------------------------------------
# set cover -> tree pattern embedding
# ---------------------------------------------------------------------------


@dataclass
class HostGraphBundle:
    """The host of build_host_graph, kept as the tables the embedder reads.

    tree_embed_backtrack reads only ``num_nodes``, ``masks_along`` and
    ``at_least``: one tuple of undirected adjacency masks and its degree
    table, each filed under all three orientations, as an undirected
    Digraph files them.  ``host``, the same graph as a checked Digraph with
    its edges read off the masks, and ``node_roles`` are built on first
    use: ``reduce sc-to-ktree|ppc-to-ktree`` prints the host, and tests
    read both.
    """

    n: int
    m: int
    g: int
    combos: list[tuple[int, ...]]
    num_nodes: int
    masks_along: dict[str, tuple[int, ...]]
    at_least: dict[str, tuple[int, ...]]

    @cached_property
    def host(self) -> Digraph:
        # the masks are symmetric, so each edge is read once, at its lower end
        edges = []
        for u, mask in enumerate(self.masks_along[UND]):
            mask >>= u + 1
            while mask:
                low = mask & -mask
                edges.append((u, u + low.bit_length()))
                mask ^= low
        return Digraph(num_nodes=self.num_nodes, edges=frozenset(edges), undirected_mode=True)

    @cached_property
    def node_roles(self) -> dict[int, tuple]:
        q = _pendant_count(self.n, self.g)
        return dict(enumerate(itertools.chain(
            (("N", j) for j in range(self.n)),
            (("M", i) for i in range(self.m)),
            (("Mg", combo) for combo in self.combos),
            (("R", i, j) for i in range(1, 5) for j in range(q)),
            [("rg",), ("r1",), ("r2",), ("r",)])))


def _pendant_count(n: int, g: int) -> int:
    return -(-2 * n // g)  # ceil(n / (g/2))


def build_host_graph(inst: SetCoverInstance, g: int) -> HostGraphBundle:
    """Incidence graph of the instance plus g-subset nodes and a rigid anchor
    gadget that forces pattern placement.

    Node layout: element nodes, one node per set, one node per g-subset of
    sets, four pendant groups of ceil(n/(g/2)) nodes, and the four anchors.
    The host is admitted here and nowhere else, from its layout and before
    anything is built: no large set (see _large_indices), the forcing
    margins, g <= MG_MAX_G and at most MAX_HOST_NODES nodes.

    The adjacency masks and the degree table, all the embedder reads, are
    built straight from the set masks and the layout; no edge set is built
    unless ``host`` is read (see HostGraphBundle).
    """
    n, m = inst.n, inst.m
    large = _large_indices(inst, g)  # refuses the g < 2 the layout cannot divide by
    q = _pendant_count(n, g)
    base_mg = n + m
    base_r = base_mg + comb(m, g)
    base_s = base_r + 4 * q
    if large:
        raise PreconditionError(
            f"set of size {len(inst.sets[large[0]])} is over the size bound for g={g}; "
            "run setcover_preprocess_large first")
    _check_forcing_margins(n, g)
    if g > MG_MAX_G:
        raise CapacityError(f"materializing C({m}, {g}) g-subset nodes is over the cap")
    num_nodes = base_s + 4
    if num_nodes > MAX_HOST_NODES:
        raise CapacityError(f"host of {num_nodes} nodes exceeds the adjacency "
                            f"table cap of {MAX_HOST_NODES}")
    combos = list(itertools.combinations(range(m), g))
    masks = inst.masks()
    # per g-subset node the union of its sets; per set the g-subsets holding it
    unions, holding = [], [0] * m
    for x, combo in enumerate(combos):
        union = 0
        for i in combo:
            union |= masks[i]
            holding[i] |= 1 << x
        unions.append(union)
    # an element's neighbours are the sets holding it and their g-subsets,
    # whose nodes follow the element nodes in that order
    elements = [0] * n
    for i, s in enumerate(inst.sets):
        row = (1 << i | holding[i] << m) << n
        for e in s:
            elements[e] |= row
    rg, r1, r2, r = (1 << v for v in range(base_s, base_s + 4))
    # pendant groups R1, R2, R3 and R4 hang from r1, r2, r and rg
    r1_group = ((1 << q) - 1) << base_r
    adj = tuple(elements + [mask | r for mask in masks] + [union | rg for union in unions]
                + [r1] * q + [r2] * q + [r] * q + [rg] * q
                + [((1 << len(combos)) - 1) << base_mg | r1_group << 3 * q | r,  # rg
                   r1_group | r,  # r1
                   r1_group << q | r,  # r2
                   r1_group << 2 * q | rg | r1 | r2 | ((1 << m) - 1) << n])  # r
    # a Digraph's range and self-loop checks, one step per node: no mask
    # reaches past the last node, and none holds its own node
    if max(adj) >> num_nodes or any(mask >> u & 1 for u, mask in enumerate(adj)):
        raise ValueError(f"host layout of {num_nodes} nodes has an edge out of range "
                         "or a self-loop")
    return HostGraphBundle(n=n, m=m, g=g, combos=combos, num_nodes=num_nodes,
                           masks_along=dict.fromkeys(REVERSED, adj),
                           at_least=dict.fromkeys(REVERSED, degree_table(adj)))


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


def leaf_partitions(inst: SetCoverInstance, g: int = 1,
                    max_size: int | None = None) -> Iterator[Partition]:
    """Partitions of the leaf total (n, or p for a partial cover) in
    ascending part count, each count in descending-lex order.

    With the defaults every partition comes out; ``reduce`` emits them
    all.  solve_setcover_via_ktree passes its g and its largest set size
    and gets only the partitions whose stars fit (see
    partitions_with_length), in the same order.
    """
    total = leaf_total(inst)
    for length in range(1, total + 1):
        yield from partitions_with_length(total, length, g, max_size)


def leaf_total(inst: SetCoverInstance) -> int:
    """Leaves of every pattern tree: n for a plain cover, p for a partial
    one.  At 0 the optimum is 0 and no host or tree is needed."""
    return inst.p if inst.variant == PARTIAL else inst.n


def _large_indices(inst: SetCoverInstance, g: int) -> list[int]:
    """Sets too large for the pattern trees: |S|g^2 > n for a plain cover,
    |S|g^2 >= p for a partial one."""
    if g < 2:
        raise PreconditionError(f"g >= 2 required, got {g}")
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


def _extract_cover_indices(bundle, tree, mapping):
    """Sets named by the images of the star centers, or None when a center
    landed on a node of the wrong kind.

    The star centers are the nodes after the anchors that have leaves:
    grouped stars hang from anchor 1 and name a g-subset node, remainder
    stars hang from the root and name a set node.  A center's kind and set
    are read off the host's node-id ranges, not its roles.
    """
    base_mg = bundle.n + bundle.m
    chosen = set()
    for v in range(4, tree.k):
        if not tree.children[v]:
            continue
        u = mapping[v]
        if tree.parent[v] == 1 and 0 <= u - base_mg < len(bundle.combos):
            chosen.update(bundle.combos[u - base_mg])
        elif tree.parent[v] == 0 and bundle.n <= u < base_mg:
            chosen.add(u - bundle.n)
        else:
            return None
    return sorted(chosen)


@dataclass
class PreprocessOutcome:
    """Split result: the best solution forced through a removed large set
    (when any exists) plus the residual instance of small sets only."""

    solved_with_large: SolveResult | None
    residual: SetCoverInstance
    large_indices: list[int]
    residual_index_map: list[int]


def split_large_sets(inst: SetCoverInstance, g: int) -> tuple[SetCoverInstance, list, list]:
    """The residual instance of the sets small enough for the pattern trees
    (see _large_indices), the large sets' indices and the residual's index
    map into ``inst.sets``.  Runs no cover search."""
    large = _large_indices(inst, g)
    large_set = set(large)
    # inst.sets is sorted, so the residual keeps the small sets in this order
    small = [j for j in range(inst.m) if j not in large_set]
    residual = SetCoverInstance(n=inst.n, sets=tuple(inst.sets[j] for j in small),
                                variant=inst.variant, p=inst.p)
    return residual, large, small


def setcover_preprocess_large(inst: SetCoverInstance, g: int) -> PreprocessOutcome:
    """Handle the sets too large for the pattern trees by guessing one of them.

    Large means |S|g^2 > n for a plain cover and |S|g^2 >= p for a partial
    one.  When some optimal solution uses a large set, the optimum is found
    here by trying each large set and running the cover search from its
    union up to the leaf total.  The residual instance (large sets removed)
    satisfies the size assumption and is returned either way.  Raises
    CapacityError when a large set is present and n exceeds the cover
    solvers' cap.
    """
    total = leaf_total(inst)
    residual, large, small = split_large_sets(inst, g)
    if not large or not total:
        return PreprocessOutcome(None, residual, large, small)
    _check_cap_n(inst.n)
    masks = inst.masks()
    best = None
    for j in large:
        opt, chosen, _ = kernels.cover_optimum(masks, inst.n, total, covered=masks[j])
        if opt is None:
            continue
        if best is None or 1 + opt < best[0]:
            best = (1 + opt, sorted({j} | set(chosen)))
    solved = None
    if best is not None:
        solved = SolveResult("optimum", optimum=best[0], certificate=best[1])
    return PreprocessOutcome(solved, residual, large, small)


def ppc_preprocess_large(inst: SetCoverInstance, g: int) -> PreprocessOutcome:
    """setcover_preprocess_large for a partial-variant instance."""
    _require_partial(inst)
    return setcover_preprocess_large(inst, g)


def solve_setcover_via_ktree(inst: SetCoverInstance, g: int,
                             budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Optimum size of a plain or a partial cover: large-set preprocessing,
    then one pattern tree per partition of the leaf total, embedded in the
    residual instance's host.

    The stars carry one leaf per element to cover, n for a plain cover and
    p for a partial one; leaves map injectively into element nodes, so an
    embedding covers at least that many elements.  Partitions are tried in
    ascending part count, and the first that embeds gives the optimum; the
    trees stop at the optimum preprocessing found, which wins a tie.  Only
    the partitions whose stars can embed are generated: a grouped star
    (g parts) has at most g * max_size leaves and a remainder star at most
    max_size, max_size being the largest residual set's size; a larger star
    outgrows every element neighborhood its center can map to.
    build_host_graph admits the host before any tree is tried.  The trees
    share ``budget``, and BudgetExceededError names all of it.

    ``stats`` hold ``trees_tried`` and the embedder's summed ``explored``.
    """
    pre = setcover_preprocess_large(inst, g)
    # preprocessing's answer stands unless a tree of fewer parts embeds
    best = pre.solved_with_large or SolveResult("infeasible")
    best.stats = stats = {"trees_tried": 0, "explored": 0}
    total = leaf_total(inst)
    if total == 0:
        return SolveResult("optimum", optimum=0, certificate=[], stats=stats)
    residual = pre.residual
    bundle = build_host_graph(residual, g)
    max_size = max((len(s) for s in residual.sets), default=0)
    partitions = leaf_partitions(residual, g, max_size)
    if len(set().union(*residual.sets)) < total:
        # a star leaf standing for an uncovered element can never map
        partitions = ()
    for alpha in partitions:
        if best.optimum is not None and len(alpha) >= best.optimum:
            break
        tree = build_pattern_tree(alpha, g, inst.n)
        stats["trees_tried"] += 1
        try:
            res = tree_embed_backtrack(bundle, tree, budget=budget - stats["explored"])
        except BudgetExceededError:
            raise BudgetExceededError(f"embedding search exceeded {budget} expansions") from None
        stats["explored"] += res.stats["explored"]
        if res.is_yes:
            indices = _extract_cover_indices(bundle, tree, res.certificate)
            cert = None
            if indices is not None and verify_cover(residual, indices):
                cert = [pre.residual_index_map[j] for j in indices]
            return SolveResult("optimum", optimum=len(alpha), certificate=cert, stats=stats)
    return best


def solve_ppc_via_ktree(inst: SetCoverInstance, g: int,
                        budget: int = DEFAULT_BUDGET) -> SolveResult:
    """solve_setcover_via_ktree for a partial-variant instance."""
    _require_partial(inst)
    return solve_setcover_via_ktree(inst, g, budget)
