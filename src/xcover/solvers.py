"""Exact solvers and brute-force oracles used as pipeline endpoints.

The cover and Hamiltonicity solvers and the kTree decider's tree sieve run
on ``xcover.kernels``; a kTree "yes" is certified by the backtracking tree
embedder.  The brute-force oracles are deliberately independent
implementations so differential tests never compare a kernel against
itself.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

from xcover import kernels
from xcover.errors import BudgetExceededError, CapacityError, PreconditionError
from xcover.instances import (
    EXACT,
    FWD,
    PARTIAL,
    REV,
    REVERSED,
    Digraph,
    PatternTree,
    SetCoverInstance,
)

DEFAULT_CAP_N = 24
MAX_CAP_N = 32
DEFAULT_CAP_M_BRUTE = 20
DEFAULT_CAP_HAM = 22
DEFAULT_CAP_K = 16
DEFAULT_BUDGET = 10 ** 8
# The embedder recurses once per internal node of the pattern (``_place``)
# and once per leaf group on an augmenting path (``_augment``); capping their
# sum keeps the search 200 frames under Python's default recursion limit.
MAX_EMBED_DEPTH = 800


def cap_n() -> int:
    """Ground-set width cap of the cover solvers; XCOVER_CAP_N overrides
    the default of 24.

    The override must be an integer of at most MAX_CAP_N and is rejected
    up front otherwise: the partial cover search keeps one visited byte
    per possible union, 2^n bytes (16 MB at n = 24, 4 GB at n = 32),
    shared by its two passes, however few unions it reaches.  Plain and
    exact cover keep only the unions they reach.
    """
    raw = os.environ.get("XCOVER_CAP_N")
    if raw is None:
        return DEFAULT_CAP_N
    try:
        cap = int(raw)
    except ValueError:
        raise PreconditionError(f"XCOVER_CAP_N={raw!r} is not an integer") from None
    if cap > MAX_CAP_N:
        raise PreconditionError(f"XCOVER_CAP_N={cap} exceeds the kernels' limit of {MAX_CAP_N}")
    return cap


@dataclass
class SolveResult:
    answer: str  # "yes" | "no" | "optimum" | "infeasible"
    optimum: int | None = None
    certificate: object = None
    stats: dict = field(default_factory=dict)  # deterministic counters, never timings

    @property
    def is_yes(self) -> bool:
        return self.answer == "yes"


def _check_cap_n(n):
    cap = cap_n()
    if n > cap:
        raise CapacityError(f"ground set of {n} elements exceeds the DP cap of {cap}")


# ---------------------------------------------------------------------------
# certificate checkers
# ---------------------------------------------------------------------------


def verify_cover(inst: SetCoverInstance, indices) -> bool:
    """The named sets cover every element, or at least p of them for a
    partial-variant instance; on an exact-variant instance no two of them
    share an element."""
    got, exact = set(), inst.variant == EXACT
    for j in indices:
        if not 0 <= j < inst.m:
            return False
        if exact and not got.isdisjoint(inst.sets[j]):
            return False
        got.update(inst.sets[j])
    if inst.variant == PARTIAL:
        return len(got) >= inst.p
    return got == set(range(inst.n))


def verify_ham_cycle(G: Digraph, order) -> bool:
    n = G.num_nodes
    if n < 2 or sorted(order) != list(range(n)):
        return False
    return all(G.has_arc(order[i], order[(i + 1) % n]) for i in range(n))


def verify_embedding(G: Digraph, T: PatternTree, mapping) -> bool:
    if set(mapping.keys()) != set(range(T.k)):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if not all(0 <= u < G.num_nodes for u in images):
        return False
    for p, v, o in T.edge_list():
        hp, hv = mapping[p], mapping[v]
        if o == FWD:
            ok = G.has_arc(hp, hv)
        elif o == REV:
            ok = G.has_arc(hv, hp)
        else:
            ok = G.has_arc(hp, hv) or G.has_arc(hv, hp)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# set cover family
# ---------------------------------------------------------------------------


def setcover_dp(inst: SetCoverInstance) -> SolveResult:
    """Minimum cover by a breadth-first search over the reachable unions,
    each grown by the sets holding its lowest missing element.

    ``stats["explored"]`` is the number of unions the kernel reached; an
    instance whose sets do not cover the ground set stops before it, at 0.
    """
    _check_cap_n(inst.n)
    masks = inst.masks()
    full = inst.full_mask()
    union = 0
    for s in masks:
        union |= s
    if union != full:
        return SolveResult("infeasible", stats={"explored": 0})
    opt, chosen, states = kernels.cover_optimum(masks, inst.n, inst.n)
    return SolveResult("optimum", optimum=opt, certificate=chosen,
                       stats={"explored": states})


def setcover_bruteforce(inst: SetCoverInstance) -> SolveResult:
    """Oracle: enumerate sub-collections by increasing cardinality.

    Honours the variant: the union must hold all n elements, at least p
    for a partial cover (p = 0 takes no set), and an exact cover's sets
    must also be pairwise disjoint.  Independent of the DP kernels.
    Duplicate sets are collapsed before enumeration (the representative's
    original index is reported); an exact cover cannot use both copies.
    """
    seen = {}
    for j, s in enumerate(inst.sets):
        seen.setdefault(tuple(s), j)
    reps = sorted(seen.values())
    if len(reps) > DEFAULT_CAP_M_BRUTE:
        raise CapacityError(
            f"{len(reps)} distinct sets exceed the brute-force cap of {DEFAULT_CAP_M_BRUTE}")
    target = inst.p if inst.variant == PARTIAL else inst.n
    exact = inst.variant == EXACT
    union = set()
    for j in reps:
        union.update(inst.sets[j])
    if len(union) < target:
        return SolveResult("infeasible", stats={"explored": 0})
    explored = 0
    for c in range(0, len(reps) + 1):
        for combo in itertools.combinations(reps, c):
            explored += 1
            got = set()
            for j in combo:
                got.update(inst.sets[j])
            if len(got) < target:
                continue
            if exact and sum(len(inst.sets[j]) for j in combo) != len(got):
                continue
            return SolveResult("optimum", optimum=c, certificate=list(combo),
                               stats={"explored": explored})
    return SolveResult("infeasible", stats={"explored": explored})


def exactcover_solve(inst: SetCoverInstance) -> SolveResult:
    """Minimum number of pairwise-disjoint sets covering the ground set.

    The cover search of ``setcover_dp`` with each union grown only by sets
    disjoint from it.  ``stats["explored"]`` is the number of unions the
    kernel reached.
    """
    if inst.variant != EXACT:
        raise PreconditionError("exactcover_solve expects an exact-variant instance")
    _check_cap_n(inst.n)
    opt, chosen, states = kernels.exact_cover_optimum(inst.masks(), inst.n)
    if opt is None:
        return SolveResult("infeasible", stats={"explored": states})
    return SolveResult("optimum", optimum=opt, certificate=chosen,
                       stats={"explored": states})


def exactcover_with_large_sets(inst: SetCoverInstance, delta: int) -> SolveResult:
    """Exact cover split: guess the disjoint family of sets larger than delta.

    Every disjoint sub-collection of the >delta sets is tried; the elements
    it leaves uncovered are solved over the small sets alone.  Agrees with
    exactcover_solve on all inputs.  A family that leaves elements
    uncovered is solved only when a small set disjoint from it has the
    lowest uncovered element as its own lowest, which is the kernel's
    first-layer test; ``stats["explored"]`` counts the families either way.
    """
    if inst.variant != EXACT:
        raise PreconditionError("exactcover_with_large_sets expects an exact-variant instance")
    _check_cap_n(inst.n)
    masks = inst.masks()
    large = [j for j, s in enumerate(inst.sets) if len(s) > delta]
    small_masks = [0 if len(s) > delta else mask for s, mask in zip(inst.sets, masks)]
    full = inst.full_mask()
    by_low = {}  # lowest element's bit -> the small sets with that lowest element
    for s in small_masks:
        if s:
            by_low.setdefault(s & -s, []).append(s)
    best: tuple[int, list[int]] | None = None
    explored = 0

    def rec(i, covered, chosen_large):
        nonlocal best, explored
        explored += 1
        low = ~covered & (covered + 1)
        if covered == full or any(not s & covered for s in by_low.get(low, ())):
            opt, chosen, _ = kernels.exact_cover_optimum(small_masks, inst.n, covered)
            if opt is not None and (best is None or len(chosen_large) + opt < best[0]):
                best = (len(chosen_large) + opt, sorted(chosen_large + chosen))
        for t in range(i, len(large)):
            j = large[t]
            if masks[j] & covered:
                continue
            rec(t + 1, covered | masks[j], chosen_large + [j])

    rec(0, 0, [])
    if best is None:
        return SolveResult("infeasible", stats={"explored": explored})
    return SolveResult("optimum", optimum=best[0], certificate=best[1],
                       stats={"explored": explored})


def partialcover_dp(inst: SetCoverInstance) -> SolveResult:
    """Minimum number of sets covering at least p elements.

    ``stats["explored"]`` is the number of unions the kernel kept.  An
    instance whose sets hold fewer than p elements together is decided
    before the search, at 1 (the empty union); p = 0 takes no set, at 0.
    """
    if inst.variant != PARTIAL:
        raise PreconditionError("partialcover_dp expects a partial-variant instance")
    _check_cap_n(inst.n)
    p = inst.p
    if p == 0:
        return SolveResult("optimum", optimum=0, certificate=[], stats={"explored": 0})
    opt, chosen, states = kernels.cover_optimum(inst.masks(), inst.n, p)
    if opt is None:
        return SolveResult("infeasible", stats={"explored": states})
    return SolveResult("optimum", optimum=opt, certificate=chosen,
                       stats={"explored": states})


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


def heldkarp_ham(G: Digraph) -> SolveResult:
    """Directed Hamiltonian cycle decision by subset DP over visited sets.

    ``stats.explored`` counts the visited sets the DP reached from node 0,
    {0} included.
    """
    n = G.num_nodes
    if n > DEFAULT_CAP_HAM:
        raise CapacityError(f"{n} nodes exceed the Hamiltonicity cap of {DEFAULT_CAP_HAM}")
    order, states = kernels.ham_cycle(G.masks_along[FWD], G.masks_along[REV], n)
    if order is None:
        return SolveResult("no", stats={"explored": states})
    return SolveResult("yes", certificate=order, stats={"explored": states})


# ---------------------------------------------------------------------------
# tree embedding by pruned backtracking
# ---------------------------------------------------------------------------


def tree_embed_backtrack(G: Digraph, T: PatternTree,
                         budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Injective embedding of T into G.

    Of its host the search reads only ``num_nodes``, ``masks_along`` and
    ``at_least`` (see Digraph): a Digraph, or the sc->kTree host that
    build_host_graph keeps as those tables alone.

    Tree edges must map to host arcs matching their orientation (any
    direction when T is undirected).  Internal nodes are placed by DFS in
    pre-order, the larger subtrees of a node first (ties by node id).
    Identical sibling subtrees (shape and orientations) take ascending
    hosts, and a node is tried only on hosts with, along each orientation,
    at least as many nodes as it has tree edges along it; ``stats`` and
    ``budget`` count in this order.  The interchangeable leaf children form
    leaf groups (one parent, one orientation, one host pool); each group is
    one slot whose capacity is its leaf count, held as one mask of its hosts
    in a b-matching that each placement repairs with augmenting searches (a
    placement is pruned when no b-matching fills the groups of placed
    parents) and that a backtrack restores from a copy of the masks taken
    before the placement.  Two Hall tests run before the repair: once per
    node, the hosts of every component of the placed groups with no free
    host to spare leave its candidates; per candidate, a placement whose new
    groups' merged component has fewer free hosts than leaves is dropped.
    The candidates are checked one at a time as they are tried, since the
    search returns at its first success; when the first new group's pool
    meets only tight components, the check is decided from two masks, the
    pool's hosts outside the tight components against the group's leaves,
    with no merge.  Once every internal node is placed, the hosts each group
    holds, ascending, go to its leaves in ascending id order.  This keeps
    star-heavy patterns from exploding.

    ``stats["explored"]`` counts budget units: one per host along the edge
    from an internal node's placed parent (every host for the root), in
    ascending order, hosts that the used, twin, degree and tight-component
    filters skip included, one per group fill (a newly placed group taking
    free hosts of its pool, counted only after the Hall check passes) and
    one per group expanded by an augmenting search.  A candidate the Hall
    check drops spends nothing itself; its host's unit is charged in bulk
    by the next candidate that passes or at the end of the node's
    candidates, so the count is that of one charge per host.  Raises
    BudgetExceededError once more than ``budget`` units would be spent, and
    CapacityError, before the search, on a pattern whose internal nodes and
    leaf groups together exceed MAX_EMBED_DEPTH.
    """
    searcher = _EmbedSearch(G, T, budget)
    mapping = searcher.run()
    stats = {"explored": searcher.explored}
    if mapping is None:
        return SolveResult("no", stats=stats)
    return SolveResult("yes", certificate=mapping, stats=stats)


class _EmbedSearch:
    """One search of tree_embed_backtrack; see there for the order and units."""

    def __init__(self, G, T, budget):
        self.G = G
        self.T = T
        self.budget = budget
        self.explored = 0
        self._plan()
        self.assign = {}
        self.used_mask = 0  # the hosts of the placed internal nodes
        # (free hosts at merge time, leaf demand) per component of the placed
        # groups, linked when their free pools meet (see _hall); a component
        # with no free host to spare is tested once per placement, by
        # _tight_hosts, and the new groups' merge once per candidate
        self.comps = ()
        # group matching kept across placements (see _extend_matching), the
        # leaves' hosts once the search ends (see _leaf_mapping), one mask
        # per group: ``group_pool`` the hosts its leaves may take, set when
        # its parent is placed (``used_mask`` is checked on use), ``held``
        # the hosts it holds; ``matched`` is the union of ``held``, and
        # ``_place`` marks the pair by a copy, which ``_rollback`` restores
        self.group_pool = [0] * len(self.group_leaves)
        self.held = [0] * len(self.group_leaves)
        self.matched = 0

    def _plan(self):
        """Read the tree in one post-order and one pre-order pass.

        Free leaves are childless non-root nodes; the other, internal nodes
        are placed by DFS in ``order``.  A leaf group is the free leaf
        children of one parent with one orientation, so they share one host
        pool.  ``groups`` maps a parent to its [(group, the host masks along
        the group's orientation, its leaf count)], and ``group_leaves`` a
        group to its leaves.  Raises CapacityError, before any search, when
        the internal nodes and leaf groups together exceed MAX_EMBED_DEPTH.
        """
        G, T = self.G, self.T
        k, root, children, orientation = T.k, T.root, T.children, T.orientation
        self.groups, self.group_leaves = {}, []
        # shape[v]: one id per shape of an internal node's subtree,
        # orientations at every node included; equal ids mean
        # interchangeable subtrees.  A leaf child enters its parent's shape
        # as its group's (orientation, leaf count).
        size, shape, shapes = [1] * k, [0] * k, {}
        # eligible[v]: the hosts with, along each orientation, as many nodes
        # as ``need`` holds, v's tree edges leaving it along it (its parent
        # edge of orientation o is one along ``REVERSED[o]``); entry n of the
        # degree tables (no host) stands for every need >= n
        n, at_least = G.num_nodes, G.at_least
        self.eligible = {}
        for v in T.post_order:
            kids = children[v]
            if not kids and v != root:
                continue
            need = {} if v == root else {REVERSED[orientation[v]]: 1}
            inner, leaves = [], {}
            for c in kids:
                o = orientation[c]
                need[o] = need.get(o, 0) + 1
                if children[c]:
                    inner.append(shape[c])
                    size[v] += size[c]
                else:
                    leaves.setdefault(o, []).append(c)
            mask = (1 << n) - 1
            for o, c in need.items():
                mask &= at_least[o][min(c, n)]
            self.eligible[v] = mask
            inner.sort()
            for o, group in leaves.items():
                size[v] += len(group)
                self.groups.setdefault(v, []).append(
                    (len(self.group_leaves), G.masks_along[o], len(group)))
                self.group_leaves.append(group)
            inner += sorted((o, len(group)) for o, group in leaves.items())
            shape[v] = shapes.setdefault((orientation[v], tuple(inner)), len(shapes))
        depth = len(self.eligible) + len(self.group_leaves)
        if depth > MAX_EMBED_DEPTH:
            raise CapacityError(f"pattern with {depth} internal nodes and leaf groups exceeds "
                                f"the embedder's cap of {MAX_EMBED_DEPTH}")
        # placement order; a twin takes a higher host than its earlier twin
        self.order, self.twin_prev = [], {}
        stack = [root]
        while stack:
            v = stack.pop()
            self.order.append(v)
            kids = sorted((c for c in children[v] if children[c]), key=lambda c: (-size[c], c))
            last = {}
            for c in kids:
                if shape[c] in last:
                    self.twin_prev[c] = last[shape[c]]
                last[shape[c]] = c
            stack.extend(reversed(kids))

    def _charge(self, units):
        """Spend ``units`` budget units; every unit of the search goes through here."""
        self.explored += units
        if self.explored > self.budget:
            raise BudgetExceededError(f"embedding search exceeded {self.budget} expansions")

    def run(self):
        return self._place(0)

    def _place(self, idx):
        if idx == len(self.order):
            return self._leaf_mapping()
        v = self.order[idx]
        G, T = self.G, self.T
        if v == T.root:
            adj = (1 << G.num_nodes) - 1
        else:
            adj = G.masks_along[T.orientation[v]][self.assign[T.parent[v]]]
        floor = self.assign[self.twin_prev[v]] if v in self.twin_prev else -1
        used_mask, comps, new = self.used_mask, self.comps, self.groups.get(v, ())
        # a unit per host of ``adj``, ascending, skipped ones (used, at most
        # the twin's host, short of v's degree needs, or in a tight
        # component) included: ``charged`` counts the hosts paid for, each
        # candidate that passes the Hall check paying up to its own
        tight, slack = self._tight_hosts(comps, used_mask)
        cands = adj & self.eligible[v] & ~used_mask & (-1 << (floor + 1)) & ~tight
        charged, hall = 0, self._hall
        along, demand = new[0][1:] if new else ((), 0)
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            now_used = used_mask | low
            # _hall's test of the first new group, decided here when its
            # pool meets no component with slack (``slack`` holds free hosts
            # only, and u is not along itself): the tight ones it meets
            # bring as many free hosts as leaves, so only its hosts outside
            # them count against its leaves
            if new and not along[u] & slack and (
                    along[u] & ~(now_used | tight)).bit_count() < demand:
                continue
            placed = hall(comps, now_used, u, new)
            if placed is None:
                continue
            at = (adj & (low - 1)).bit_count() + 1
            self._charge(at - charged)
            charged = at
            self.used_mask, self.comps = now_used, placed
            mark = self.held[:], self.matched
            self.assign[v] = u
            if self._extend_matching(v, u):
                result = self._place(idx + 1)
                if result is not None:
                    return result
            self._rollback(mark)
            del self.assign[v]
        self.used_mask, self.comps = used_mask, comps
        self._charge(adj.bit_count() - charged)
        return None

    @staticmethod
    def _tight_hosts(comps, used_mask):
        """The hosts of the components with no free host to spare, and the
        free hosts of the components with slack, as two masks.

        A component of the placed groups keeps at least as many free hosts
        as leaves (see _hall); when it keeps exactly as many, a node placed
        on one of its hosts leaves it one short, so by Hall's theorem no
        b-matching fills its groups.  ``_place`` drops these hosts from its
        candidates once per frame, before any candidate is tried, and
        decides _hall's test from the two masks for a candidate whose first
        new group's pool meets no component with slack.
        """
        tight, slack, free = 0, 0, ~used_mask
        for mask, demand in comps:
            if (mask & free).bit_count() <= demand:
                tight |= mask
            else:
                slack |= mask & free
        return tight, slack

    @staticmethod
    def _hall(comps, used, u, new):
        """The components of the placed leaf groups once the node whose
        groups are ``new`` takes host ``u`` (``used`` holds u), or None when
        a new group's merged component has fewer free hosts than leaves.

        By Hall's theorem for b-matchings no matching then fills the groups,
        so ``_extend_matching`` would fail; any union of groups proves this,
        so the components need not be minimal.  The placed components that
        hold u are not tested here: ``_tight_hosts`` has already taken the
        hosts of every component that u would leave short out of the
        candidates.  A new group's free pool merges the components it
        meets: linking by free hosts only keeps the internal nodes' hosts,
        which sit in most pools, from joining every group into one.  The
        merged component is counted before the list is rebuilt, so a
        rejection allocates nothing.
        """
        free = ~used
        for _, along, demand in new:
            pool = mask = along[u] & free
            for m, d in comps:
                if m & pool:
                    mask |= m
                    demand += d
            if (mask & free).bit_count() < demand:
                return None
            comps = [c for c in comps if not c[0] & pool]
            comps.append((mask, demand))
        return comps

    def _extend_matching(self, v, u):
        """Repair the group matching after placing ``v`` at ``u``.

        The matching is a b-matching: a leaf group holds as many hosts of its
        pool as it has leaves.  Before the placement every group of a placed
        parent is full, so by Berge's theorem one failed augmenting search
        (for the group that lost host ``u``, or for one of v's new groups)
        proves that no b-matching fills every group; a pool only loses hosts
        deeper in the search, so the branch is dead.  Hall's condition holds
        over the groups exactly when it holds over their leaves, so this
        prunes what a matching of single leaves would.

        ``_place`` calls this only for a placement that passed ``_hall``, so
        a group fill is charged its unit only then; the augmenting searches
        stay the decider, since the components' counts miss Hall violations
        of a part of a component.
        """
        held, low = self.held, 1 << u
        if self.matched & low:
            self.matched ^= low
            displaced = next(g for g, mask in enumerate(held) if mask & low)
            held[displaced] ^= low
            if not self._augment(displaced, {displaced}):
                return False
        for g, along, missing in self.groups.get(v, ()):
            pool = self.group_pool[g] = along[u]
            self._charge(1)
            free = pool & ~(self.used_mask | self.matched)
            take = free
            if take.bit_count() > missing:  # the lowest ``missing`` free hosts
                for _ in range(missing):
                    free &= free - 1
                take ^= free
            held[g] = take
            self.matched |= take
            for _ in range(missing - take.bit_count()):
                if not self._augment(g, {g}):
                    return False
        return True

    def _augment(self, g, visited):
        """Augmenting path that gives group ``g`` one more unused host.

        ``visited`` holds the groups this search has expanded, ``g`` among
        them, so each pool is scanned at most once per search.  The pool's
        free hosts come first, the lowest taken; then its hosts held by
        other groups, ascending, each holder expanded in turn.
        """
        self._charge(1)
        held, pool = self.held, self.group_pool[g]
        free = pool & ~(self.used_mask | self.matched)
        if free:
            low = free & -free
            held[g] |= low
            self.matched |= low
            return True
        hosts = pool & ~(self.used_mask | held[g])
        while hosts:
            low = hosts & -hosts
            hosts ^= low
            holder = next(h for h, mask in enumerate(held) if mask & low)
            if holder in visited:
                continue
            visited.add(holder)
            if self._augment(holder, visited):
                held[holder] ^= low
                held[g] |= low
                return True
        return False

    def _rollback(self, mark):
        """Restore the matching to ``mark``, a copy of ``held`` and ``matched``;
        a mark is restored at most once, so its copy is taken over."""
        self.held, self.matched = mark

    def _leaf_mapping(self):
        """The embedding once every internal node is placed: each group's
        held hosts, ascending, go to its leaves, in ascending id order.

        Every group is full then (see _extend_matching), and no held host
        is used: a placement takes its host out of the matching first, and
        the augmenting searches skip used hosts.
        """
        mapping = dict(self.assign)
        for leaves, hosts in zip(self.group_leaves, self.held):
            for leaf in leaves:
                low = hosts & -hosts
                hosts ^= low
                mapping[leaf] = low.bit_length() - 1
        return mapping


# ---------------------------------------------------------------------------
# kTree: the tree sieve decides, the embedder certifies
# ---------------------------------------------------------------------------


def sieve_runs(k: int, failure_prob: float) -> int:
    """The fewest sieve runs r with ((2k - 1) / 2^16)^r <= failure_prob."""
    if not 0 < failure_prob < 1:
        raise PreconditionError("failure_prob must lie in (0, 1)")
    return max(1, math.ceil(math.log(failure_prob) / math.log((2 * k - 1) / 65536)))


def certificate_budget(n: int, k: int) -> int:
    """The units ``ktree_colorcoding`` lets the embedder spend on the whole
    host of n nodes, for a pattern of k nodes, before it self-reduces."""
    return n << k


def ktree_colorcoding(G: Digraph, T: PatternTree, failure_prob: float = 0.01,
                      seed: int = 0, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Monte-Carlo tree embedding whose only possible error is a false no.

    ``sieve_runs(k, failure_prob)`` runs of ``kernels.tree_sieve``, run i
    seeded with ``f"tree_sieve {seed} {i}"``, answer no if all give 0.  A
    nonzero run proves that an embedding exists, so the runs stop there and
    ``tree_embed_backtrack`` on the whole host, capped at min(budget,
    certificate_budget(n, k)) units, gives the certificate.  Only when
    that cap runs out does the sieve self-reduce first: each host in turn
    is dropped while the sieve on the rest stays nonzero, and the embedder
    runs on the hosts left under ``budget``.  ``stats`` hold ``explored``,
    the units of the embedder run that gave the certificate (0 on a no),
    and ``sieve_runs``, the sieve runs made, those of the self-reduction
    included.  Raises PreconditionError unless 0 < failure_prob < 1, and
    BudgetExceededError before the first sieve pass when the 2^k passes of
    each run exceed ``budget``.
    """
    k = T.k
    if k > DEFAULT_CAP_K:
        raise CapacityError(
            f"pattern of {k} nodes exceeds the tree sieve cap of {DEFAULT_CAP_K}")
    runs = sieve_runs(k, failure_prob)
    n = G.num_nodes
    if k > n:
        return SolveResult("no", stats={"explored": 0, "sieve_runs": 0})
    if k == 1:
        return SolveResult("yes", certificate={T.root: 0}, stats={"explored": 0, "sieve_runs": 0})
    if runs << k > budget:
        raise BudgetExceededError(
            f"ktree plans {runs << k} sieve passes, more than the budget of {budget}")
    # per tree node, the host masks of the edge above it (the root's is unused)
    edge_adj = [None if v == T.root else G.masks_along[o] for v, o in enumerate(T.orientation)]

    def sieve(hosts, run):
        return kernels.tree_sieve(k, T.post_order, T.parent, edge_adj, hosts,
                                  f"tree_sieve {seed} {run}")

    alive = (1 << n) - 1
    sieved = next((r + 1 for r in range(runs) if sieve(alive, r)), 0)
    if not sieved:
        return SolveResult("no", stats={"explored": 0, "sieve_runs": runs})
    try:
        found = tree_embed_backtrack(G, T, min(budget, certificate_budget(n, k)))
    except BudgetExceededError:
        for v in range(n):
            if alive.bit_count() == k:
                break
            if sieve(alive ^ 1 << v, sieved):
                alive ^= 1 << v
            sieved += 1
        # the dropped hosts keep no arcs, so no tree edge can reach them
        found = tree_embed_backtrack(Digraph(n, frozenset(
            (u, w) for u, w in G.edges if alive >> u & alive >> w & 1), G.undirected_mode),
            T, budget)
    assert found.is_yes, "a nonzero sieve proves that an embedding exists"
    return SolveResult("yes", certificate=found.certificate,
                       stats={"explored": found.stats["explored"], "sieve_runs": sieved})
