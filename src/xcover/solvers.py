"""Exact solvers and brute-force oracles used as pipeline endpoints.

The subset-DP solvers run on the selected kernel backend; the brute-force
oracles are deliberately independent implementations so differential tests
never compare a kernel against itself.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, field

from xcover import kernels
from xcover.errors import BudgetExceededError, CapacityError, PreconditionError
from xcover.instances import EXACT, FWD, PARTIAL, REV, UND, Digraph, PatternTree, SetCoverInstance

DEFAULT_CAP_N = 24
MAX_CAP_N = 32
DEFAULT_CAP_M_BRUTE = 20
DEFAULT_CAP_HAM = 22
DEFAULT_CAP_K = 16
DEFAULT_BUDGET = 10 ** 8


def cap_n() -> int:
    """Subset-DP width cap; XCOVER_CAP_N overrides the default of 24.

    The override must be an integer of at most MAX_CAP_N: the compiled
    kernels keep element sets in 32-bit masks, which wider ground sets
    would overflow without notice.
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
    stats: dict = field(default_factory=dict)

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
    partial-variant instance."""
    got = set()
    for j in indices:
        if not 0 <= j < inst.m:
            return False
        got.update(inst.sets[j])
    if inst.variant == PARTIAL:
        return len(got) >= inst.p
    return got == set(range(inst.n))


def verify_exact_cover(inst: SetCoverInstance, indices) -> bool:
    got = set()
    for j in indices:
        if not 0 <= j < inst.m:
            return False
        s = set(inst.sets[j])
        if got & s:
            return False
        got |= s
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
    """Minimum cover via subset DP over all 2^n element unions."""
    _check_cap_n(inst.n)
    start = time.perf_counter()
    masks = inst.masks()
    full = inst.full_mask()
    union = 0
    for s in masks:
        union |= s
    if union != full:
        return SolveResult("infeasible", stats=_stats(start, 0))
    res = kernels.cover_optimum(masks, inst.n, inst.n)
    opt, chosen = res
    return SolveResult("optimum", optimum=opt, certificate=chosen,
                       stats=_stats(start, 1 << inst.n))


def setcover_bruteforce(inst: SetCoverInstance, cap_m: int = DEFAULT_CAP_M_BRUTE) -> SolveResult:
    """Oracle: enumerate sub-collections by increasing cardinality.

    Independent of the DP kernels.  Duplicate sets are collapsed before
    enumeration (the representative's original index is reported).
    """
    start = time.perf_counter()
    seen = {}
    for j, s in enumerate(inst.sets):
        seen.setdefault(tuple(s), j)
    reps = sorted(seen.values())
    if len(reps) > cap_m:
        raise CapacityError(f"{len(reps)} distinct sets exceed the brute-force cap of {cap_m}")
    universe = set(range(inst.n))
    union = set()
    for j in reps:
        union.update(inst.sets[j])
    if union != universe:
        return SolveResult("infeasible", stats=_stats(start, 0))
    explored = 0
    for c in range(0, len(reps) + 1):
        for combo in itertools.combinations(reps, c):
            explored += 1
            got = set()
            for j in combo:
                got.update(inst.sets[j])
            if got == universe:
                return SolveResult("optimum", optimum=c, certificate=list(combo),
                                   stats=_stats(start, explored))
    return SolveResult("infeasible", stats=_stats(start, explored))


def exactcover_solve(inst: SetCoverInstance) -> SolveResult:
    """Minimum number of pairwise-disjoint sets covering the ground set."""
    if inst.variant != EXACT:
        raise PreconditionError("exactcover_solve expects an exact-variant instance")
    _check_cap_n(inst.n)
    start = time.perf_counter()
    res = kernels.exact_cover_optimum(inst.masks(), inst.n)
    if res is None:
        return SolveResult("infeasible", stats=_stats(start, 1 << inst.n))
    opt, chosen = res
    return SolveResult("optimum", optimum=opt, certificate=chosen,
                       stats=_stats(start, 1 << inst.n))


def exactcover_with_large_sets(inst: SetCoverInstance, delta: int) -> SolveResult:
    """Exact cover split: guess the disjoint family of sets larger than delta.

    Every disjoint sub-collection of the >delta sets is tried; the residual
    elements are solved over the remaining small sets.  Agrees with
    exactcover_solve on all inputs.
    """
    if inst.variant != EXACT:
        raise PreconditionError("exactcover_with_large_sets expects an exact-variant instance")
    _check_cap_n(inst.n)
    start = time.perf_counter()
    masks = inst.masks()
    large = [j for j, s in enumerate(inst.sets) if len(s) > delta]
    small = [j for j, s in enumerate(inst.sets) if len(s) <= delta]
    full = inst.full_mask()
    best: tuple[int, list[int]] | None = None
    explored = 0

    def residual_solve(covered, chosen_large):
        nonlocal best, explored
        explored += 1
        rest = full & ~covered
        positions = [e for e in range(inst.n) if rest >> e & 1]
        remap = {e: i for i, e in enumerate(positions)}
        sub_masks = []
        sub_index = []
        for j in small:
            s = masks[j]
            if s & covered:
                continue
            sub_masks.append(sum(1 << remap[e] for e in inst.sets[j]))
            sub_index.append(j)
        res = kernels.exact_cover_optimum(sub_masks, len(positions))
        if res is None:
            return
        opt, chosen = res
        total = len(chosen_large) + opt
        if best is None or total < best[0]:
            best = (total, sorted(chosen_large + [sub_index[j] for j in chosen]))

    def rec(i, covered, chosen_large):
        residual_solve(covered, chosen_large)
        for t in range(i, len(large)):
            j = large[t]
            if masks[j] & covered:
                continue
            rec(t + 1, covered | masks[j], chosen_large + [j])

    rec(0, 0, [])
    if best is None:
        return SolveResult("infeasible", stats=_stats(start, explored))
    return SolveResult("optimum", optimum=best[0], certificate=best[1],
                       stats=_stats(start, explored))


def partialcover_dp(inst: SetCoverInstance) -> SolveResult:
    """Minimum number of sets covering at least p elements."""
    if inst.variant != PARTIAL:
        raise PreconditionError("partialcover_dp expects a partial-variant instance")
    _check_cap_n(inst.n)
    start = time.perf_counter()
    p = inst.p
    if p == 0:
        return SolveResult("optimum", optimum=0, certificate=[], stats=_stats(start, 0))
    res = kernels.cover_optimum(inst.masks(), inst.n, p)
    if res is None:
        return SolveResult("infeasible", stats=_stats(start, 1 << inst.n))
    opt, chosen = res
    return SolveResult("optimum", optimum=opt, certificate=chosen,
                       stats=_stats(start, 1 << inst.n))


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


def heldkarp_ham(G: Digraph, cap: int = DEFAULT_CAP_HAM) -> SolveResult:
    """Directed Hamiltonian cycle decision by subset DP over visited sets."""
    n = G.num_nodes
    if n > cap:
        raise CapacityError(f"{n} nodes exceed the Hamiltonicity cap of {cap}")
    start = time.perf_counter()
    if n < 2:
        return SolveResult("no", stats=_stats(start, 0))
    succ = [0] * n
    for u in range(n):
        for v in G.successors(u):
            succ[u] |= 1 << v
    order = kernels.ham_cycle(succ, n)
    if order is None:
        return SolveResult("no", stats=_stats(start, 1 << n))
    return SolveResult("yes", certificate=order, stats=_stats(start, 1 << n))


# ---------------------------------------------------------------------------
# tree embedding by pruned backtracking
# ---------------------------------------------------------------------------


def tree_embed_backtrack(G: Digraph, T: PatternTree, pins=None, forbidden=None,
                         budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Injective embedding of T into G extending ``pins``, avoiding ``forbidden``.

    Tree edges must map to host arcs matching their orientation (any
    direction when T is undirected).  Internal nodes are placed by DFS with
    degree pruning and symmetric-sibling ordering; the interchangeable leaf
    children are kept in a bipartite matching that each placement repairs
    with augmenting paths (a placement is pruned when no matching saturates
    the leaves of placed parents), and are assigned at the end by one
    deterministic matching pass.  This keeps star-heavy patterns from
    exploding.

    ``stats["explored"]`` counts budget units: one per placement candidate
    tried for an internal node and one per augmenting-path step.  Raises
    BudgetExceededError once more than ``budget`` units would be spent.
    """
    pins = dict(pins or {})
    forbidden = set(forbidden or ())
    if len(set(pins.values())) != len(pins):
        raise PreconditionError("pins must be injective")
    for v, u in pins.items():
        if not 0 <= v < T.k:
            raise PreconditionError(f"pinned tree node {v} out of range")
        if not 0 <= u < G.num_nodes:
            raise PreconditionError(f"pinned image {u} out of range")
        if u in forbidden:
            raise PreconditionError(f"pinned image {u} is forbidden")
    start = time.perf_counter()
    searcher = _EmbedSearch(G, T, pins, forbidden, budget)
    mapping = searcher.run()
    stats = _stats(start, searcher.explored)
    if mapping is None:
        return SolveResult("no", stats=stats)
    return SolveResult("yes", certificate=mapping, stats=stats)


class _EmbedSearch:
    def __init__(self, G, T, pins, forbidden, budget):
        self.G = G
        self.T = T
        self.pins = pins
        self.pin_images = set(pins.values())
        self.forbidden = forbidden
        self.budget = budget
        self.explored = 0
        self.k = T.k
        self.children = T.children
        self.sub_size = self._subtree_sizes()
        self.has_pin_below = self._pins_below()
        # free leaves are unpinned childless nodes; everything else is placed by DFS
        self.is_free_leaf = [
            v != T.root and not self.children[v] and v not in pins for v in range(self.k)
        ]
        self.leaf_groups = self._leaf_groups()
        self.order, self.twin_prev = self._internal_order()
        self.need = self._degree_needs()
        self.host_caps = self._host_caps()
        self.assign = {}
        self.used = set()
        # leaf matching kept across placements (see _extend_matching)
        self.blocked = forbidden | self.pin_images
        self.leaf_pool = {}  # free leaf -> hosts it may take; ``used`` is checked on use
        self.match = {}  # host -> free leaf
        self.undo = []  # (host, previous leaf or None), replayed backwards on backtrack

    def _subtree_sizes(self):
        size = [1] * self.k
        for v in self.T.post_order:
            for c in self.children[v]:
                size[v] += size[c]
        return size

    def _pins_below(self):
        below = [v in self.pins for v in range(self.k)]
        for v in self.T.post_order:
            for c in self.children[v]:
                below[v] = below[v] or below[c]
        return below

    def _leaf_groups(self):
        """parent -> [(orientation, free leaf children with that orientation)]."""
        groups = {}
        for v in range(self.k):
            by_orient = {}
            for c in self.children[v]:
                if self.is_free_leaf[c]:
                    by_orient.setdefault(self.T.orientation[c], []).append(c)
            if by_orient:
                groups[v] = list(by_orient.items())
        return groups

    def _canon(self, v):
        return (
            self.T.orientation[v],
            self.pins.get(v, -1),
            tuple(sorted(self._canon(c) for c in self.children[v])),
        )

    def _internal_order(self):
        order = []
        twin_prev = {}
        stack = [self.T.root]
        while stack:
            v = stack.pop()
            order.append(v)
            kids = [c for c in self.children[v] if not self.is_free_leaf[c]]
            kids.sort(key=lambda c: (-self.sub_size[c], c))
            # identical unpinned sibling subtrees are interchangeable: demand
            # ascending host images to kill permutation symmetry
            canon_of = {c: self._canon(c) for c in kids}
            by_canon = {}
            for c in kids:
                if not self.has_pin_below[c]:
                    prev = by_canon.get(canon_of[c])
                    if prev is not None:
                        twin_prev[c] = prev
                    by_canon[canon_of[c]] = c
            for c in reversed(kids):
                stack.append(c)
        return order, twin_prev

    def _degree_needs(self):
        need = []
        for v in range(self.k):
            out_n = in_n = und_n = 0
            edges = [(self.T.orientation[c], "child") for c in self.children[v]]
            if v != self.T.root:
                edges.append((self.T.orientation[v], "parent"))
            for o, role in edges:
                if o == UND:
                    und_n += 1
                elif (o == FWD and role == "child") or (o == REV and role == "parent"):
                    out_n += 1
                else:
                    in_n += 1
            need.append((out_n, in_n, und_n))
        return need

    def _host_caps(self):
        caps = []
        for u in range(self.G.num_nodes):
            out_d = len(self.G.successors(u))
            in_d = len(self.G.predecessors(u))
            und_d = len(self.G.neighbors(u))
            caps.append((out_d, in_d, und_d))
        return caps

    def _capacity_ok(self, v, u):
        out_n, in_n, und_n = self.need[v]
        out_d, in_d, und_d = self.host_caps[u]
        if und_n and und_d < und_n:
            return False
        return out_d >= out_n and in_d >= in_n

    def _tick(self):
        self.explored += 1
        if self.explored > self.budget:
            raise BudgetExceededError(f"embedding search exceeded {self.budget} expansions")

    def run(self):
        return self._place(0)

    def _place(self, idx):
        if idx == len(self.order):
            return self._match_leaves()
        v = self.order[idx]
        if v == self.T.root:
            cands = [self.pins[v]] if v in self.pins else range(self.G.num_nodes)
        else:
            up = self.assign[self.T.parent[v]]
            cands = self.G.along(up, self.T.orientation[v])
            if v in self.pins:
                cands = [u for u in cands if u == self.pins[v]]
        floor = -1
        if v in self.twin_prev:
            floor = self.assign[self.twin_prev[v]]
        for u in cands:
            self._tick()
            if u in self.used or u <= floor:
                continue
            if v in self.pins:
                if u != self.pins[v]:
                    continue
            elif u in self.blocked:
                continue
            if not self._capacity_ok(v, u):
                continue
            mark = len(self.undo)
            self.assign[v] = u
            self.used.add(u)
            if self._extend_matching(v, u):
                result = self._place(idx + 1)
                if result is not None:
                    return result
            self._rollback(mark)
            del self.assign[v]
            self.used.remove(u)
        return None

    def _extend_matching(self, v, u):
        """Repair the leaf matching after placing ``v`` at ``u``.

        Before the placement every leaf slot of a placed parent is matched,
        so by Berge's theorem one failed augmenting path (from the leaf that
        lost host ``u``, or from one of v's new leaves) proves that no
        matching saturates all slots; pools only shrink deeper in the
        search, so the branch is dead.
        """
        displaced = self.match.pop(u, None)
        if displaced is not None:
            self.undo.append((u, displaced))
            if not self._augment(displaced, set()):
                return False
        for o, leaves in self.leaf_groups.get(v, ()):
            pool = tuple(w for w in self.G.along(u, o) if w not in self.blocked)
            for leaf in leaves:
                self.leaf_pool[leaf] = pool
                if not self._augment(leaf, set()):
                    return False
        return True

    def _augment(self, leaf, visited):
        """Augmenting path from the unmatched ``leaf`` over unused hosts."""
        self._tick()
        pool, match, used = self.leaf_pool[leaf], self.match, self.used
        for w in pool:
            if w not in match and w not in used:
                self.undo.append((w, None))
                match[w] = leaf
                return True
        for w in pool:
            if w in visited or w in used:
                continue
            visited.add(w)
            holder = match[w]
            if self._augment(holder, visited):
                self.undo.append((w, holder))
                match[w] = leaf
                return True
        return False

    def _rollback(self, mark):
        undo, match = self.undo, self.match
        while len(undo) > mark:
            w, leaf = undo.pop()
            if leaf is None:
                del match[w]
            else:
                match[w] = leaf

    def _match_leaves(self):
        """Final leaf assignment, independent of the search's matching.

        Slots go smallest pool first (ties by leaf id) and augment over
        sorted pools, so the mapping depends only on the placement of the
        internal nodes.  The search guarantees that a perfect matching exists.
        """
        slots = sorted(
            ((leaf, [w for w in sorted(pool) if w not in self.used])
             for leaf, pool in self.leaf_pool.items()),
            key=lambda s: (len(s[1]), s[0]))
        matched = {}

        def augment(i, visited):
            self._tick()
            for w in slots[i][1]:
                if w in visited:
                    continue
                visited.add(w)
                if w not in matched or augment(matched[w], visited):
                    matched[w] = i
                    return True
            return False

        for i in range(len(slots)):
            augment(i, set())
        mapping = dict(self.assign)
        mapping.update((slots[i][0], w) for w, i in matched.items())
        return mapping


# ---------------------------------------------------------------------------
# color coding
# ---------------------------------------------------------------------------


def colorcoding_trials(k: int, failure_prob: float) -> int:
    """Trial count so that missing an existing embedding has prob <= failure_prob."""
    if not 0 < failure_prob < 1:
        raise PreconditionError("failure_prob must lie in (0, 1)")
    return math.ceil(math.exp(k) * math.log(1 / failure_prob))


def ktree_colorcoding(G: Digraph, T: PatternTree, failure_prob: float = 0.01,
                      seed: int = 0, cap_k: int = DEFAULT_CAP_K) -> SolveResult:
    """Monte-Carlo tree embedding with one-sided error.

    Each trial colors the host with k colors exactly; a trial succeeds when
    a colorful embedding exists (per-trial success probability at least
    k!/k^k >= e^-k for yes-instances), so ceil(e^k * ln(1/failure_prob))
    trials bound the false-no probability by failure_prob.  Yes answers
    carry an embedding verified by verify_embedding.
    """
    k = T.k
    if k > cap_k:
        raise CapacityError(f"pattern of {k} nodes exceeds the color-coding cap of {cap_k}")
    start = time.perf_counter()
    n = G.num_nodes
    if k > n:
        return SolveResult("no", stats=_stats(start, 0, trials=0))
    if k == 1:
        return SolveResult("yes", certificate={T.root: 0}, stats=_stats(start, 0, trials=0))
    trials = colorcoding_trials(k, failure_prob)
    post = T.post_order
    orient_code = [0] * k
    for v in range(k):
        if v != T.root:
            orient_code[v] = {UND: 0, FWD: 1, REV: 2}[T.orientation[v]]
    out_adj = [0] * n
    in_adj = [0] * n
    for u in range(n):
        for v in G.successors(u):
            out_adj[u] |= 1 << v
        for v in G.predecessors(u):
            in_adj[u] |= 1 << v
    parent = list(T.parent)
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        colors = [rng.randrange(k) for _ in range(n)]
        root_host = kernels.colorful_trial_yes(k, post, parent, orient_code,
                                               out_adj, in_adj, colors)
        if root_host >= 0:
            mapping = _colorful_reconstruct(T, post, out_adj, in_adj, colors, root_host)
            if mapping is not None and verify_embedding(G, T, mapping):
                return SolveResult("yes", certificate=mapping,
                                   stats=_stats(start, t + 1, trials=t + 1))
    return SolveResult("no", stats=_stats(start, trials, trials=trials))


def _colorful_reconstruct(T, post, out_adj, in_adj, colors, root_host):
    """Re-run one successful trial storing merge stages, then extract a map."""
    k = T.k
    n = len(colors)
    full = (1 << k) - 1
    fam = [[{1 << colors[u]} for u in range(n)] for _ in range(k)]
    stages = [[[set(fam[v][u]) for u in range(n)]] for v in range(k)]
    merged = [[] for _ in range(k)]

    def allowed(u, child):
        o = T.orientation[child]
        if o == FWD:
            ws = out_adj[u]
        elif o == REV:
            ws = in_adj[u]
        else:
            ws = out_adj[u] | in_adj[u]
        out = []
        while ws:
            w = (ws & -ws).bit_length() - 1
            ws &= ws - 1
            out.append(w)
        return out

    root = post[-1]
    for v in post:
        if v == root:
            break
        p = T.parent[v]
        for u in range(n):
            cur = fam[p][u]
            if not cur:
                continue
            acc = set()
            for w in allowed(u, v):
                for b in fam[v][w]:
                    for a in cur:
                        if a & b == 0:
                            acc.add(a | b)
            fam[p][u] = acc
        merged[p].append(v)
        stages[p].append([set(fam[p][u]) for u in range(n)])
    if full not in fam[root][root_host]:
        return None

    def extract(v, u, mask, stage):
        if stage == 0:
            return {v: u} if mask == 1 << colors[u] else None
        child = merged[v][stage - 1]
        for a in sorted(stages[v][stage - 1][u]):
            if a & mask != a:
                continue
            b = mask ^ a
            if not b:
                continue
            for w in allowed(u, child):
                if b not in fam[child][w]:
                    continue
                sub = extract(child, w, b, len(merged[child]))
                if sub is None:
                    continue
                rest = extract(v, u, a, stage - 1)
                if rest is None:
                    continue
                rest.update(sub)
                return rest
        return None

    return extract(root, root_host, full, len(merged[root]))


def _stats(start, explored, **extra):
    stats = {"explored": explored, "wall_time": time.perf_counter() - start}
    stats.update(extra)
    return stats
