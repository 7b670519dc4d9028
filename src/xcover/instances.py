"""Core instance types, their text formats, and seeded generators.

Elements and nodes are 0-based everywhere.  All values are immutable after
construction and canonicalized in ``__post_init__`` (sorted sets, sorted
edges), so structural equality is meaningful and serialization round-trips
byte-identically.
"""

from __future__ import annotations

import heapq
import operator
import random
from dataclasses import dataclass
from functools import cached_property

from xcover.errors import CapacityError, FormatError, PreconditionError

PLAIN = "plain"
EXACT = "exact"
PARTIAL = "partial"

UND = "und"
FWD = "fwd"
REV = "rev"
# the orientation of a tree edge seen from its child's end
REVERSED = {FWD: REV, REV: FWD, UND: UND}
# a host's adjacency tables take O(n^2) bits; masks_along refuses larger hosts
MAX_HOST_NODES = 1 << 15
# the random and planted graph generators draw (or list) once per node pair;
# past this many pairs they refuse before the first draw
MAX_GENERATED_PAIRS = 1 << 22


@dataclass(frozen=True)
class SetCoverInstance:
    """Ground set [0, n) plus an ordered list of element subsets.

    ``variant`` is one of ``plain`` / ``exact`` / ``partial`` (the latter
    carries the coverage target ``p``).  ``delta`` optionally records a
    max-set-size bound.  Duplicate sets are kept; within each set indices
    are strictly increasing and the set list itself is sorted.
    """

    n: int
    sets: tuple[tuple[int, ...], ...]
    variant: str = PLAIN
    p: int | None = None
    delta: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("element count must be non-negative")
        n = self.n
        norm = [tuple(sorted(set(s))) for s in self.sets]
        norm.sort()
        norm = tuple(norm)
        object.__setattr__(self, "sets", norm)
        # each set is sorted, so its ends decide whether it is in range, and
        # the empty sets sort first, so the first non-empty one holds the
        # least element
        ends = [s[-1] for s in norm if s]
        if ends and (norm[-len(ends)][0] < 0 or max(ends) >= n):
            # the first out-of-range element in set order is reported
            for s in norm:
                if s and (s[0] < 0 or s[-1] >= n):
                    e = s[0] if s[0] < 0 else next(e for e in s if e >= n)
                    raise ValueError(f"element {e} out of range [0, {n})")
        if self.variant not in (PLAIN, EXACT, PARTIAL):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == PARTIAL:
            if self.p is None or not 0 <= self.p <= self.n:
                raise ValueError("partial variant needs 0 <= p <= n")
        elif self.p is not None:
            raise ValueError("p is only meaningful for the partial variant")
        if self.delta is not None and max(map(len, norm), default=0) > self.delta:
            size = next(len(s) for s in norm if len(s) > self.delta)
            raise ValueError(f"set of size {size} exceeds delta={self.delta}")

    @property
    def m(self) -> int:
        return len(self.sets)

    def masks(self) -> list[int]:
        """Per-set element bitmasks."""
        out = []
        for s in self.sets:
            mask = 0
            for e in s:
                mask |= 1 << e
            out.append(mask)
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1


@dataclass(frozen=True)
class Digraph:
    """Node-indexed adjacency over nodes [0, num_nodes).

    In directed mode ``edges`` are ordered pairs and anti-parallel pairs are
    allowed.  With ``undirected_mode`` every stored pair (normalized u < v)
    also implies the reverse.  Self-loops are rejected.

    The searches of the solvers and reductions read adjacency through
    ``masks_along``, per orientation a tuple of per-node bitmasks that maps
    a tree edge's orientation onto host arcs, and ``at_least``, which
    counts those arcs per node.  Both are built from ``edges`` on first
    use, all orientations at once; an undirected host's three orientations
    are one relation, so it files one tuple under all three.  The kTree
    self-reduction reads ``edges`` to build the host it keeps, and
    ``has_arc`` reads ``edges`` too, so the certificate checkers built on
    it stay independent of the table the solvers search.
    """

    num_nodes: int
    edges: frozenset[tuple[int, int]]
    undirected_mode: bool = False

    def __post_init__(self):
        n, undirected = self.num_nodes, self.undirected_mode
        if n < 0:
            raise ValueError("node count must be non-negative")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if undirected and u > v:
                u, v = v, u
            norm.add((u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def masks_along(self) -> dict[str, tuple[int, ...]]:
        """Orientation -> per node u, the bitmask of the nodes where a tree
        edge of that orientation leaving a node placed at u can end:
        successors for ``fwd``, predecessors for ``rev``, either for ``und``.
        Raises CapacityError, before building anything, on a host of more
        than MAX_HOST_NODES nodes."""
        if self.num_nodes > MAX_HOST_NODES:
            raise CapacityError(f"host of {self.num_nodes} nodes exceeds the adjacency "
                                f"table cap of {MAX_HOST_NODES}")
        fwd = [0] * self.num_nodes
        # an undirected edge files both of its ends in one list
        rev = fwd if self.undirected_mode else [0] * self.num_nodes
        for u, v in self.edges:
            fwd[u] |= 1 << v
            rev[v] |= 1 << u
        if self.undirected_mode:
            return dict.fromkeys(REVERSED, tuple(fwd))
        return {FWD: tuple(fwd), REV: tuple(rev), UND: tuple(map(int.__or__, fwd, rev))}

    @cached_property
    def at_least(self) -> dict[str, tuple[int, ...]]:
        """Orientation -> per count c in [0, num_nodes], the bitmask of the
        nodes with at least c nodes along it.  No node has num_nodes, so a
        larger count reads entry num_nodes."""
        # an undirected host's orientations share one tuple, so one table
        built = {}
        for masks in self.masks_along.values():
            if id(masks) not in built:
                built[id(masks)] = degree_table(masks)
        return {o: built[id(masks)] for o, masks in self.masks_along.items()}

    def has_arc(self, u: int, v: int) -> bool:
        """True when an edge usable in direction u -> v exists."""
        if (u, v) in self.edges:
            return True
        return self.undirected_mode and (v, u) in self.edges


def degree_table(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Per count c in [0, len(masks)], the bitmask of the nodes u whose
    ``masks[u]`` has at least c bits set: the ``at_least`` table of one
    orientation, for a Digraph and for the sc->kTree host's layout alike."""
    n = len(masks)
    table = [0] * (n + 1)
    for u, mask in enumerate(masks):
        table[mask.bit_count()] |= 1 << u
    for c in range(n - 1, -1, -1):
        table[c] |= table[c + 1]
    return tuple(table)


@dataclass(frozen=True)
class PatternTree:
    """Rooted tree on k nodes with an optional uniform edge orientation.

    ``parent[v]`` gives each non-root node's parent (-1 at the root);
    ``orientation[v]`` describes the edge parent[v] -- v: ``und``,
    ``fwd`` (directed parent -> child) or ``rev``.  Either every edge is
    ``und`` or none is.
    """

    k: int
    root: int
    parent: tuple[int, ...]
    orientation: tuple[str, ...]

    def __post_init__(self):
        k = self.k
        if k < 1:
            raise ValueError("a tree has at least one node")
        if not 0 <= self.root < k:
            raise ValueError("root out of range")
        if len(self.parent) != k or len(self.orientation) != k:
            raise ValueError("parent/orientation arrays must have length k")
        root, parent = self.root, self.parent
        if parent[root] != -1:
            raise ValueError("parent[root] must be -1")
        others = parent[:root] + parent[root + 1:]
        kinds = {*self.orientation[:root], *self.orientation[root + 1:]}
        if others and (min(others) < 0 or max(others) >= k) or not kinds <= {UND, FWD, REV}:
            # the first bad node is reported
            for v in range(k):
                if v != root:
                    if not 0 <= parent[v] < k:
                        raise ValueError(f"parent of node {v} out of range")
                    if self.orientation[v] not in (UND, FWD, REV):
                        raise ValueError(f"bad orientation {self.orientation[v]!r} at node {v}")
        if UND in kinds and len(kinds) > 1:
            raise ValueError("orientation must be uniform: all und or all oriented")
        # ids given parent-first from root 0 make a tree by construction:
        # every node's parent chain descends to 0
        if root == 0 and all(map(operator.lt, others, range(1, k))):
            return
        # every node has one parent, so the root reaches each node at most
        # once; a node on a cycle, or below one, is never reached
        reached, stack, kids = 1, [root], self.children
        while stack:
            below = kids[stack.pop()]
            reached += len(below)
            stack.extend(below)
        if reached < k:
            raise ValueError("parent array does not connect all nodes to the root")

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        # v ascends, so each node's children come out sorted; only the root
        # has no parent
        kids = [[] for _ in range(self.k)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return tuple(map(tuple, kids))

    @cached_property
    def post_order(self) -> tuple[int, ...]:
        """Every node after its children, the root last; the children of a
        node are finished in descending id."""
        # the reverse of the pre-order that visits children in ascending id;
        # a leaf's empty child tuple is never pushed
        out, stack, kids = [], [self.root], self.children
        while stack:
            v = stack.pop()
            out.append(v)
            if kids[v]:
                stack += kids[v][::-1]
        out.reverse()
        return tuple(out)

    def edge_list(self) -> list[tuple[int, int, str]]:
        """Edges as (parent, child, orientation), sorted by child id."""
        return [(self.parent[v], v, self.orientation[v]) for v in range(self.k) if v != self.root]

    def depths(self) -> list[int]:
        d = [0] * self.k
        stack = [self.root]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                d[c] = d[u] + 1
                stack.append(c)
        return d


@dataclass(frozen=True)
class SubtreeCover:
    """A family of (root, node-set) subtrees covering a pattern tree."""

    subtrees: tuple[tuple[int, frozenset[int]], ...]


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

_SET_KINDS = {"setcover": PLAIN, "exactcover": EXACT, "partialcover": PARTIAL}


def _content_lines(text):
    """The numbered lines of ``text``, a list of (line_no, line), without the
    empty string after a final newline, trailing carriage returns or comment
    lines; each filter runs only on a text that needs it."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text[:exc.start].count(b"\n") + 1
            raise FormatError(f"not UTF-8 text ({exc.reason})", line) from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    numbered = list(enumerate(lines, 1))
    if text.startswith("c") or "\nc" in text:
        numbered = [(i, line) for i, line in numbered if not line.startswith("c")]
    return numbered


def _parse_int(tok, line_no, what):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"expected integer {what}, got {tok!r}", line_no) from None


def _parse_count(tok, line_no, what):
    value = _parse_int(tok, line_no, what)
    if value < 0:
        raise FormatError(f"expected non-negative integer {what}, got {tok!r}", line_no)
    return value


def parse_instance(text, kind=None):
    """Parse one instance record; ``kind`` (when given) must match the header.

    Formats (UTF-8, LF, one record per line, ``c ...`` comments ignored)::

        p setcover <n> <m>        then m lines of element indices
        p exactcover <n> <m>      same body
        p partialcover <n> <m> <p>
        p digraph <n> <m>         then m lines "u v"
        p graph <n> <m>           undirected variant
        p tree <k>                then k-1 lines "parent child [fwd|rev]"

    The header is checked token by token.  A set or graph body is converted
    in one step and checked by the instance type it builds; only when that
    check fails does a loop over the body lines run, to name the first
    fault and its line.  A tree body is read line by line.  Every fault
    raises a FormatError that carries its line number.
    """
    lines = _content_lines(text)
    if not lines or lines[0][1] == "":
        raise FormatError("empty input", 1)
    head_no, head = lines[0]
    toks = head.split()
    if len(toks) < 2 or toks[0] != "p":
        raise FormatError("malformed header, expected 'p <kind> ...'", head_no)
    header_kind = toks[1]
    if kind is not None and header_kind != kind:
        raise FormatError(f"expected a {kind} record, found {header_kind!r}", head_no)
    body = lines[1:]
    if header_kind in _SET_KINDS:
        return _parse_setcover(header_kind, toks, head_no, body)
    if header_kind in ("digraph", "graph"):
        return _parse_graph(header_kind, toks, head_no, body)
    if header_kind == "tree":
        return _parse_tree(toks, head_no, body)
    raise FormatError(f"unknown record kind {header_kind!r}", head_no)


def _parse_setcover(header_kind, toks, head_no, body):
    want = 5 if header_kind == "partialcover" else 4
    if len(toks) != want:
        raise FormatError(f"malformed {header_kind} header", head_no)
    n = _parse_count(toks[2], head_no, "n")
    m = _parse_count(toks[3], head_no, "m")
    p = _parse_int(toks[4], head_no, "p") if header_kind == "partialcover" else None
    if len(body) != m:
        raise FormatError(f"expected {m} set lines, found {len(body)}",
                          body[-1][0] if body else head_no)
    try:
        # the instance checks the element range and p
        return SetCoverInstance(n, tuple([tuple(map(int, line.split())) for _, line in body]),
                                _SET_KINDS[header_kind], p)
    except ValueError:
        pass
    for line_no, line in body:
        for e in [_parse_int(t, line_no, "element index") for t in line.split()]:
            if not 0 <= e < n:
                raise FormatError(f"element index {e} out of range [0, {n})", line_no)
    if p is not None and not 0 <= p <= n:
        raise FormatError(f"coverage target p={p} out of range [0, {n}]", head_no)
    raise AssertionError("a set body that passes every line check failed the instance's")


def _parse_graph(header_kind, toks, head_no, body):
    if len(toks) != 4:
        raise FormatError(f"malformed {header_kind} header", head_no)
    n = _parse_count(toks[2], head_no, "n")
    m = _parse_count(toks[3], head_no, "m")
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}",
                          body[-1][0] if body else head_no)
    undirected = header_kind == "graph"
    try:
        # the graph checks self-loops and the node range, and merges
        # duplicate edges, so fewer edges than lines means one
        G = Digraph(n, [(int(u), int(v)) for _, line in body for u, v in [line.split()]],
                    undirected)
        if len(G.edges) == m:
            return G
    except ValueError:
        pass
    edges = set()
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected edge line '<u> <v>'", line_no)
        u = _parse_int(parts[0], line_no, "node")
        v = _parse_int(parts[1], line_no, "node")
        if u == v:
            raise FormatError(f"self-loop at node {u}", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) out of range [0, {n})", line_no)
        key = (min(u, v), max(u, v)) if undirected else (u, v)
        if key in edges:
            raise FormatError(f"duplicate edge ({u}, {v})", line_no)
        edges.add(key)
    raise AssertionError("an edge body that passes every line check failed the graph's")


def _parse_tree(toks, head_no, body):
    if len(toks) != 3:
        raise FormatError("malformed tree header", head_no)
    k = _parse_int(toks[2], head_no, "k")
    if k < 1:
        raise FormatError("tree needs at least one node", head_no)
    if len(body) != k - 1:
        raise FormatError(f"expected {k - 1} edge lines, found {len(body)}",
                          body[-1][0] if body else head_no)
    parent = [-2] * k
    orientation = [UND] * k
    for line_no, line in body:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError("expected '<parent> <child> [fwd|rev]'", line_no)
        p = _parse_int(parts[0], line_no, "parent")
        v = _parse_int(parts[1], line_no, "child")
        if not (0 <= p < k and 0 <= v < k):
            raise FormatError(f"node out of range [0, {k})", line_no)
        if parent[v] != -2:
            raise FormatError(f"node {v} has two parents", line_no)
        parent[v] = p
        if len(parts) == 3:
            if parts[2] not in (FWD, REV):
                raise FormatError(f"bad orientation token {parts[2]!r}", line_no)
            orientation[v] = parts[2]
    # k - 1 lines gave k - 1 distinct children, so one node has no parent
    root = parent.index(-2)
    parent[root] = -1
    try:
        return PatternTree(k=k, root=root, parent=tuple(parent),
                           orientation=tuple(orientation))
    except ValueError as exc:
        raise FormatError(f"non-tree parent array: {exc}", head_no) from None


def serialize_instance(value) -> str:
    """Canonical text rendering; round-trips through parse_instance."""
    if isinstance(value, SetCoverInstance):
        header = {PLAIN: "setcover", EXACT: "exactcover", PARTIAL: "partialcover"}[value.variant]
        head = f"p {header} {value.n} {value.m}"
        if value.variant == PARTIAL:
            head += f" {value.p}"
        lines = [head]
        lines += [" ".join(str(e) for e in s) for s in value.sets]
        return "\n".join(lines) + "\n"
    if isinstance(value, Digraph):
        header = "graph" if value.undirected_mode else "digraph"
        lines = [f"p {header} {value.num_nodes} {len(value.edges)}"]
        lines += [f"{u} {v}" for u, v in sorted(value.edges)]
        return "\n".join(lines) + "\n"
    if isinstance(value, PatternTree):
        lines = [f"p tree {value.k}"]
        for p, v, o in value.edge_list():
            lines.append(f"{p} {v}" if o == UND else f"{p} {v} {o}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_random(kind: str, seed: int = 0, **params):
    """Seeded random instance of the given kind.

    Kinds and their parameters:
      setcover / exactcover / partialcover: n, m, max_set_size, [p]
      digraph / graph: n, edge_probability
      tree: k, [oriented]
    """
    rng = random.Random(seed)
    if kind in _SET_KINDS:
        return _random_setcover(rng, _SET_KINDS[kind], **params)
    if kind in ("digraph", "graph"):
        return _random_graph(rng, kind == "graph", **params)
    if kind == "tree":
        return _random_tree(rng, **params)
    raise ValueError(f"unknown kind {kind!r}")


def _random_setcover(rng, variant, n, m, max_set_size, p=None):
    if variant == PARTIAL and (p is None or not 0 <= p <= n):
        raise PreconditionError(f"a partial cover needs 0 <= p <= n = {n}, got p = {p}")
    if max_set_size > n:
        raise PreconditionError("max_set_size exceeds the ground set size")
    if max_set_size < 1 or m < 0:
        raise PreconditionError("need max_set_size >= 1 and m >= 0")
    sets = []
    for _ in range(m):
        size = rng.randint(1, max_set_size)
        sets.append(tuple(sorted(rng.sample(range(n), size))))
    return SetCoverInstance(n=n, sets=tuple(sets), variant=variant, p=p)


def _require_probability(name, value):
    if not 0 <= value <= 1:
        raise PreconditionError(f"{name} must lie in [0, 1], got {value}")


def _refuse_pairs(pairs):
    if pairs > MAX_GENERATED_PAIRS:
        raise CapacityError(f"{pairs} node pairs exceed the generators' cap of "
                            f"{MAX_GENERATED_PAIRS}")


def _random_graph(rng, undirected, n, edge_probability):
    if n < 0:
        raise PreconditionError(f"node count must be non-negative, got {n}")
    _require_probability("edge probability", edge_probability)
    _refuse_pairs(n * (n - 1) // 2 if undirected else n * (n - 1))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n) if undirected else range(n):
            if u == v:
                continue
            if rng.random() < edge_probability:
                edges.add((u, v))
    return Digraph(num_nodes=n, edges=frozenset(edges), undirected_mode=undirected)


def _random_tree(rng, k, oriented=False):
    """Uniform labeled tree (Pruefer code) rooted at a uniform node."""
    if k < 1:
        raise PreconditionError(f"a tree has at least one node, got k = {k}")
    if k == 1:
        return PatternTree(k=1, root=0, parent=(-1,), orientation=(UND,))
    code = [rng.randrange(k) for _ in range(k - 2)]
    degree = [1] * k
    for x in code:
        degree[x] += 1
    adj = {v: [] for v in range(k)}
    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    root = rng.randrange(k)
    parent = [-2] * k
    parent[root] = -1
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if parent[w] == -2:
                parent[w] = u
                stack.append(w)
    orientation = [UND] * k
    if oriented:
        for v in range(k):
            if v != root:
                orientation[v] = rng.choice((FWD, REV))
    return PatternTree(k=k, root=root, parent=tuple(parent), orientation=tuple(orientation))


def gen_planted(kind: str, seed: int = 0, **params):
    """Seeded yes-instance plus a certificate the verifiers accept.

    Kinds: ham_cycle(n, extra_edges), embedded_tree(k, host_n, oriented,
    extra_edge_probability), covered_universe(n, m, max_set_size).
    """
    rng = random.Random(seed)
    if kind == "ham_cycle":
        return _planted_ham(rng, **params)
    if kind == "embedded_tree":
        return _planted_embedding(rng, **params)
    if kind == "covered_universe":
        return _planted_cover(rng, **params)
    raise ValueError(f"unknown kind {kind!r}")


def _planted_ham(rng, n, extra_edges=0):
    if n < 2:
        raise PreconditionError("a directed cycle needs at least 2 nodes")
    if extra_edges < 0:
        raise PreconditionError(f"extra edge count must be non-negative, got {extra_edges}")
    _refuse_pairs(n * (n - 1))
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    if extra_edges:  # the last draws: skipping them at 0 moves no output
        pool = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in edges]
        rng.shuffle(pool)
        edges.update(pool[:extra_edges])
    return Digraph(num_nodes=n, edges=frozenset(edges)), order


def _planted_embedding(rng, k, host_n, oriented=True, extra_edge_probability=0.0):
    if host_n < k:
        raise PreconditionError("host must have at least k nodes")
    _require_probability("extra edge probability", extra_edge_probability)
    _refuse_pairs(host_n * (host_n - 1))
    tree = _random_tree(rng, k, oriented=oriented)
    image = rng.sample(range(host_n), k)
    mapping = {v: image[v] for v in range(k)}
    edges = set()
    for p, v, o in tree.edge_list():
        if o == REV:
            edges.add((mapping[v], mapping[p]))
        else:
            edges.add((mapping[p], mapping[v]))
    for u in range(host_n):
        for v in range(host_n):
            if u != v and rng.random() < extra_edge_probability:
                edges.add((u, v))
    host = Digraph(num_nodes=host_n, edges=frozenset(edges), undirected_mode=not oriented)
    return host, tree, mapping


def _planted_cover(rng, n, m, max_set_size=None):
    if n < 1:
        raise PreconditionError(f"a planted cover needs n >= 1, got {n}")
    if max_set_size is None:
        max_set_size = max(1, (n + m - 1) // max(m, 1))
    if m * max_set_size < n:
        raise PreconditionError("m sets of max_set_size elements cannot cover the universe")
    # two negative sizes pass the product check
    if m < 1 or max_set_size < 1:
        raise PreconditionError(f"a planted cover needs m >= 1 and max_set_size >= 1, "
                                f"got m = {m} and max_set_size = {max_set_size}")
    assignment = [[] for _ in range(m)]
    slots = [i for i in range(m) for _ in range(max_set_size)]
    rng.shuffle(slots)
    elems = list(range(n))
    rng.shuffle(elems)
    for e in elems:
        assignment[slots.pop()].append(e)
    sets = []
    for base in assignment:
        extra = max_set_size - len(base)
        if extra > 0 and rng.random() < 0.5:
            pad = [x for x in rng.sample(range(n), min(n, max_set_size)) if x not in base]
            base = base + pad[:extra]
        sets.append(tuple(sorted(set(base))))
    sets = [s if s else (rng.randrange(n),) for s in sets]
    inst = SetCoverInstance(n=n, sets=tuple(sets))
    witness = [i for i in range(inst.m)]
    return inst, witness
