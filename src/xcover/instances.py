"""Core instance types, their text formats, and seeded generators.

Elements and nodes are 0-based everywhere.  All values are immutable after
construction and canonicalized in ``__post_init__`` (sorted sets, sorted
edges), so structural equality is meaningful and serialization round-trips
byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator

from xcover.errors import FormatError, PreconditionError

PLAIN = "plain"
EXACT = "exact"
PARTIAL = "partial"

UND = "und"
FWD = "fwd"
REV = "rev"


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
        norm = tuple(sorted(tuple(sorted(set(s))) for s in self.sets))
        object.__setattr__(self, "sets", norm)
        for s in norm:
            for e in s:
                if not 0 <= e < self.n:
                    raise ValueError(f"element {e} out of range [0, {self.n})")
        if self.variant not in (PLAIN, EXACT, PARTIAL):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == PARTIAL:
            if self.p is None or not 0 <= self.p <= self.n:
                raise ValueError("partial variant needs 0 <= p <= n")
        elif self.p is not None:
            raise ValueError("p is only meaningful for the partial variant")
        if self.delta is not None:
            for s in norm:
                if len(s) > self.delta:
                    raise ValueError(f"set of size {len(s)} exceeds delta={self.delta}")

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
    """

    num_nodes: int
    edges: frozenset[tuple[int, int]]
    undirected_mode: bool = False

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError("node count must be non-negative")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if self.undirected_mode and u > v:
                u, v = v, u
            norm.add((u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def _succ(self) -> tuple[tuple[int, ...], ...]:
        adj = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].add(v)
            if self.undirected_mode:
                adj[v].add(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _pred(self) -> tuple[tuple[int, ...], ...]:
        adj = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[v].add(u)
            if self.undirected_mode:
                adj[u].add(v)
        return tuple(tuple(sorted(a)) for a in adj)

    def successors(self, u: int) -> tuple[int, ...]:
        return self._succ[u]

    def predecessors(self, u: int) -> tuple[int, ...]:
        return self._pred[u]

    @cached_property
    def _nbr(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(set(s) | set(p))) for s, p in zip(self._succ, self._pred))

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._nbr[u]

    def along(self, u: int, orient: str) -> tuple[int, ...]:
        """Where a tree edge of orientation ``orient`` leaving a node placed
        at ``u`` can end: successors, predecessors, or either for ``und``."""
        if orient == FWD:
            return self._succ[u]
        if orient == REV:
            return self._pred[u]
        return self._nbr[u]

    def has_arc(self, u: int, v: int) -> bool:
        """True when an edge usable in direction u -> v exists."""
        if (u, v) in self.edges:
            return True
        return self.undirected_mode and (v, u) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


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
        if self.parent[self.root] != -1:
            raise ValueError("parent[root] must be -1")
        kinds = set()
        for v in range(k):
            if v == self.root:
                continue
            p = self.parent[v]
            if not 0 <= p < k:
                raise ValueError(f"parent of node {v} out of range")
            o = self.orientation[v]
            if o not in (UND, FWD, REV):
                raise ValueError(f"bad orientation {o!r} at node {v}")
            kinds.add(o)
        if UND in kinds and len(kinds) > 1:
            raise ValueError("orientation must be uniform: all und or all oriented")
        # reachability from the root certifies a single connected tree
        seen = [False] * k
        seen[self.root] = True
        stack = [self.root]
        kids = self.children
        while stack:
            u = stack.pop()
            for c in kids[u]:
                if seen[c]:
                    raise ValueError("parent array contains a cycle")
                seen[c] = True
                stack.append(c)
        if not all(seen):
            raise ValueError("parent array does not connect all nodes to the root")

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids = [[] for _ in range(self.k)]
        for v in range(self.k):
            if v != self.root:
                kids[self.parent[v]].append(v)
        return tuple(tuple(sorted(c)) for c in kids)

    @cached_property
    def post_order(self) -> tuple[int, ...]:
        """Every node after its children, the root last; the children of a
        node are finished in descending id."""
        out = []
        stack = [(self.root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                out.append(v)
                continue
            stack.append((v, True))
            for c in self.children[v]:
                stack.append((c, False))
        return tuple(out)

    @property
    def oriented(self) -> bool:
        return self.k > 1 and self.orientation[self._first_non_root()] != UND

    def _first_non_root(self) -> int:
        return 0 if self.root != 0 else 1

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
    source_k: int
    l: int


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

_SET_KINDS = {"setcover": PLAIN, "exactcover": EXACT, "partialcover": PARTIAL}


def _content_lines(text):
    """Yield (line_no, line) skipping comment lines and the final newline artifact."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    for i, raw in enumerate(raw_lines, start=1):
        line = raw.rstrip("\r")
        if line.startswith("c"):
            continue
        yield i, line


def _parse_int(tok, line_no, what):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"expected integer {what}, got {tok!r}", line_no) from None


def parse_instance(text, kind=None):
    """Parse one instance record; ``kind`` (when given) must match the header.

    Formats (UTF-8, LF, one record per line, ``c ...`` comments ignored)::

        p setcover <n> <m>        then m lines of element indices
        p exactcover <n> <m>      same body
        p partialcover <n> <m> <p>
        p digraph <n> <m>         then m lines "u v"
        p graph <n> <m>           undirected variant
        p tree <k>                then k-1 lines "parent child [fwd|rev]"
    """
    lines = list(_content_lines(text))
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
    n = _parse_int(toks[2], head_no, "n")
    m = _parse_int(toks[3], head_no, "m")
    p = _parse_int(toks[4], head_no, "p") if header_kind == "partialcover" else None
    if len(body) != m:
        raise FormatError(f"expected {m} set lines, found {len(body)}",
                          body[-1][0] if body else head_no)
    sets = []
    for line_no, line in body:
        elems = [_parse_int(t, line_no, "element index") for t in line.split()]
        for e in elems:
            if not 0 <= e < n:
                raise FormatError(f"element index {e} out of range [0, {n})", line_no)
        sets.append(tuple(elems))
    variant = _SET_KINDS[header_kind]
    if variant == PARTIAL and not 0 <= p <= n:
        raise FormatError(f"coverage target p={p} out of range [0, {n}]", head_no)
    return SetCoverInstance(n=n, sets=tuple(sets), variant=variant, p=p)


def _parse_graph(header_kind, toks, head_no, body):
    if len(toks) != 4:
        raise FormatError(f"malformed {header_kind} header", head_no)
    n = _parse_int(toks[2], head_no, "n")
    m = _parse_int(toks[3], head_no, "m")
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}",
                          body[-1][0] if body else head_no)
    undirected = header_kind == "graph"
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
    return Digraph(num_nodes=n, edges=frozenset(edges), undirected_mode=undirected)


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
    roots = [v for v in range(k) if parent[v] == -2]
    if len(roots) != 1:
        raise FormatError(f"expected exactly one parentless node, found {len(roots)}", head_no)
    root = roots[0]
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
        lines += [f"{u} {v}" for u, v in value.sorted_edges()]
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
      setcover / exactcover / partialcover: n, m, max_set_size, [p], [distinct]
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


def _random_setcover(rng, variant, n, m, max_set_size, p=None, distinct=False):
    if max_set_size > n:
        raise PreconditionError("max_set_size exceeds the ground set size")
    if max_set_size < 1 or m < 0:
        raise PreconditionError("need max_set_size >= 1 and m >= 0")
    if distinct:
        available = sum(comb(n, s) for s in range(1, max_set_size + 1))
        if available < m:
            raise PreconditionError(
                f"only {available} distinct nonempty sets of size <= {max_set_size} exist")
    sets = []
    seen = set()
    while len(sets) < m:
        size = rng.randint(1, max_set_size)
        s = tuple(sorted(rng.sample(range(n), size)))
        if distinct:
            if s in seen:
                continue
            seen.add(s)
        sets.append(s)
    return SetCoverInstance(n=n, sets=tuple(sets), variant=variant, p=p)


def _random_graph(rng, undirected, n, edge_probability):
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
    if k == 1:
        return PatternTree(k=1, root=0, parent=(-1,), orientation=(UND,))
    if k == 2:
        adj = {0: [1], 1: [0]}
    else:
        code = [rng.randrange(k) for _ in range(k - 2)]
        degree = [1] * k
        for x in code:
            degree[x] += 1
        adj = {v: [] for v in range(k)}
        import heapq

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
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pool = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return Digraph(num_nodes=n, edges=frozenset(edges)), order


def _planted_embedding(rng, k, host_n, oriented=True, extra_edge_probability=0.0):
    if host_n < k:
        raise PreconditionError("host must have at least k nodes")
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
    if not oriented:
        edges = {(min(u, v), max(u, v)) for u, v in edges}
    host = Digraph(num_nodes=host_n, edges=frozenset(edges), undirected_mode=not oriented)
    return host, tree, mapping


def _planted_cover(rng, n, m, max_set_size=None):
    if max_set_size is None:
        max_set_size = max(1, (n + m - 1) // max(m, 1))
    if m * max_set_size < n:
        raise PreconditionError("m sets of max_set_size elements cannot cover the universe")
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


def iter_instances(text) -> Iterator:
    """Parse a concatenation of records (headers delimit)."""
    chunks = []
    current = []
    for _, line in _content_lines(text):
        if line.startswith("p ") and current and any(l.strip() for l in current):
            chunks.append("\n".join(current))
            current = [line]
        else:
            current.append(line)
    if any(l.strip() for l in current):
        chunks.append("\n".join(current))
    for chunk in chunks:
        yield parse_instance(chunk)
