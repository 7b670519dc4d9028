"""The DP kernels and the color-coding trial against brute-force oracles."""

import itertools
import random

from xcover import kernels


def _subsets_by_size(m):
    for c in range(m + 1):
        yield from itertools.combinations(range(m), c)


def _union(masks, chosen):
    got = 0
    for j in chosen:
        got |= masks[j]
    return got


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_cover_optimum_matches_subset_enumeration():
    rng = random.Random(10)
    for _ in range(400):
        n = rng.randint(0, 10)
        m = rng.randint(0, 12)
        masks = [rng.getrandbits(n) for _ in range(m)]
        p = rng.randint(0, n)
        want = next((len(c) for c in _subsets_by_size(m)
                     if bin(_union(masks, c)).count("1") >= p), None)
        res = kernels.cover_optimum(masks, n, p)
        assert (res is None) == (want is None), (n, masks, p)
        if res is not None:
            assert res[0] == want
            assert len(res[1]) == res[0]
            assert bin(_union(masks, res[1])).count("1") >= p


def test_exact_cover_optimum_matches_disjoint_subset_enumeration():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 10)
        m = rng.randint(0, 12)
        masks = [rng.getrandbits(n) for _ in range(m)]
        full = (1 << n) - 1
        # the masks of c are pairwise disjoint exactly when their sum has no carry
        want = next((len(c) for c in _subsets_by_size(m)
                     if sum(masks[j] for j in c) == full == _union(masks, c)), None)
        res = kernels.exact_cover_optimum(masks, n)
        assert (res is None) == (want is None), (n, masks)
        if res is not None:
            assert res[0] == want
            assert len(res[1]) == res[0]
            got = 0
            for j in res[1]:
                assert got & masks[j] == 0
                got |= masks[j]
            assert got == full


def test_ham_cycle_matches_permutation_search():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(2, 7)
        succ = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    succ[u] |= 1 << v
        exists = any(
            all(succ[c[i]] >> c[(i + 1) % n] & 1 for i in range(n))
            for c in ((0,) + rest for rest in itertools.permutations(range(1, n))))
        order = kernels.ham_cycle(succ, n)
        assert (order is not None) == exists, (n, succ)
        if order is not None:
            assert sorted(order) == list(range(n))
            assert order[0] == 0
            for i in range(n):
                assert succ[order[i]] >> order[(i + 1) % n] & 1


def _colorful_root_hosts(k, parent, orient, out_adj, colors):
    """Hosts of the root over all colorful, orientation-respecting embeddings.

    Backtracks over the tree nodes in id order (every parent precedes its
    children); distinct colors make the image injective.
    """
    def arc(a, b):
        return out_adj[a] >> b & 1

    def extends(image):
        v = len(image)
        if v == k:
            return True
        hp, o = image[parent[v]], orient[v]
        used = {colors[x] for x in image}
        return any(
            colors[u] not in used
            and (arc(hp, u) if o == 1 else arc(u, hp) if o == 2 else arc(hp, u) or arc(u, hp))
            and extends(image + [u])
            for u in range(len(colors)))

    return {u for u in range(len(colors)) if extends([u])}


def test_colorful_trial_matches_embedding_search():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(1, 7)
        n = rng.randint(1, 10)
        # random tree over 0..k-1 rooted at 0, random orientations
        parent = [-1] + [rng.randrange(v) for v in range(1, k)]
        orient = [0] + [rng.choice([0, 1, 2]) for _ in range(k - 1)]
        children = [[] for _ in range(k)]
        for v in range(1, k):
            children[parent[v]].append(v)
        post = []
        stack = [(0, False)]
        while stack:
            v, done = stack.pop()
            if done:
                post.append(v)
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in children[v])
        out_adj = [0] * n
        in_adj = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    out_adj[u] |= 1 << v
                    in_adj[v] |= 1 << u
        colors = [rng.randrange(k) for _ in range(n)]
        roots = _colorful_root_hosts(k, parent, orient, out_adj, colors)
        got = kernels.colorful_trial_yes(k, post, parent, orient, out_adj, in_adj, colors)
        assert got == min(roots, default=-1), (k, n, parent, orient, colors)
