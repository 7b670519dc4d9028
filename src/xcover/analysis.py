"""Bound-formula evaluation and the differential-verification harness.

All bound arithmetic lives in log2 space (the raw counts are astronomically
large); comparisons use an absolute tolerance of 1e-9.

A verification family states only its cases and checks: it draws its
cases from the generator it is given, appends a record per failed check,
with a disagreement's graph or instance shrunk by ``_minimize``, and
returns its notes and bounds reports.  The runner,
``run_verification_suite``, seeds each family's generator, sets its trial
count, builds its record and fails it on ``coverage`` when a note that
``_FAMILIES`` requires is 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, replace

from xcover.errors import PreconditionError
from xcover.instances import (
    PARTIAL,
    Digraph,
    SetCoverInstance,
    gen_planted,
    gen_random,
    parse_instance,
    serialize_instance,
)
from xcover.partitions import count_partitions, enumerate_partitions
from xcover.reductions import (  # noqa: F401 (count_bound_log2: re-exported)
    ANCHORED,
    LITERAL,
    ReductionBatch,
    check_cover_properties,
    count_bound_log2,
    decide_stream,
    element_bound,
    ham_to_setcover,
    normalize_variant,
    ntree_to_setcover,
    solve_ham_via_setcover,
    solve_ntree_via_setcover,
    solve_setcover_via_ktree,
    tree_cover,
)
from xcover.solvers import (
    certificate_budget,
    exactcover_solve,
    exactcover_with_large_sets,
    heldkarp_ham,
    ktree_colorcoding,
    partialcover_dp,
    setcover_bruteforce,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
    verify_embedding,
    verify_ham_cycle,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def koivisto_lambda(delta: int) -> float:
    """Exponent shrink factor for size-bounded covers; below 1 - 1/(2*delta)."""
    if delta < 2:
        raise PreconditionError("delta >= 2 required")
    value = (2 * delta - 2) / math.sqrt((2 * delta - 1) ** 2 - 2 * math.log(2))
    assert value <= 1 - 1 / (2 * delta) + TOL
    return value


def _log2_sum(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    if hi - lo > 60:
        return hi
    return hi + math.log2(1 + 2 ** (lo - hi))


def compose_runtime(ntilde: int, delta: float, f_exponent) -> float:
    """log2 of ntilde^delta + ntilde^(ntilde/delta) * 2^f_exponent(n, delta).

    ``f_exponent(n, delta)`` models a cover solver's exponent on the
    inflated ground set n = element_bound(ntilde, delta).  Pure arithmetic, no
    solving happens.
    """
    if not 1 <= delta <= ntilde:
        raise PreconditionError("delta must lie in [1, ntilde]")
    lg = math.log2(ntilde) if ntilde > 1 else 0.0
    a = delta * lg
    b = (ntilde / delta) * lg + f_exponent(element_bound(ntilde, delta), delta)
    return _log2_sum(a, b)


def pipeline_total_exponent(ntilde: int, eps: float) -> float:
    """Total log2 runtime of the tree-to-cover pipeline fed by a hypothetical
    2^((1-eps)n)-time cover solver, at delta = 81/eps * log2(ntilde)."""
    if ntilde < 2:
        raise PreconditionError("ntilde >= 2 required")
    if not 0 < eps <= 1:
        raise PreconditionError(f"eps must lie in (0, 1], got {eps}")
    delta = 81 / eps * math.log2(ntilde)
    if delta > ntilde:
        raise PreconditionError(f"epsilon {eps} derives delta = 81/epsilon * log2(ntilde) = "
                                f"{delta:g}, more than ntilde = {ntilde}")
    return compose_runtime(ntilde, delta, lambda n, _d: (1 - eps) * n)


@dataclass
class BoundReport:
    inputs: dict
    declared_count_log2: float
    realized_count: int
    realized_count_log2: float
    declared_elements: float
    realized_max_elements: int
    runtime_estimate_log2: float | None
    verdicts: dict[str, str]

    @property
    def within(self) -> bool:
        return all(v == "within" for v in self.verdicts.values())


def reduction_bound_report(batch: ReductionBatch, inputs: dict,
                           runtime_estimate_log2: float | None = None) -> BoundReport:
    """Materialize a stream and compare the realized counts with the caps."""
    count = 0
    max_elements = 0
    for prod in batch.produced:
        count += 1
        max_elements = max(max_elements, prod.instance.n)
    realized_log2 = math.log2(count) if count else 0.0
    verdicts = {
        "count": "within" if realized_log2 <= batch.bound_declared_log2 + TOL else "exceeded",
        "elements": "within" if max_elements <= batch.elements_declared + TOL else "exceeded",
    }
    return BoundReport(
        inputs=inputs,
        declared_count_log2=batch.bound_declared_log2,
        realized_count=count,
        realized_count_log2=realized_log2,
        declared_elements=batch.elements_declared,
        realized_max_elements=max_elements,
        runtime_estimate_log2=runtime_estimate_log2,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# counterexample minimization
# ---------------------------------------------------------------------------


def _minimize(value, still_bad):
    """Greedy deletion while ``still_bad`` holds: drop the first edge, in
    sorted order, of a Digraph, or the first set, by index, of a
    SetCoverInstance whose removal keeps it, and start over."""
    while True:
        if isinstance(value, Digraph):
            smaller = (replace(value, edges=value.edges - {e}) for e in sorted(value.edges))
        else:
            smaller = (replace(value, sets=value.sets[:j] + value.sets[j + 1:])
                       for j in range(value.m))
        cand = next(filter(still_bad, smaller), None)
        if cand is None:
            return value
        value = cand


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _family_roundtrip(cfg, rng, cases, failures):
    for t in range(cases):
        kind = rng.choice(["setcover", "exactcover", "partialcover", "digraph", "graph", "tree"])
        if kind in ("setcover", "exactcover", "partialcover"):
            n = rng.randint(1, 12)
            params = {"n": n, "m": rng.randint(0, 6), "max_set_size": rng.randint(1, n)}
            if kind == "partialcover":
                params["p"] = rng.randint(0, n)
            value = gen_random(kind, seed=cfg.seed + t, **params)
        elif kind == "tree":
            value = gen_random("tree", seed=cfg.seed + t, k=rng.randint(1, 15),
                               oriented=rng.random() < 0.5)
        else:
            value = gen_random(kind, seed=cfg.seed + t, n=rng.randint(1, 10),
                               edge_probability=rng.random())
        text = serialize_instance(value)
        back = parse_instance(text)
        if back != value or serialize_instance(back) != text:
            failures.append({"kind": kind, "text": text})


def _family_planted(cfg, rng, cases, failures):
    for t in range(cases):
        G, order = gen_planted("ham_cycle", seed=cfg.seed + t, n=rng.randint(2, 9),
                               extra_edges=rng.randint(0, 6))
        if not verify_ham_cycle(G, order):
            failures.append({"kind": "ham_cycle", "graph": serialize_instance(G)})
        k = rng.randint(1, 6)
        host, tree, mapping = gen_planted("embedded_tree", seed=cfg.seed + t, k=k,
                                          host_n=k + rng.randint(0, 5),
                                          oriented=rng.random() < 0.7)
        if not verify_embedding(host, tree, mapping):
            failures.append({"kind": "embedded_tree", "graph": serialize_instance(host),
                             "tree": serialize_instance(tree)})
        n = rng.randint(2, 10)
        inst, witness = gen_planted("covered_universe", seed=cfg.seed + t, n=n,
                                    m=rng.randint(1, 6))
        if not verify_cover(inst, witness):
            failures.append({"kind": "covered_universe", "instance": serialize_instance(inst)})


def _family_cover_guarantees(cfg, rng, cases, failures):
    for t in range(cases):
        k = rng.randint(2, 120)
        T = gen_random("tree", seed=cfg.seed * 1000 + t, k=k)
        l = rng.randint(2, k)
        rep = check_cover_properties(T, tree_cover(T, l), l)
        if not rep["ok"]:
            failures.append({"tree": serialize_instance(T), "l": l, "violations":
                             {key: found for key, found in rep.items() if key != "ok"}})


def _family_solver_agreement(cfg, rng, cases, failures):
    for t in range(cases):
        n = rng.randint(1, 9)
        inst = gen_random("setcover", seed=cfg.seed + 31 * t, n=n,
                          m=rng.randint(0, 9), max_set_size=rng.randint(1, n))
        if _dp_disagrees(inst):
            mini = _minimize(inst, _dp_disagrees)
            failures.append({"check": "dp_vs_bruteforce", "instance": serialize_instance(mini)})
            continue
        dp = setcover_dp(inst)
        if dp.answer == "optimum" and not verify_cover(inst, dp.certificate):
            failures.append({"check": "certificate", "instance": serialize_instance(inst)})
        partial = SetCoverInstance(inst.n, inst.sets, variant=PARTIAL, p=inst.n)
        pd = partialcover_dp(partial)
        if dp.answer == "optimum" and (pd.answer, pd.optimum) != (dp.answer, dp.optimum):
            failures.append({"check": "partial_p_eq_n", "instance": serialize_instance(inst)})
        # monotonicity: one more random set never increases the optimum
        if dp.answer == "optimum" and n >= 1:
            extra = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            grown = SetCoverInstance(inst.n, inst.sets + (extra,))
            if setcover_dp(grown).optimum > dp.optimum:
                failures.append({"check": "monotone", "instance": serialize_instance(grown)})


def _dp_disagrees(inst):
    """The cover DP and the brute force differ in answer or optimum."""
    dp, bf = setcover_dp(inst), setcover_bruteforce(inst)
    return (dp.answer, dp.optimum) != (bf.answer, bf.optimum)


def _family_exactcover_large(cfg, rng, cases, failures):
    for t in range(cases):
        n = rng.randint(1, 10)
        inst = gen_random("exactcover", seed=cfg.seed + 77 * t, n=n,
                          m=rng.randint(0, 8), max_set_size=rng.randint(1, n))
        delta = rng.choice([2, 3])
        if _exactcover_disagrees(inst, delta):
            mini = _minimize(inst, lambda c: _exactcover_disagrees(c, delta))
            failures.append({"delta": delta, "instance": serialize_instance(mini)})


def _exactcover_disagrees(inst, delta):
    """The two exact-cover solvers differ in answer or optimum, or one of
    them returns an optimum whose certificate is not an exact cover of that
    many sets."""
    a = exactcover_solve(inst)
    b = exactcover_with_large_sets(inst, delta)
    if (a.answer, a.optimum) != (b.answer, b.optimum):
        return True
    return a.answer == "optimum" and not all(
        verify_cover(inst, r.certificate) and len(r.certificate) == r.optimum
        for r in (a, b))


def _family_partition_facts(cfg, rng, cases, failures):
    for a in range(cases + 1):
        stream = list(enumerate_partitions(a))
        ok = (len(stream) == count_partitions(a)
              and len(set(p.parts for p in stream)) == len(stream)
              and all(p.total == a for p in stream if a > 0))
        if not ok:
            failures.append({"a": a, "enumerated": len(stream),
                             "counted": count_partitions(a)})


def _family_ntree(cfg, rng, cases, failures):
    bounds = []
    over_accepts = []
    disjoint_counts = {"disjoint": 0, "overlapping": 0}
    counts = {"yes": 0, "no": 0, "instances_distinct": 0, "instances_filtered": 0}
    variant = cfg.variant
    delta = 6
    for t in range(cases):
        nt = rng.choice([4, 5, 6, 7])
        T = gen_random("tree", seed=cfg.seed + 2 * t + 1, k=nt, oriented=True)
        G = gen_random("digraph", seed=cfg.seed + 2 * t, n=nt,
                       edge_probability=rng.choice([0.25, 0.4, 0.55]))
        bt = _embed_oracle(G, T, failures).is_yes
        counts["yes" if bt else "no"] += 1
        decision = decide_stream(ntree_to_setcover(G, T, delta, variant, live_only=True))
        counts["instances_distinct"] += decision.distinct
        counts["instances_filtered"] += decision.filtered
        red = decision.accepted is not None
        if red and not bt and variant == LITERAL:
            # the literal variant may over-accept: recorded, not failed
            mini = _minimize(G, lambda c: solve_ntree_via_setcover(
                c, T, delta, variant=LITERAL) and not tree_embed_backtrack(c, T).is_yes)
            over_accepts.append({"graph": serialize_instance(mini),
                                 "tree": serialize_instance(T)})
        elif bt != red:
            mini = _minimize(G, lambda c: tree_embed_backtrack(c, T).is_yes
                             != solve_ntree_via_setcover(c, T, delta, variant=variant))
            failures.append({"check": "completeness" if variant == LITERAL else "equivalence",
                             "graph": serialize_instance(mini),
                             "tree": serialize_instance(T), "backtrack": bt})
        if t % 5 == 0:
            batch = ntree_to_setcover(G, T, delta, variant=variant)
            # composed-runtime estimate with a plain 2^n-time cover solver,
            # defined only when delta fits the composition's range
            estimate = compose_runtime(nt, delta, lambda n, _d: n) \
                if delta <= nt else None
            report = reduction_bound_report(
                batch, {"ntilde": nt, "delta": delta, "variant": variant},
                runtime_estimate_log2=estimate)
            bounds.append(asdict(report))
            if not report.within:
                failures.append({"check": "bounds", "report": bounds[-1]})
        # record whether accepting covers are disjoint (claimed, not proven,
        # for the tree case)
        if red and t % 5 == 0:
            seen = set()
            overlap = False
            for j in decision.result.certificate:
                s = set(decision.accepted.instance.sets[j])
                if seen & s:
                    overlap = True
                seen |= s
            disjoint_counts["overlapping" if overlap else "disjoint"] += 1
    notes = {"disjoint_accepting_covers": disjoint_counts, **counts}
    if variant == LITERAL:
        notes["over_accepts"] = over_accepts
    return {"notes": notes, "bounds": bounds}


def _embed_oracle(G, T, failures):
    """The backtracking embedder's result for T in G; a yes whose mapping
    is not an embedding adds an ``oracle_certificate`` failure."""
    res = tree_embed_backtrack(G, T)
    if res.is_yes and not verify_embedding(G, T, res.certificate):
        failures.append({"check": "oracle_certificate", "graph": serialize_instance(G),
                         "tree": serialize_instance(T)})
    return res


def _family_ham(cfg, rng, cases, failures):
    """The ham stream's decide path against Held-Karp, on random digraphs
    and, every other case, a planted Hamiltonian cycle."""
    bounds = []
    counts = {"yes": 0, "no": 0, "instances_distinct": 0}
    for t in range(cases):
        n = rng.choice([4, 6, 8])
        if t % 2:
            G, _ = gen_planted("ham_cycle", seed=cfg.seed + 13 * t, n=n, extra_edges=n)
        else:
            G = gen_random("digraph", seed=cfg.seed + 13 * t, n=n,
                           edge_probability=rng.choice([0.2, 0.35, 0.5]))
        hk = heldkarp_ham(G).is_yes
        counts["yes" if hk else "no"] += 1
        for delta in (2, n // 2):
            decision = decide_stream(ham_to_setcover(G, delta, live_only=True))
            counts["instances_distinct"] += decision.distinct
            if (decision.accepted is not None) != hk:
                mini = _minimize(G, lambda c: heldkarp_ham(c).is_yes
                                 != solve_ham_via_setcover(c, delta))
                failures.append({"check": "equivalence", "delta": delta,
                                 "graph": serialize_instance(mini)})
        if t % 5 == 0:
            if any(len(s) != 2 for prod in ham_to_setcover(G, 2).produced
                   for s in prod.instance.sets):
                failures.append({"check": "set_sizes", "graph": serialize_instance(G)})
            report = reduction_bound_report(ham_to_setcover(G, 2), {"n": n, "delta": 2})
            bounds.append(asdict(report))
            if not report.within:
                failures.append({"check": "bounds", "report": bounds[-1]})
    return {"notes": counts, "bounds": bounds}


def _ktree_family(instances, oracle, failures):
    """The partition-tree pipeline (g = 2) against a DP oracle on each
    instance, and the DP oracle against the kernel-free brute force (the
    pipeline's large-set preprocessing runs the DP's kernel).  A pipeline
    optimum must carry a certificate of exactly ``optimum`` sets that
    ``verify_cover`` accepts."""
    trees_embedded = 0
    for inst in instances:
        dp = oracle(inst)
        bf = setcover_bruteforce(inst)
        if (dp.answer, dp.optimum) != (bf.answer, bf.optimum):
            failures.append({"check": "dp_vs_bruteforce",
                             "instance": serialize_instance(inst),
                             "dp": dp.optimum, "bruteforce": bf.optimum})
        kt = solve_setcover_via_ktree(inst, 2)
        trees_embedded += kt.stats["trees_tried"]
        if (dp.answer, dp.optimum) != (kt.answer, kt.optimum):
            failures.append({"check": "equivalence",
                             "instance": serialize_instance(inst),
                             "dp": dp.optimum, "pipeline": kt.optimum})
        cert = kt.certificate
        if kt.answer == "optimum" and (
                cert is None or len(cert) != kt.optimum or not verify_cover(inst, cert)):
            failures.append({"check": "certificate",
                             "instance": serialize_instance(inst),
                             "pipeline": kt.optimum, "certificate": cert})
    return {"notes": {"trees_embedded": trees_embedded}}


def _family_setcover_ktree(cfg, rng, cases, failures):
    instances = []
    for t in range(cases):
        n = rng.choice([8, 10, 12])
        m = rng.randint(5, 8)
        if rng.random() < 0.75:
            # sets of at most n/g^2 elements, so no case is decided by preprocessing
            inst, _ = gen_planted("covered_universe", seed=cfg.seed + 17 * t, n=n, m=m,
                                  max_set_size=n // 4)
        else:
            inst = gen_random("setcover", seed=cfg.seed + 17 * t, n=n, m=m,
                              max_set_size=max(1, n // 2))
        instances.append(inst)
    return _ktree_family(instances, setcover_dp, failures)


def _family_partial_ktree(cfg, rng, cases, failures):
    instances = []
    for t in range(cases):
        # with g=2 a set is large once 4|S| >= p: sets of at most 3 elements
        # and p in n-5..n send some cases through the embedder and some
        # through large-set preprocessing
        n = rng.randint(13, 16)
        p = rng.randint(n - 5, n)
        m = rng.randint(8, 12)
        if rng.random() < 0.75:
            base, _ = gen_planted("covered_universe", seed=cfg.seed + 19 * t, n=n, m=m,
                                  max_set_size=3)
        else:
            base = gen_random("setcover", seed=cfg.seed + 19 * t, n=n, m=m, max_set_size=3)
        instances.append(SetCoverInstance(n, base.sets, variant=PARTIAL, p=p))
    return _ktree_family(instances, partialcover_dp, failures)


def _family_ktree(cfg, rng, cases, failures):
    """ktree_colorcoding against the backtracking embedder: a yes must be
    one, with a verified embedding, and a miss at failure_prob 1e-6 is a
    bug.  ``self_reduced`` counts the yes answers whose embedder run on the
    whole host spends more than ``certificate_budget(n, k)`` units, so that
    the solver's sieve shrank the host before its embedder gave the
    certificate."""
    counts = {"yes": 0, "no": 0, "missed_yes": 0, "self_reduced": 0}
    for t in range(cases):
        k = rng.randint(1, 6)
        n = rng.randint(k, 8)
        T = gen_random("tree", seed=cfg.seed + 23 * t, k=k, oriented=True)
        # sparse hosts every other case, so that both answers occur
        G = gen_random("digraph", seed=cfg.seed + 23 * t + 1, n=n,
                       edge_probability=0.1 if t % 2 else 0.4)
        bt = _embed_oracle(G, T, failures)
        counts["yes" if bt.is_yes else "no"] += 1
        res = ktree_colorcoding(G, T, failure_prob=1e-6, seed=cfg.seed + t)
        if res.is_yes:
            counts["self_reduced"] += bt.stats["explored"] > certificate_budget(n, k)
            if not verify_embedding(G, T, res.certificate):
                failures.append({"check": "certificate", "graph": serialize_instance(G),
                                 "tree": serialize_instance(T)})
            if not bt.is_yes:
                failures.append({"check": "one_sided", "graph": serialize_instance(G),
                                 "tree": serialize_instance(T)})
        elif bt.is_yes:
            counts["missed_yes"] += 1
    if counts["missed_yes"]:
        failures.append({"check": "missed_yes", "count": counts["missed_yes"]})
    return {"notes": counts}


# name -> (family, default trial count, seed offset of its generator or None
# when it draws nothing, notes that must be nonzero), in report order.  A
# family whose oracle gave only one answer certified nothing about the
# other, and one that handed no tree to the embedder certified nothing
# about it: either fails with a ``coverage`` record.
_FAMILIES = {
    "roundtrip": (_family_roundtrip, 40, 1, ()),
    "planted": (_family_planted, 15, 2, ()),
    "cover_guarantees": (_family_cover_guarantees, 120, 3, ()),
    "solver_agreement": (_family_solver_agreement, 30, 4, ()),
    "exactcover_large": (_family_exactcover_large, 30, 5, ()),
    "partition_facts": (_family_partition_facts, 20, None, ()),
    "ntree": (_family_ntree, 25, 6, ("yes", "no")),
    "ham": (_family_ham, 20, 7, ("yes", "no")),
    "setcover_ktree": (_family_setcover_ktree, 8, 8, ("trees_embedded",)),
    "partial_ktree": (_family_partial_ktree, 15, 9, ("trees_embedded",)),
    "ktree": (_family_ktree, 12, 10, ("yes", "no")),
}
ALL_FAMILIES = tuple(_FAMILIES)


@dataclass
class VerifyConfig:
    seed: int = 0
    variant: str = ANCHORED  # any name normalize_variant accepts
    families: tuple[str, ...] = ALL_FAMILIES
    trials: dict = field(default_factory=dict)

    def __post_init__(self):
        self.variant = normalize_variant(self.variant)

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyConfig":
        seed = data.get("seed", 0)
        if not _is_int(seed):
            raise PreconditionError(f"seed must be an integer, got {seed!r}")
        families = data.get("families", list(ALL_FAMILIES))
        trials = data.get("trials", {})
        if not isinstance(families, list) or not isinstance(trials, dict):
            raise PreconditionError("families must be a list and trials an object")
        unknown = [f for f in [*families, *trials] if f not in ALL_FAMILIES]
        if unknown:
            raise PreconditionError(f"unknown families: {unknown}")
        bad = {f: t for f, t in trials.items() if not _is_int(t) or t < 1}
        if bad:
            raise PreconditionError(f"trial counts must be integers of at least 1: {bad}")
        return cls(seed, data.get("variant", ANCHORED), tuple(families), dict(trials))

    def n_trials(self, family: str) -> int:
        return self.trials.get(family, _FAMILIES[family][1])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def run_verification_suite(config: VerifyConfig | dict | None = None) -> dict:
    """Run every configured differential family; failures are recorded with
    minimized counterexamples, never aborting the suite.  Each family gets
    its own seeded generator, its trial count and its failures list; the
    record gets a ``coverage`` failure last when a required note is 0."""
    if config is None:
        config = VerifyConfig()
    elif isinstance(config, dict):
        config = VerifyConfig.from_dict(config)
    report = {
        "config": {
            "seed": config.seed,
            "variant": config.variant,
            "families": list(config.families),
            "trials": {f: config.n_trials(f) for f in config.families},
        },
        "families": {},
    }
    for name in config.families:
        family, _, offset, required = _FAMILIES[name]
        rng = None if offset is None else random.Random(config.seed * 11 + offset)
        cases, failures = config.n_trials(name), []
        record = {"cases": cases, "failures": failures, "notes": {}}
        record.update(family(config, rng, cases, failures) or {})
        coverage = {note: record["notes"][note] for note in required}
        if not all(coverage.values()):
            failures.append({"check": "coverage", **coverage})
        report["families"][name] = record
    report["passed"] = all(not fam["failures"] for fam in report["families"].values())
    return report

