"""Bound-formula evaluation and the differential-verification harness.

All bound arithmetic lives in log2 space (the raw counts are astronomically
large); comparisons use an absolute tolerance of 1e-9.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

from xcover import kernels
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
from xcover.reductions import (  # noqa: F401 (count_bound_log2, element_bound: re-exported)
    ANCHORED,
    LITERAL,
    ReductionBatch,
    check_cover_properties,
    count_bound_log2,
    decide_stream,
    element_bound,
    ham_to_setcover,
    ntree_to_setcover,
    solve_ham_via_setcover,
    solve_ntree_via_setcover,
    solve_setcover_via_ktree,
    tree_cover,
)
from xcover.solvers import (
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
    inflated ground set n = ntilde + 9*ntilde/delta.  Pure arithmetic, no
    solving happens.
    """
    if not 1 <= delta <= ntilde:
        raise PreconditionError("delta must lie in [1, ntilde]")
    lg = math.log2(ntilde) if ntilde > 1 else 0.0
    inflated = ntilde + 9 * ntilde / delta
    a = delta * lg
    b = (ntilde / delta) * lg + f_exponent(inflated, delta)
    return _log2_sum(a, b)


def pipeline_total_exponent(ntilde: int, eps: float) -> float:
    """Total log2 runtime of the tree-to-cover pipeline fed by a hypothetical
    2^((1-eps)n)-time cover solver, at delta = 81/eps * log2(ntilde)."""
    if ntilde < 2:
        raise PreconditionError("ntilde >= 2 required")
    delta = 81 / eps * math.log2(ntilde)
    return compose_runtime(ntilde, delta, lambda n, _d: (1 - eps) * n)


def large_delta_beats_barrier(ntilde_log2: float, dprime: float, eps: float) -> dict:
    """Pipeline deficit vs the 2^(n - sqrt(n/log n)) barrier, in relative units.

    Regime: delta = ntilde^(1/2 - dprime) with a cover solver exponent of
    (1 - (2+eps) log2(delta)/delta) n.  The node counts are far beyond
    float resolution, so both deficits are computed relative to ntilde
    rather than subtracting astronomically close exponents.
    """
    if not 0 < dprime < 0.5:
        raise PreconditionError("dprime must lie in (0, 0.5)")
    lg = ntilde_log2
    delta_log2 = (0.5 - dprime) * lg
    delta = 2.0 ** delta_log2
    gain = (2 + eps) * delta_log2 / delta
    # deficit of [lg/delta + (1-gain)(1 + 9/delta)] below 1, expanded so the
    # tiny terms never cancel against the leading 1
    pipeline_deficit = gain * (1 + 9 / delta) - (lg + 9) / delta
    # the preprocessing term ntilde^delta is negligible when its log2 sits
    # far below ntilde's
    preprocessing_log2 = delta_log2 + math.log2(lg)
    preprocessing_negligible = preprocessing_log2 < lg - 60
    barrier_deficit = 2.0 ** (-(lg + math.log2(lg)) / 2)
    return {
        "pipeline_deficit": pipeline_deficit,
        "barrier_deficit": barrier_deficit,
        "beats": preprocessing_negligible and pipeline_deficit > barrier_deficit,
    }


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


def _minimize_edges(G: Digraph, predicate) -> Digraph:
    """Greedy edge deletion while the discrepancy predicate persists."""
    cur = G
    improved = True
    while improved:
        improved = False
        for e in sorted(cur.edges):
            cand = Digraph(cur.num_nodes, frozenset(cur.edges - {e}), cur.undirected_mode)
            if predicate(cand):
                cur = cand
                improved = True
                break
    return cur


def _minimize_sets(inst: SetCoverInstance, predicate) -> SetCoverInstance:
    cur = inst
    improved = True
    while improved:
        improved = False
        for j in range(cur.m):
            sets = cur.sets[:j] + cur.sets[j + 1:]
            cand = SetCoverInstance(cur.n, sets, cur.variant, cur.p, cur.delta)
            if predicate(cand):
                cur = cand
                improved = True
                break
    return cur


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

ALL_FAMILIES = (
    "roundtrip",
    "planted",
    "cover_guarantees",
    "solver_agreement",
    "exactcover_large",
    "partition_facts",
    "ntree",
    "ham",
    "setcover_ktree",
    "partial_ktree",
    "colorcoding",
)

_DEFAULT_TRIALS = {
    "roundtrip": 40,
    "planted": 15,
    "cover_guarantees": 120,
    "solver_agreement": 30,
    "exactcover_large": 30,
    "partition_facts": 20,
    "ntree": 25,
    "ham": 20,
    "setcover_ktree": 8,
    "partial_ktree": 15,
    "colorcoding": 12,
}


@dataclass
class VerifyConfig:
    seed: int = 0
    variant: str = ANCHORED
    families: tuple[str, ...] = ALL_FAMILIES
    trials: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyConfig":
        cfg = cls()
        cfg.seed = int(data.get("seed", 0))
        cfg.variant = data.get("variant", ANCHORED)
        cfg.families = tuple(data.get("families", ALL_FAMILIES))
        cfg.trials = dict(data.get("trials", {}))
        unknown = set(cfg.families) - set(ALL_FAMILIES)
        if unknown:
            raise PreconditionError(f"unknown families: {sorted(unknown)}")
        return cfg

    def n_trials(self, family: str) -> int:
        return int(self.trials.get(family, _DEFAULT_TRIALS[family]))


def run_verification_suite(config: VerifyConfig | dict | None = None) -> dict:
    """Run every configured differential family; failures are recorded with
    minimized counterexamples, never aborting the suite."""
    if config is None:
        config = VerifyConfig()
    elif isinstance(config, dict):
        config = VerifyConfig.from_dict(config)
    report = {
        "backend": kernels.BACKEND,
        "config": {
            "seed": config.seed,
            "variant": config.variant,
            "families": list(config.families),
            "trials": {f: config.n_trials(f) for f in config.families},
        },
        "families": {},
    }
    runners = {
        "roundtrip": _family_roundtrip,
        "planted": _family_planted,
        "cover_guarantees": _family_cover_guarantees,
        "solver_agreement": _family_solver_agreement,
        "exactcover_large": _family_exactcover_large,
        "partition_facts": _family_partition_facts,
        "ntree": _family_ntree,
        "ham": _family_ham,
        "setcover_ktree": _family_setcover_ktree,
        "partial_ktree": _family_partial_ktree,
        "colorcoding": _family_colorcoding,
    }
    for name in config.families:
        report["families"][name] = runners[name](config)
    report["passed"] = all(not fam["failures"] for fam in report["families"].values())
    return report


def _family_result(cases, failures, notes=None, bounds=None):
    out = {"cases": cases, "failures": failures, "notes": notes or {}}
    if bounds is not None:
        out["bounds"] = bounds
    return out


def _family_roundtrip(cfg):
    rng = random.Random(cfg.seed * 11 + 1)
    failures = []
    cases = cfg.n_trials("roundtrip")
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
    return _family_result(cases, failures)


def _family_planted(cfg):
    rng = random.Random(cfg.seed * 11 + 2)
    failures = []
    cases = cfg.n_trials("planted")
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
    return _family_result(cases, failures)


def _family_cover_guarantees(cfg):
    rng = random.Random(cfg.seed * 11 + 3)
    failures = []
    cases = cfg.n_trials("cover_guarantees")
    for t in range(cases):
        k = rng.randint(2, 120)
        T = gen_random("tree", seed=cfg.seed * 1000 + t, k=k)
        l = rng.randint(2, k)
        rep = check_cover_properties(T, tree_cover(T, l), l)
        if not rep["ok"]:
            failures.append({"tree": serialize_instance(T), "l": l,
                             "violations": {key: rep[key] for key in
                                            ("size", "coverage", "intersection",
                                             "count", "connectivity", "root")}})
    return _family_result(cases, failures)


def _family_solver_agreement(cfg):
    rng = random.Random(cfg.seed * 11 + 4)
    failures = []
    cases = cfg.n_trials("solver_agreement")
    for t in range(cases):
        n = rng.randint(1, 9)
        inst = gen_random("setcover", seed=cfg.seed + 31 * t, n=n,
                          m=rng.randint(0, 9), max_set_size=rng.randint(1, n))
        dp = setcover_dp(inst)
        bf = setcover_bruteforce(inst)
        if (dp.answer, dp.optimum) != (bf.answer, bf.optimum):
            mini = _minimize_sets(inst, lambda c: (
                (setcover_dp(c).answer, setcover_dp(c).optimum)
                != (setcover_bruteforce(c).answer, setcover_bruteforce(c).optimum)))
            failures.append({"check": "dp_vs_bruteforce", "instance": serialize_instance(mini)})
            continue
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
    return _family_result(cases, failures)


def _family_exactcover_large(cfg):
    rng = random.Random(cfg.seed * 11 + 5)
    failures = []
    cases = cfg.n_trials("exactcover_large")
    for t in range(cases):
        n = rng.randint(1, 10)
        inst = gen_random("exactcover", seed=cfg.seed + 77 * t, n=n,
                          m=rng.randint(0, 8), max_set_size=rng.randint(1, n))
        delta = rng.choice([2, 3])
        a = exactcover_solve(inst)
        b = exactcover_with_large_sets(inst, delta)
        if (a.answer, a.optimum) != (b.answer, b.optimum):
            mini = _minimize_sets(inst, lambda c: (
                (exactcover_solve(c).answer, exactcover_solve(c).optimum)
                != (exactcover_with_large_sets(c, delta).answer,
                    exactcover_with_large_sets(c, delta).optimum)))
            failures.append({"delta": delta, "instance": serialize_instance(mini)})
    return _family_result(cases, failures)


def _family_partition_facts(cfg):
    failures = []
    cases = cfg.n_trials("partition_facts")
    for a in range(cases + 1):
        stream = list(enumerate_partitions(a))
        ok = (len(stream) == count_partitions(a)
              and len(set(p.parts for p in stream)) == len(stream)
              and all(p.total == a for p in stream if a > 0))
        if not ok:
            failures.append({"a": a, "enumerated": len(stream),
                             "counted": count_partitions(a)})
    return _family_result(cases, failures)


def _family_ntree(cfg):
    rng = random.Random(cfg.seed * 11 + 6)
    failures = []
    bounds = []
    over_accepts = []
    disjoint_counts = {"disjoint": 0, "overlapping": 0}
    cases = cfg.n_trials("ntree")
    variant = cfg.variant
    delta = 6
    for t in range(cases):
        nt = rng.choice([4, 5, 6, 7])
        T = gen_random("tree", seed=cfg.seed + 2 * t + 1, k=nt, oriented=True)
        G = gen_random("digraph", seed=cfg.seed + 2 * t, n=nt,
                       edge_probability=rng.choice([0.25, 0.4, 0.55]))
        bt = tree_embed_backtrack(G, T).is_yes
        decision = decide_stream(ntree_to_setcover(G, T, delta, variant=variant))
        red = decision.accepted is not None
        if variant == LITERAL:
            if bt and not red:
                failures.append(_graph_pair_failure(G, T, delta, variant, "completeness"))
            elif red and not bt:
                mini = _minimize_edges(G, lambda c: solve_ntree_via_setcover(
                    c, T, delta, variant=LITERAL) and not tree_embed_backtrack(c, T).is_yes)
                over_accepts.append({"graph": serialize_instance(mini),
                                     "tree": serialize_instance(T)})
        elif bt != red:
            failures.append(_graph_pair_failure(G, T, delta, variant, "equivalence"))
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
    notes = {"disjoint_accepting_covers": disjoint_counts}
    if variant == LITERAL:
        notes["over_accepts"] = over_accepts
    return _family_result(cases, failures, notes, bounds)


def _graph_pair_failure(G, T, delta, variant, check):
    bt0 = tree_embed_backtrack(G, T).is_yes

    def still_bad(c):
        return tree_embed_backtrack(c, T).is_yes != solve_ntree_via_setcover(
            c, T, delta, variant=variant)

    mini = _minimize_edges(G, still_bad) if still_bad(G) else G
    return {"check": check, "graph": serialize_instance(mini),
            "tree": serialize_instance(T), "backtrack": bt0}


def _family_ham(cfg):
    rng = random.Random(cfg.seed * 11 + 7)
    failures = []
    bounds = []
    cases = cfg.n_trials("ham")
    for t in range(cases):
        n = rng.choice([4, 6, 8])
        G = gen_random("digraph", seed=cfg.seed + 13 * t, n=n,
                       edge_probability=rng.choice([0.2, 0.35, 0.5]))
        hk = heldkarp_ham(G).is_yes
        for delta in (2, n // 2):
            red = solve_ham_via_setcover(G, delta)
            if red != hk:
                mini = _minimize_edges(G, lambda c: heldkarp_ham(c).is_yes
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
    return _family_result(cases, failures, bounds=bounds)


def _ktree_family(instances, oracle):
    """The partition-tree pipeline (g = 2) against a DP oracle on each
    instance; a family that handed no tree to the embedder certified
    nothing about it and fails."""
    failures = []
    trees_embedded = 0
    for inst in instances:
        dp = oracle(inst)
        kt = solve_setcover_via_ktree(inst, 2)
        trees_embedded += kt.stats["trees_tried"]
        if (dp.answer, dp.optimum) != (kt.answer, kt.optimum):
            failures.append({"check": "equivalence",
                             "instance": serialize_instance(inst),
                             "dp": dp.optimum, "pipeline": kt.optimum})
    if not trees_embedded:
        failures.append({"check": "coverage", "trees_embedded": 0})
    return _family_result(len(instances), failures, {"trees_embedded": trees_embedded})


def _family_setcover_ktree(cfg):
    rng = random.Random(cfg.seed * 11 + 8)
    instances = []
    for t in range(cfg.n_trials("setcover_ktree")):
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
    return _ktree_family(instances, setcover_dp)


def _family_partial_ktree(cfg):
    rng = random.Random(cfg.seed * 11 + 9)
    instances = []
    for t in range(cfg.n_trials("partial_ktree")):
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
    return _ktree_family(instances, partialcover_dp)


def _family_colorcoding(cfg):
    rng = random.Random(cfg.seed * 11 + 10)
    failures = []
    missed = 0
    cases = cfg.n_trials("colorcoding")
    for t in range(cases):
        k = rng.randint(1, 6)
        n = rng.randint(k, 8)
        T = gen_random("tree", seed=cfg.seed + 23 * t, k=k, oriented=True)
        G = gen_random("digraph", seed=cfg.seed + 23 * t + 1, n=n, edge_probability=0.4)
        bt = tree_embed_backtrack(G, T)
        cc = ktree_colorcoding(G, T, failure_prob=1e-6, seed=cfg.seed + t)
        if cc.is_yes:
            if not bt.is_yes:
                failures.append({"check": "one_sided", "graph": serialize_instance(G),
                                 "tree": serialize_instance(T)})
            elif not verify_embedding(G, T, cc.certificate):
                failures.append({"check": "certificate", "graph": serialize_instance(G),
                                 "tree": serialize_instance(T)})
        elif bt.is_yes:
            missed += 1
    # failure_prob 1e-6 over a handful of cases: a miss indicates a bug
    if missed:
        failures.append({"check": "missed_yes", "count": missed})
    return _family_result(cases, failures, {"missed_yes": missed})
