import hashlib
import json
import math

import pytest

from xcover import analysis, kernels
from xcover.analysis import (
    VerifyConfig,
    compose_runtime,
    count_bound_log2,
    element_bound,
    koivisto_lambda,
    pipeline_total_exponent,
    reduction_bound_report,
    run_verification_suite,
    _minimize,
)
from xcover.errors import PreconditionError
from xcover.instances import Digraph, SetCoverInstance, gen_random, parse_instance
from xcover.reductions import ntree_to_setcover, solve_ntree_via_setcover, solve_setcover_via_ktree
from xcover.solvers import (
    SolveResult,
    exactcover_with_large_sets,
    partialcover_dp,
    setcover_bruteforce,
    setcover_dp,
    tree_embed_backtrack,
    verify_cover,
    verify_embedding,
)


def test_lambda_value_at_two():
    # 2 / sqrt(9 - 2 ln 2) evaluated numerically
    want = 2 / math.sqrt(9 - 2 * math.log(2))
    got = koivisto_lambda(2)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.7249) < 5e-4


def test_lambda_below_one_and_bound():
    for d in (2, 3, 10, 100, 1000, 10 ** 6):
        v = koivisto_lambda(d)
        assert v < 1
        assert v <= 1 - 1 / (2 * d) + 1e-9


def test_lambda_rejects_small_delta():
    with pytest.raises(PreconditionError):
        koivisto_lambda(1)


def test_count_bound_example():
    # 9 * 64 / 8 * log2(64) = 432
    assert abs(count_bound_log2(64, 8) - 432.0) < 1e-9
    assert abs(element_bound(64, 8) - 136.0) < 1e-9


def test_compose_runtime_trivial_solver_never_wins():
    for ntilde in (8, 64, 1024):
        for delta in (1, 2, ntilde // 2, ntilde):
            total = compose_runtime(ntilde, delta, lambda n, _d: n)
            assert total >= ntilde - 1e-9


def test_compose_runtime_monotone_in_f():
    for bump in (0.0, 1.0, 5.0, 50.0):
        lo = compose_runtime(256, 16, lambda n, _d: 0.5 * n)
        hi = compose_runtime(256, 16, lambda n, _d: 0.5 * n + bump)
        assert hi >= lo - 1e-12


def test_pipeline_exponent_threshold():
    # 81/eps * log2(ntilde) must not exceed ntilde, and from 2^19 on the
    # total exponent stays below ntilde(1 - eps/2) for eps = 0.1
    eps = 0.1
    assert pipeline_total_exponent(2 ** 18, eps) > 2 ** 18 * (1 - eps / 2)
    for e in (19, 20, 24, 30):
        nt = 2 ** e
        assert pipeline_total_exponent(nt, eps) <= nt * (1 - eps / 2)


def test_reduction_bound_report_within():
    G = gen_random("digraph", seed=0, n=5, edge_probability=0.4)
    T = gen_random("tree", seed=1, k=5, oriented=True)
    batch = ntree_to_setcover(G, T, 6)
    report = reduction_bound_report(batch, {"ntilde": 5, "delta": 6})
    assert report.within
    assert report.realized_count_log2 <= report.declared_count_log2 + 1e-9
    assert report.realized_max_elements <= report.declared_elements + 1e-9


def test_minimizers_shrink_witnesses():
    g = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)}))
    smaller = _minimize(g, lambda c: (0, 1) in c.edges)
    assert smaller.edges == frozenset({(0, 1)})
    inst = SetCoverInstance(3, ((0,), (1,), (2,), (0, 1)))
    mini = _minimize(inst, lambda c: setcover_dp(c).answer == "optimum")
    assert setcover_dp(mini).answer == "optimum"
    assert mini.m <= 2


def test_suite_default_passes_and_deterministic():
    report = run_verification_suite()
    assert report["passed"], {k: v["failures"] for k, v in report["families"].items()
                              if v["failures"]}
    again = run_verification_suite()
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_suite_ktree_families_count_embedded_trees():
    report = run_verification_suite({"families": ["setcover_ktree", "partial_ktree"]})
    assert report["passed"]
    for fam in report["families"].values():
        assert fam["notes"]["trees_embedded"] > 0
    # a config file cannot ask for 0 trials; a VerifyConfig built in code can
    with pytest.raises(PreconditionError):
        run_verification_suite({"families": ["partial_ktree"], "trials": {"partial_ktree": 0}})
    idle = run_verification_suite(VerifyConfig(families=("partial_ktree",),
                                               trials={"partial_ktree": 0}))
    assert not idle["passed"]
    assert idle["families"]["partial_ktree"]["failures"] == [
        {"check": "coverage", "trees_embedded": 0}]


def test_suite_ktree_families_check_the_dp_against_brute_force(monkeypatch):
    def off_by_one(inst):
        res = partialcover_dp(inst)
        if res.answer == "optimum":
            res.optimum += 1
        return res

    monkeypatch.setattr(analysis, "partialcover_dp", off_by_one)
    report = run_verification_suite({"families": ["partial_ktree"]})
    assert not report["passed"]
    flagged = [f for f in report["families"]["partial_ktree"]["failures"]
               if f["check"] == "dp_vs_bruteforce"]
    assert flagged
    for failure in flagged:
        inst = parse_instance(failure["instance"])
        assert failure["bruteforce"] == setcover_bruteforce(inst).optimum
        assert failure["dp"] == failure["bruteforce"] + 1


@pytest.mark.parametrize("family", ["setcover_ktree", "partial_ktree"])
def test_suite_ktree_families_check_the_pipeline_certificate(monkeypatch, family):
    def uncertified(inst, g):
        res = solve_setcover_via_ktree(inst, g)
        res.certificate = None
        return res

    monkeypatch.setattr(analysis, "solve_setcover_via_ktree", uncertified)
    report = run_verification_suite({"families": [family]})
    assert not report["passed"]
    fam = report["families"][family]
    flagged = [f for f in fam["failures"] if f["check"] == "certificate"]
    assert flagged and len(flagged) == len(fam["failures"])
    for failure in flagged:
        assert failure["certificate"] is None
        inst = parse_instance(failure["instance"])
        assert failure["pipeline"] == solve_setcover_via_ktree(inst, 2).optimum


def test_suite_decision_families_count_both_answers():
    report = run_verification_suite({"families": ["ntree", "ham"]})
    assert report["passed"]
    for fam in report["families"].values():
        notes = fam["notes"]
        assert notes["yes"] > 0 and notes["no"] > 0
        assert notes["yes"] + notes["no"] == fam["cases"]
        assert notes["instances_distinct"] > 0
    # one case has one answer, so the other one went uncertified
    single = run_verification_suite({"families": ["ntree", "ham"],
                                     "trials": {"ntree": 1, "ham": 1}})
    assert not single["passed"]
    for fam in single["families"].values():
        notes = fam["notes"]
        assert fam["failures"] == [{"check": "coverage", "yes": notes["yes"], "no": notes["no"]}]


def test_suite_colorcoding_counts_both_answers(monkeypatch):
    report = run_verification_suite({"families": ["ktree"]})
    assert report["passed"]
    fam = report["families"]["ktree"]
    notes = fam["notes"]
    assert notes["yes"] > 0 and notes["no"] > 0 and notes["missed_yes"] == 0
    assert notes["yes"] + notes["no"] == fam["cases"]
    # on these small hosts the embedder always certifies within n << k units
    assert notes["self_reduced"] == 0
    single = run_verification_suite({"families": ["ktree"], "trials": {"ktree": 1}})
    notes = single["families"]["ktree"]["notes"]
    assert single["families"]["ktree"]["failures"] == [
        {"check": "coverage", "yes": notes["yes"], "no": notes["no"]}]
    # a sieve that always returns zero
    monkeypatch.setattr(kernels, "tree_sieve", lambda *args: 0)
    broken = run_verification_suite({"families": ["ktree"]})["families"]["ktree"]
    assert broken["notes"]["missed_yes"] > 0
    assert {"check": "missed_yes", "count": broken["notes"]["missed_yes"]} in broken["failures"]
    # a solver that says yes to every case, with every tree node on host 0
    monkeypatch.setattr(analysis, "ktree_colorcoding", lambda G, T, **kw: SolveResult(
        "yes", certificate=dict.fromkeys(range(T.k), 0)))
    lying = run_verification_suite({"families": ["ktree"]})["families"]["ktree"]
    checks = [f["check"] for f in lying["failures"]]
    assert checks.count("one_sided") == lying["notes"]["no"]
    assert checks.count("certificate") > 0  # every case with k > 1


def test_suite_exactcover_large_rejects_an_overlapping_certificate(monkeypatch):
    def overlapping(inst, delta):
        # same optimum, but the first set stands in for the last one
        res = exactcover_with_large_sets(inst, delta)
        if res.answer == "optimum" and len(res.certificate) >= 2:
            res.certificate = res.certificate[:-1] + res.certificate[:1]
        return res

    monkeypatch.setattr(analysis, "exactcover_with_large_sets", overlapping)
    report = run_verification_suite({"families": ["exactcover_large"]})
    failures = report["families"]["exactcover_large"]["failures"]
    assert failures
    for failure in failures:
        inst = parse_instance(failure["instance"])
        res = overlapping(inst, failure["delta"])
        assert not verify_cover(inst, res.certificate)


def test_suite_embed_families_reject_a_non_injective_oracle_certificate(monkeypatch):
    def corrupted(G, T):
        # same answer, but a leaf (the first node in post-order) shares the
        # root's host
        res = tree_embed_backtrack(G, T)
        if res.is_yes and T.k > 1:
            res.certificate[T.post_order[0]] = res.certificate[T.root]
        return res

    monkeypatch.setattr(analysis, "tree_embed_backtrack", corrupted)
    report = run_verification_suite({"families": ["ntree", "ktree"]})
    for name in ("ntree", "ktree"):
        failures = [f for f in report["families"][name]["failures"]
                    if f["check"] == "oracle_certificate"]
        assert failures, name
        for failure in failures:
            G, T = parse_instance(failure["graph"]), parse_instance(failure["tree"])
            assert verify_embedding(G, T, tree_embed_backtrack(G, T).certificate)
            assert not verify_embedding(G, T, corrupted(G, T).certificate)


def test_suite_literal_variant_reports_over_accepts():
    literal = VerifyConfig(variant="literal", families=("ntree",), trials={"ntree": 20})
    # "paper" is the CLI's alias of "literal" and is judged the same way
    paper = VerifyConfig.from_dict({"variant": "paper", "families": ["ntree"],
                                    "trials": {"ntree": 20}})
    for cfg in (literal, paper):
        report = run_verification_suite(cfg)
        assert report["config"]["variant"] == "literal"
        fam = report["families"]["ntree"]
        assert not [f for f in fam["failures"] if f.get("check") == "completeness"]
        assert "over_accepts" in fam["notes"]


def test_suite_config_from_dict_and_unknown_family():
    report = run_verification_suite({"families": ["partition_facts"], "seed": 3})
    assert list(report["families"]) == ["partition_facts"]
    with pytest.raises(PreconditionError):
        run_verification_suite({"families": ["nope"]})
    # rejected while the config is read, before any family runs
    with pytest.raises(PreconditionError, match="unknown variant"):
        VerifyConfig.from_dict({"variant": "nope"})


def _is_one_ham_cycle(G):
    succ = dict(G.edges)
    if len(G.edges) != G.num_nodes or len(succ) != G.num_nodes:
        return False
    u, seen = 0, set()
    while u not in seen:
        seen.add(u)
        u = succ[u]
    return u == 0 and len(seen) == G.num_nodes


def test_suite_ham_minimizes_an_equivalence_failure(monkeypatch):
    monkeypatch.setattr(analysis, "heldkarp_ham", lambda G: SolveResult("no"))
    report = run_verification_suite({"families": ["ham"]})
    *flagged, coverage = report["families"]["ham"]["failures"]
    assert coverage == {"check": "coverage", "yes": 0, "no": 20}
    assert flagged
    for failure in flagged:
        assert failure["check"] == "equivalence" and "delta" in failure
        assert _is_one_ham_cycle(parse_instance(failure["graph"]))


def test_suite_ntree_minimizes_an_equivalence_failure(monkeypatch):
    def never_yes(G, T):
        res = tree_embed_backtrack(G, T)
        return SolveResult("no", stats=res.stats)

    monkeypatch.setattr(analysis, "tree_embed_backtrack", never_yes)
    report = run_verification_suite({"families": ["ntree"]})
    *flagged, coverage = report["families"]["ntree"]["failures"]
    assert coverage["check"] == "coverage" and coverage["yes"] == 0
    assert flagged
    for failure in flagged:
        assert set(failure) == {"check", "graph", "tree", "backtrack"}
        assert failure["check"] == "equivalence" and failure["backtrack"] is False
        G, T = parse_instance(failure["graph"]), parse_instance(failure["tree"])
        assert solve_ntree_via_setcover(G, T, 6)
        for e in G.edges:
            assert not solve_ntree_via_setcover(Digraph(G.num_nodes, G.edges - {e}), T, 6)


def test_suite_solver_agreement_minimizes_a_dp_disagreement(monkeypatch):
    def off_by_one(inst):
        res = setcover_dp(inst)
        if res.answer == "optimum":
            res.optimum += 1
        return res

    monkeypatch.setattr(analysis, "setcover_dp", off_by_one)
    report = run_verification_suite({"families": ["solver_agreement"]})
    failures = report["families"]["solver_agreement"]["failures"]
    assert failures and {f["check"] for f in failures} == {"dp_vs_bruteforce"}
    for failure in failures:
        inst = parse_instance(failure["instance"])
        assert setcover_bruteforce(inst).answer == "optimum"
        for j in range(inst.m):
            fewer = SetCoverInstance(inst.n, inst.sets[:j] + inst.sets[j + 1:])
            assert setcover_bruteforce(fewer).answer == "infeasible"


# sha256 of the report's JSON (sort_keys=True), taken at commit 8e056de and
# re-taken when the sc/ppc trees began to stop at the preprocessing optimum
# (partial_ktree's trees_embedded fell by one)
_REPORT_DIGESTS = [
    ({"seed": 0}, "853af746a1904c79fc8a62a6f2749ebc6cee2d15f4ae043d46c868c6d87eabce"),
    ({"seed": 1}, "aaf2439796c7a543cdabc4ae2ce91e8bbbc4d7eb8761b13eb22902cc9e56a8ff"),
    ({"variant": "literal"},
     "53dccbc0dd35f45905a7aadd468bf2352eb14ab1779cb7ab7b007a2dc9cd688c"),
]


@pytest.mark.parametrize("config, digest", _REPORT_DIGESTS, ids=["seed0", "seed1", "literal"])
def test_suite_full_report_matches_the_pinned_digest(config, digest):
    report = json.dumps(run_verification_suite(config), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest
