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
    _minimize_edges,
    _minimize_sets,
)
from xcover.errors import PreconditionError
from xcover.instances import Digraph, SetCoverInstance, gen_random, parse_instance
from xcover.reductions import ntree_to_setcover, solve_setcover_via_ktree
from xcover.solvers import (
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
    smaller = _minimize_edges(g, lambda c: (0, 1) in c.edges)
    assert smaller.edges == frozenset({(0, 1)})
    inst = SetCoverInstance(3, ((0,), (1,), (2,), (0, 1)))
    mini = _minimize_sets(inst, lambda c: setcover_dp(c).answer == "optimum")
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
    report = run_verification_suite({"families": ["colorcoding"]})
    assert report["passed"]
    fam = report["families"]["colorcoding"]
    notes = fam["notes"]
    assert notes["yes"] > 0 and notes["no"] > 0 and notes["missed_yes"] == 0
    assert notes["yes"] + notes["no"] == fam["cases"]
    # every no came from the sieve
    assert notes["sieve_answers"] >= notes["no"]
    single = run_verification_suite({"families": ["colorcoding"],
                                     "trials": {"colorcoding": 1}})
    notes = single["families"]["colorcoding"]["notes"]
    assert single["families"]["colorcoding"]["failures"] == [
        {"check": "coverage", "yes": notes["yes"], "no": notes["no"]}]
    # a sieve that always returns zero
    monkeypatch.setattr(kernels, "tree_sieve", lambda *args: 0)
    broken = run_verification_suite({"families": ["colorcoding"]})["families"]["colorcoding"]
    assert broken["notes"]["missed_yes"] > 0
    assert {"check": "missed_yes", "count": broken["notes"]["missed_yes"]} in broken["failures"]


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
    report = run_verification_suite({"families": ["ntree", "colorcoding"]})
    for name in ("ntree", "colorcoding"):
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
