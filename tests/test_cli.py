import hashlib
import json
import os
import subprocess
import sys

import pytest

from xcover import kernels
from xcover.cli import main
from xcover.instances import Digraph, PatternTree, gen_planted, parse_instance, serialize_instance
from xcover.solvers import verify_embedding


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def sc_file(tmp_path):
    path = tmp_path / "a.sc"
    path.write_text("p setcover 3 2\n0 1\n1 2\n")
    return str(path)


def test_solve_setcover_record(run, sc_file):
    code, out, _ = run("solve", "setcover", sc_file)
    assert code == 0
    record = json.loads(out)
    assert record["optimum"] == 2
    assert record["answer"] == "optimum"
    assert record["kind"] == "setcover"
    assert sc_file in record["inputs"]
    assert "wall_time" not in record["stats"]


def test_solve_missing_file_exits_2(run):
    code, out, err = run("solve", "setcover", "/nonexistent/missing.sc")
    assert code == 2
    assert "not found" in err


def test_malformed_file_exits_2(run, tmp_path):
    path = tmp_path / "bad.sc"
    path.write_text("p setcover 3 2\n0 9\n1 2\n")
    code, _, err = run("solve", "setcover", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [("solve", "embed"), ("solve", "ktree"),
                                  ("pipeline", "ntree"), ("pipeline", "ham")])
def test_digraph_file_error_names_its_line(run, tmp_path, argv):
    graph, tree = tmp_path / "g.digraph", tmp_path / "t.tree"
    graph.write_text("p digraph 3 2\n0 1\n1 5\n")
    tree.write_text("p tree 3\n0 1\n1 2\n")
    files = [str(graph)] + ([str(tree)] if argv[1] != "ham" else [])
    code, out, err = run(*argv, *files)
    assert code == 2 and out == ""
    assert err == "error: line 3: edge (1, 5) out of range [0, 3)\n"


def test_graph_reader_rejects_other_records(run, tmp_path):
    path = tmp_path / "t.tree"
    path.write_text("p tree 2\n0 1\n")
    code, _, err = run("solve", "embed", str(path), str(path))
    assert code == 2
    assert err == f"error: {path}: expected a digraph or graph record\n"


@pytest.mark.parametrize("argv", [("solve", "setcover", "x"), ("solve", "embed", "x", "t")])
def test_non_utf8_file_is_a_format_error(run, tmp_path, argv):
    bad = tmp_path / "x"
    bad.write_bytes(b"\xffp setcover 2 1\n0 1\n")
    (tmp_path / "t").write_text("p tree 2\n0 1\n")
    code, out, err = run(*argv[:2], *(str(tmp_path / f) for f in argv[2:]))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_capacity_exits_3(run, tmp_path):
    path = tmp_path / "big.sc"
    n = 30
    lines = [f"p setcover {n} {n}"] + [str(i) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run("solve", "setcover", str(path))
    assert code == 3


def test_large_set_preprocessing_is_capped(run, tmp_path):
    from xcover.errors import CapacityError
    from xcover.reductions import setcover_preprocess_large

    # with g = 2 and p = 20 a set of 5 or more elements is large
    text = "p partialcover 25 3 20\n0 1 2 3 4 5 6 7\n8 9\n10 11\n"
    with pytest.raises(CapacityError):
        setcover_preprocess_large(parse_instance(text, "partialcover"), 2)
    path = tmp_path / "wide.pc"
    path.write_text(text)
    code, out, err = run("pipeline", "ppc-ktree", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _ktree_files(tmp_path):
    host, tree, _ = gen_planted("embedded_tree", seed=3, k=5, host_n=10)
    (tmp_path / "h.digraph").write_text(serialize_instance(host))
    (tmp_path / "t.tree").write_text(serialize_instance(tree))
    return [str(tmp_path / "h.digraph"), str(tmp_path / "t.tree")]


def test_ktree_budget_bounds_the_planned_trials(run, tmp_path, monkeypatch):
    # the planned trials are the sieve runs: k = 5 at failure probability
    # 1e-9 plans three, of 2^5 passes each
    files = [*_ktree_files(tmp_path), "--failure-prob", "1e-9"]
    sieve = kernels.tree_sieve
    monkeypatch.setattr(kernels, "tree_sieve", None)  # the exit comes before any sieve run
    code, out, err = run("solve", "ktree", *files, "--budget", "95")
    assert code == 3 and out == ""
    assert err == "error: ktree plans 96 sieve passes, more than the budget of 95\n"
    monkeypatch.setattr(kernels, "tree_sieve", sieve)
    code, out, _ = run("solve", "ktree", *files, "--budget", "96")
    record = json.loads(out)
    assert code == 0 and record["answer"] == "yes"
    # the first run is nonzero, and the embedder takes 9 units on the whole host
    assert record["stats"] == {"explored": 9, "sieve_runs": 1}


def test_ktree_budget_bounds_the_planned_sieve_passes(run, tmp_path):
    # three complete layers of five decoy nodes, where a 5-node path runs
    # out of arcs, then the path itself on hosts 15-19: the embedder spends
    # 195 units on the whole host
    arcs = [(a, b) for a in range(10) for b in range(5 * (a // 5 + 1), 5 * (a // 5 + 2))]
    host = Digraph(20, frozenset(arcs + [(15 + i, 16 + i) for i in range(4)]))
    path = PatternTree(5, 0, (-1, 0, 1, 2, 3), ("und", "fwd", "fwd", "fwd", "fwd"))
    (tmp_path / "h.digraph").write_text(serialize_instance(host))
    (tmp_path / "t.tree").write_text(serialize_instance(path))
    files = [str(tmp_path / "h.digraph"), str(tmp_path / "t.tree"), "--failure-prob", "0.99"]
    code, out, _ = run("solve", "ktree", *files)
    assert code == 0 and json.loads(out)["stats"] == {"explored": 195, "sieve_runs": 1}
    # at failure probability 0.99, k = 5 plans one sieve run of 2^5 passes
    code, out, err = run("solve", "ktree", *files, "--budget", "31")
    assert code == 3 and out == ""
    assert err == "error: ktree plans 32 sieve passes, more than the budget of 31\n"
    # 32 units do not reach the path on the whole host, so the sieve drops
    # the 15 decoys, one run each, and the embedder takes the hosts left
    code, out, _ = run("solve", "ktree", *files, "--budget", "32")
    record = json.loads(out)
    assert code == 0 and record["answer"] == "yes"
    assert record["stats"] == {"explored": 20, "sieve_runs": 16}
    mapping = {int(v): u for v, u in record["certificate"].items()}
    assert verify_embedding(host, path, mapping)
    assert sorted(mapping.values()) == [15, 16, 17, 18, 19]


@pytest.mark.parametrize("tree, bad, answer", [
    (PatternTree(3, 0, (-1, 0, 1), ("und",) * 3), "5", "no"),  # more tree nodes than hosts
    (PatternTree(1, 0, (-1,), ("und",)), "-1", "yes"),
])
def test_ktree_rejects_a_bad_failure_prob_before_its_early_answers(run, tmp_path, tree, bad,
                                                                   answer):
    (tmp_path / "h.digraph").write_text(serialize_instance(Digraph(2, frozenset({(0, 1)}))))
    (tmp_path / "t.tree").write_text(serialize_instance(tree))
    files = [str(tmp_path / "h.digraph"), str(tmp_path / "t.tree")]
    code, out, err = run("solve", "ktree", *files, "--failure-prob", bad)
    assert code == 3 and out == ""
    assert err == "error: failure_prob must lie in (0, 1)\n"
    code, out, _ = run("solve", "ktree", *files)
    assert code == 0 and json.loads(out)["answer"] == answer


def test_unknown_subcommand_exits_2(run):
    code, _, _ = run("frobnicate")
    assert code == 2


def test_byte_identical_reruns(run, sc_file):
    _, out1, _ = run("solve", "setcover", sc_file)
    _, out2, _ = run("solve", "setcover", sc_file)
    assert out1 == out2


def test_bounds_example(run):
    code, out, _ = run("bounds", "--ntilde", "64", "--delta", "8")
    assert code == 0
    record = json.loads(out)
    assert record["count_bound_log2"] == 432.0
    assert record["element_bound"] == 136.0


@pytest.mark.parametrize("argv,message", [
    (["--ntilde", "64", "--delta", "0"], "delta >= 1"),
    (["--ntilde", "64", "--delta", "-3"], "delta >= 1"),
    (["--ntilde", "0", "--delta", "8"], "--ntilde"),
    (["--ntilde", "-5", "--delta", "8"], "--ntilde"),
    (["--ntilde", "64", "--delta", "8", "--epsilon", "0"], "eps"),
    (["--ntilde", "64", "--delta", "8", "--epsilon", "-0.5"], "eps"),
    (["--ntilde", "64", "--delta", "8", "--epsilon", "1.5"], "eps"),
], ids=["delta-0", "delta-neg", "ntilde-0", "ntilde-neg", "eps-0", "eps-neg", "eps-over-1"])
def test_bounds_rejects_values_outside_the_formulas(run, argv, message):
    code, out, err = run("bounds", *argv)
    assert code == 3 and out == ""
    assert message in err


def test_partitions_count(run):
    code, out, _ = run("partitions", "--count", "10")
    record = json.loads(out)
    assert code == 0 and record["count"] == 42


def test_partitions_list(run):
    code, out, _ = run("partitions", "--count", "5", "--list")
    record = json.loads(out)
    assert len(record["partitions"]) == 7
    assert record["partitions"][0] == [5]


def test_generate_round_trips(run, tmp_path):
    out_path = tmp_path / "g.digraph"
    code, _, _ = run("generate", "digraph", "--n", "6", "--edge-probability", "0.4",
                     "--seed", "3", "--out", str(out_path))
    assert code == 0
    g = parse_instance(out_path.read_text(), "digraph")
    assert g.num_nodes == 6


def test_generate_planted_with_witness(run, tmp_path):
    out_path = tmp_path / "h.digraph"
    wit_path = tmp_path / "w.json"
    code, _, _ = run("generate", "ham-cycle", "--n", "6", "--extra-edges", "2",
                     "--seed", "1", "--out", str(out_path), "--witness-out", str(wit_path))
    assert code == 0
    witness = json.loads(wit_path.read_text())
    assert sorted(witness["order"]) == list(range(6))


# (seed, k, host n, oriented) -> certificate of `solve embed`, re-taken when
# the leaves came to be read off the search's b-matching (seed 2's leaves 4
# and 5 swapped hosts)
EMBED_GOLDEN_PLANTED = {
    (1, 6, 9, False): {"0": 0, "1": 3, "2": 2, "3": 7, "4": 1, "5": 4},
    (2, 7, 10, True): {"0": 6, "1": 5, "2": 1, "3": 4, "4": 3, "5": 8, "6": 2},
    (3, 8, 12, False): {"0": 4, "1": 6, "2": 3, "3": 5, "4": 1, "5": 2, "6": 7, "7": 0},
    (4, 8, 11, True): {"0": 8, "1": 0, "2": 3, "3": 4, "4": 7, "5": 6, "6": 1, "7": 5},
}
# cover seed -> {pattern tree of `reduce sc-to-ktree` (n=8, m=6, g=2):
# sha256 prefix of the certificate's JSON, or None for a no}
EMBED_GOLDEN_REDUCED = {
    5: {"produced_000000.tree": None, "produced_000017.tree": "feb8877f47cb6ad8",
        "produced_000018.tree": "b1db9de57cfd4f81"},
    6: {"produced_000000.tree": None, "produced_000017.tree": "5a7e88c615212ed2",
        "produced_000018.tree": "97acb4cd150aeba5"},
}


def test_solve_embed_golden_certificates(run, tmp_path):
    for (seed, k, host_n, oriented), expected in EMBED_GOLDEN_PLANTED.items():
        base = str(tmp_path / f"e{seed}")
        run("generate", "embedded-tree", "--k", str(k), "--host-n", str(host_n),
            "--seed", str(seed), "--edge-probability", "0.2", "--out", base,
            *(["--oriented"] if oriented else []))
        code, out, _ = run("solve", "embed", base + ".graph", base + ".tree")
        assert code == 0
        assert json.loads(out)["certificate"] == expected, seed
    for seed, trees in EMBED_GOLDEN_REDUCED.items():
        sc = str(tmp_path / f"s{seed}.sc")
        emit = tmp_path / f"r{seed}"
        run("generate", "covered-universe", "--n", "8", "--m", "6", "--max-set-size", "2",
            "--seed", str(seed), "--out", sc)
        run("reduce", "sc-to-ktree", sc, "--g", "2", "--emit-dir", str(emit))
        for name, digest in trees.items():
            code, out, _ = run("solve", "embed", str(emit / "host.graph"), str(emit / name))
            record = json.loads(out)
            assert code == 0
            if digest is None:
                assert (record["answer"], record["certificate"]) == ("no", None)
            else:
                text = json.dumps(record["certificate"], sort_keys=True)
                assert record["answer"] == "yes"
                assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (seed, name)


def test_solve_ham_pipeline_agree(run, tmp_path):
    g, _ = gen_planted("ham_cycle", seed=4, n=6, extra_edges=3)
    path = tmp_path / "g.digraph"
    path.write_text(serialize_instance(g))
    code, out, _ = run("solve", "ham", str(path))
    assert code == 0 and json.loads(out)["answer"] == "yes"
    code, out, _ = run("pipeline", "ham", str(path), "--delta", "2")
    assert code == 0 and json.loads(out)["answer"] == "yes"


def test_pipeline_ntree_variants(run, tmp_path):
    g, t, _ = gen_planted("embedded_tree", seed=6, k=5, host_n=5,
                          extra_edge_probability=0.3)
    gp = tmp_path / "g.digraph"
    tp = tmp_path / "t.tree"
    gp.write_text(serialize_instance(g))
    tp.write_text(serialize_instance(t))
    for variant in ("anchored", "paper", "literal"):
        code, out, _ = run("pipeline", "ntree", str(gp), str(tp),
                           "--delta", "6", "--variant", variant)
        assert code == 0
        assert json.loads(out)["answer"] == "yes"


@pytest.mark.parametrize("kind", ["ntree", "ham"])
def test_stream_pipeline_budget_bounds_the_built_instances(run, tmp_path, kind):
    graph, tree = str(tmp_path / "g.digraph"), str(tmp_path / "t.tree")
    if kind == "ntree":
        g, t, _ = gen_planted("embedded_tree", seed=1, k=7, host_n=7,
                              extra_edge_probability=0.3)
        (tmp_path / "t.tree").write_text(serialize_instance(t))
        argv = ["pipeline", "ntree", graph, tree, "--delta", "6"]
    else:
        g, _ = gen_planted("ham_cycle", seed=1, n=8, extra_edges=8)
        argv = ["pipeline", "ham", graph, "--delta", "2"]
    (tmp_path / "g.digraph").write_text(serialize_instance(g))
    code, out, _ = run(*argv)
    stats = json.loads(out)["stats"]
    assert code == 0 and json.loads(out)["answer"] == "yes"
    # skip counts build nothing, so only the built instances spend the budget
    built = stats["instances_examined"] - stats["instances_filtered"]
    assert 1 < built < stats["instances_examined"]
    assert run(*argv, "--budget", str(built)) == (0, out, "")
    code, out, err = run(*argv, "--budget", str(built - 1))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pipeline_rejects_jobs_below_one_and_the_parser_survives(run, tmp_path):
    # there is no --jobs option: every value of it is a usage error
    g, _ = gen_planted("ham_cycle", seed=8, n=6, extra_edges=2)
    path = tmp_path / "g.digraph"
    path.write_text(serialize_instance(g))
    for jobs in ("0", "1", "2"):
        code, out, err = run("pipeline", "ham", str(path), "--jobs", jobs)
        assert code == 2 and out == ""
        assert "--jobs" in err and "usage:" in err
    code, out, _ = run("--version")
    assert code == 0 and out.startswith("xcover ")
    argv = ["pipeline", "ham", str(path), "--delta", "2"]
    code, out, _ = run(*argv)
    assert code == 0
    record = json.loads(out)
    assert record["parameters"] == {"delta": 2, "kind": "ham"}
    assert record["stats"]["instances_distinct"] >= 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run([sys.executable, "-m", "xcover.cli", *argv],
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == 0 and fresh.stdout == out
    fresh = subprocess.run([sys.executable, "-m", "xcover.cli", *argv, "--jobs", "2"],
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == 2 and fresh.stdout == "" and "usage:" in fresh.stderr


@pytest.mark.parametrize("kind", ["sc-ktree", "ppc-ktree"])
def test_pipeline_ktree_rejects_g_zero(run, tmp_path, kind):
    path = tmp_path / "i.sc"
    path.write_text({"sc-ktree": "p setcover 8 4\n0 1\n2 3\n4 5\n6 7\n",
                     "ppc-ktree": "p partialcover 8 4 6\n0 1\n2 3\n4 5\n6 7\n"}[kind])
    code, out, err = run("pipeline", kind, str(path), "--g", "0")
    assert code == 3 and out == ""
    assert "g >= 2" in err


def test_pipeline_ktree_stats_pass_through(run, tmp_path):
    sc = tmp_path / "a.sc"
    sc.write_text("p setcover 8 5\n0 1\n2 3\n4 5\n6 7\n1 2\n")
    ppc = tmp_path / "a.ppc"
    ppc.write_text("p partialcover 12 6 9\n0 1\n2 3\n4 5\n6 7\n8 9\n1 2\n")
    for kind, path, optimum in (("sc-ktree", sc, 4), ("ppc-ktree", ppc, 5)):
        code, out, err = run("pipeline", kind, str(path))
        record = json.loads(out)
        assert code == 0 and record["optimum"] == optimum
        assert sorted(record["stats"]) == ["explored", "trees_tried"]
        assert record["stats"]["trees_tried"] >= 1
        assert record["stats"]["explored"] > record["stats"]["trees_tried"]
        assert "wall time" in err


def test_wall_time_only_for_solve_and_ktree_pipelines(run, tmp_path):
    sc = tmp_path / "a.sc"
    sc.write_text("p setcover 8 5\n0 1\n2 3\n4 5\n6 7\n1 2\n")
    g, _ = gen_planted("ham_cycle", seed=4, n=6, extra_edges=3)
    ham = tmp_path / "g.digraph"
    ham.write_text(serialize_instance(g))
    host, tree, _ = gen_planted("embedded_tree", seed=6, k=5, host_n=5,
                                extra_edge_probability=0.3)
    gp = tmp_path / "h.digraph"
    tp = tmp_path / "t.tree"
    gp.write_text(serialize_instance(host))
    tp.write_text(serialize_instance(tree))
    for argv, lines in ((["solve", "setcover", str(sc)], 1),
                        (["pipeline", "sc-ktree", str(sc)], 1),
                        (["pipeline", "ntree", str(gp), str(tp)], 0),
                        (["pipeline", "ham", str(ham), "--delta", "2"], 0)):
        code, out, err = run(*argv)
        assert code == 0 and out.count("\n") == 1
        assert "wall_time" not in json.loads(out)["stats"]
        timed = [line for line in err.splitlines() if line.startswith("wall time: ")]
        assert len(timed) == lines, argv
    # an error exit is not timed
    code, _, err = run("solve", "setcover", str(tmp_path / "missing.sc"))
    assert code == 2 and "wall time" not in err


def test_reduce_emit_dir(run, tmp_path):
    g, t, _ = gen_planted("embedded_tree", seed=2, k=4, host_n=4,
                          extra_edge_probability=0.4)
    gp = tmp_path / "g.digraph"
    tp = tmp_path / "t.tree"
    gp.write_text(serialize_instance(g))
    tp.write_text(serialize_instance(t))
    emit = tmp_path / "emitted"
    code, _, err = run("reduce", "ntree-to-sc", str(gp), str(tp),
                       "--delta", "6", "--emit-dir", str(emit), "--limit", "5")
    assert code == 0
    files = sorted(os.listdir(emit))
    assert files and len(files) <= 5
    text = (emit / files[0]).read_text()
    assert text.startswith("c provenance ")
    inst = parse_instance(text, "setcover")
    assert inst.n >= 1


def _parse_records(text):
    """The instances of a concatenation of records, each starting at its
    ``p`` header line; comment lines are dropped."""
    chunks = []
    for line in text.splitlines():
        if line.startswith("p "):
            chunks.append([])
        if not line.startswith("c"):
            chunks[-1].append(line)
    return [parse_instance("\n".join(chunk)) for chunk in chunks]


def test_reduce_ham_stream_parses_back(run, tmp_path):
    g, _ = gen_planted("ham_cycle", seed=3, n=4, extra_edges=2)
    path = tmp_path / "g.digraph"
    path.write_text(serialize_instance(g))
    code, out, _ = run("reduce", "ham-to-sc", str(path), "--delta", "2")
    assert code == 0
    instances = _parse_records(out)
    assert len(instances) == 3  # representative sets {0,x} for x in 1..3, one order each
    assert all(inst.n == 4 for inst in instances)
    assert all(all(len(s) == 2 for s in inst.sets) for inst in instances)


def test_reduce_sc_to_ktree_stream(run, tmp_path):
    path = tmp_path / "i.sc"
    path.write_text("p setcover 8 4\n0 1\n2 3\n4 5\n6 7\n")
    code, out, _ = run("reduce", "sc-to-ktree", str(path), "--g", "2", "--limit", "3")
    assert code == 0
    assert out.count("c provenance") == 4  # host + 3 trees
    assert "p graph" in out and "p tree" in out


def test_reduce_sc_to_ktree_removes_large_sets_first(run, tmp_path):
    from xcover.reductions import build_host_graph, setcover_preprocess_large

    path = tmp_path / "i.sc"
    # with g = 2 a set of more than 8/4 elements is large; sorted, it is set 1
    path.write_text("p setcover 8 5\n0 1\n2 3\n4 5\n6 7\n0 1 2 3 4\n")
    code, out, err = run("reduce", "sc-to-ktree", str(path), "--limit", "2")
    assert code == 0
    assert "large sets removed: 1" in err
    header = json.loads(out.splitlines()[0].removeprefix("c provenance "))
    assert header == {"g": 2, "removed_large": [1], "role": "host"}
    host = _parse_records(out)[0]
    residual = setcover_preprocess_large(parse_instance(path.read_text(), "setcover"), 2).residual
    assert host == build_host_graph(residual, 2).host
    assert out.count("p tree") == 2
    code, out, _ = run("pipeline", "sc-ktree", str(path))
    assert code == 0 and json.loads(out)["optimum"] == 3


def test_reduce_ppc_to_ktree_p_zero_emits_only_the_host(run, tmp_path):
    path = tmp_path / "i.pc"
    path.write_text("p partialcover 8 2 0\n0 1\n2 3\n")
    code, out, err = run("reduce", "ppc-to-ktree", str(path))
    assert code == 0
    assert out.count("c provenance") == 1 and "p tree" not in out
    assert "0 trees" in err


def test_reduce_rejects_negative_limit(run, tmp_path):
    path = tmp_path / "i.sc"
    path.write_text("p setcover 8 4\n0 1\n2 3\n4 5\n6 7\n")
    code, out, err = run("reduce", "sc-to-ktree", str(path), "--limit", "-1")
    assert code == 3 and out == "" and "--limit" in err


def test_verify_subcommand(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": ["partition_facts", "roundtrip"],
                               "trials": {"roundtrip": 5, "partition_facts": 8}}))
    out_path = tmp_path / "report.json"
    code, _, _ = run("verify", "--config", str(cfg), "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["passed"]
    assert set(report["families"]) == {"partition_facts", "roundtrip"}


def test_verify_rejects_trial_counts_below_one(run, tmp_path):
    for trials in ("0", "-1", "two"):
        code, out, err = run("verify", "--trials", trials)
        assert code == 2 and out == ""
        assert "--trials" in err and "usage:" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": ["roundtrip"], "trials": {"roundtrip": 0}}))
    code, out, err = run("verify", "--config", str(cfg))
    assert code == 3 and out == ""
    assert "roundtrip" in err


@pytest.mark.parametrize("text, code", [
    ('{"trials": {"roundtrip": "x"}}', 3),
    ('{"trials": {"roundtrip": 2.7}}', 3),
    ('{"trials": {"roundtrip": true}}', 3),
    ('{"trials": {"nosuch": 3}}', 3),
    ('{"trials": [1]}', 3),
    ('{"families": 3}', 3),
    ('{"seed": "abc"}', 3),
    ('{"seed": 1.5}', 3),
    ('{"variant": "nope"}', 3),
    ('["roundtrip"]', 3),
    ('{"seed": ', 2),
])
def test_verify_rejects_a_bad_config_file(run, tmp_path, text, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    got, out, err = run("verify", "--config", str(cfg))
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["tree", "--k", "0"],
    ["embedded-tree", "--k", "0"],
    ["digraph", "--n", "-1"],
    ["partialcover"],
    ["partialcover", "--p", "99"],
    ["covered-universe", "--n", "0"],
    ["ham-cycle", "--n", "4", "--extra-edges", "-1"],
    ["digraph", "--edge-probability", "2"],
    ["graph", "--edge-probability", "nan"],
    ["embedded-tree", "--edge-probability", "-0.5"],
])
def test_generate_rejects_out_of_range_sizes(run, argv):
    code, out, err = run("generate", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["solve", "setcover"], ["verify", "--config"]])
def test_unreadable_input_path_exits_2(run, tmp_path, argv):
    (tmp_path / "a.sc").write_text("p setcover 1 1\n0\n")
    # a directory, and a path through a regular file
    for path in (tmp_path, tmp_path / "a.sc" / "x"):
        code, out, err = run(*argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot open {path}: ") and err.count("\n") == 1


def test_env_cap_override_via_subprocess(tmp_path):
    path = tmp_path / "a.sc"
    path.write_text("p setcover 9 1\n0 1 2 3 4 5 6 7 8\n")

    def solve(cap):
        env = dict(os.environ, XCOVER_CAP_N=cap,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-m", "xcover.cli",
                               "solve", "setcover", str(path)],
                              capture_output=True, text=True, env=env)

    proc = solve("8")
    assert proc.returncode == 3
    assert "exceed" in proc.stderr
    # not an integer, and wider than any 2^n DP table that fits in memory
    for cap in ("abc", "33"):
        proc = solve(cap)
        assert proc.returncode == 3, proc.stderr
        assert "XCOVER_CAP_N" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
