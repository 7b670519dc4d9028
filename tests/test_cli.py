import hashlib
import json
import os
import subprocess
import sys

import pytest

from xcover.cli import main
from xcover.instances import gen_planted, parse_instance, serialize_instance


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


def test_capacity_exits_3(run, tmp_path):
    path = tmp_path / "big.sc"
    n = 30
    lines = [f"p setcover {n} {n}"] + [str(i) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run("solve", "setcover", str(path))
    assert code == 3


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


# (seed, k, host n, oriented) -> certificate of `solve embed`, captured
# before the leaf matching became incremental
EMBED_GOLDEN_PLANTED = {
    (1, 6, 9, False): {"0": 0, "1": 3, "2": 2, "3": 7, "4": 1, "5": 4},
    (2, 7, 10, True): {"0": 6, "1": 5, "2": 1, "3": 4, "4": 8, "5": 3, "6": 2},
    (3, 8, 12, False): {"0": 4, "1": 6, "2": 3, "3": 5, "4": 1, "5": 2, "6": 7, "7": 0},
    (4, 8, 11, True): {"0": 8, "1": 0, "2": 3, "3": 4, "4": 7, "5": 6, "6": 1, "7": 5},
}
# cover seed -> {pattern tree of `reduce sc-to-ktree` (n=8, m=6, g=2):
# sha256 prefix of the certificate's JSON, or None for a no}
EMBED_GOLDEN_REDUCED = {
    5: {"produced_000000.tree": None, "produced_000017.tree": "6e0ac4202be388a4",
        "produced_000018.tree": "a1c475b462fa810e"},
    6: {"produced_000000.tree": None, "produced_000017.tree": "1329a616c90c47cd",
        "produced_000018.tree": "9a00ad48e4605b86"},
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


def test_pipeline_jobs_answer_stable(run, tmp_path):
    g, _ = gen_planted("ham_cycle", seed=8, n=6, extra_edges=2)
    path = tmp_path / "g.digraph"
    path.write_text(serialize_instance(g))
    answers = {}
    for jobs in (1, 2):
        code, out, _ = run("pipeline", "ham", str(path), "--delta", "3",
                           "--jobs", str(jobs))
        assert code == 0
        answers[jobs] = json.loads(out)["answer"]
    assert answers[1] == answers[2]


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


def test_reduce_ham_stream_parses_back(run, tmp_path):
    from xcover.instances import iter_instances

    g, _ = gen_planted("ham_cycle", seed=3, n=4, extra_edges=2)
    path = tmp_path / "g.digraph"
    path.write_text(serialize_instance(g))
    code, out, _ = run("reduce", "ham-to-sc", str(path), "--delta", "2")
    assert code == 0
    instances = list(iter_instances(out))
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
    # not an integer, and wider than the kernels' 32-bit element masks
    for cap in ("abc", "33"):
        proc = solve(cap)
        assert proc.returncode == 3, proc.stderr
        assert "XCOVER_CAP_N" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
