"""Golden stdout digests of a fixed ``xcover`` command corpus.

Every input is written from a seeded generator into one temporary
directory and passed by a relative path, so the ``inputs`` field of each
record is the same on every machine.  The corpus reaches every reduction
pipeline branch the CLI exposes: anchored and literal ntree (a yes, a
literal over-accept and a no), ham (a yes and a no), sc-ktree with
and without large sets and infeasible, ppc-ktree at p = 0, with large sets,
with sets on the large-set bound and plain, every ``reduce`` kind (whole
ntree and ham streams among them, and the cover kinds with large sets),
``bounds``, a small ``verify`` run and every ``solve`` kind, the only
commands that reach the solvers without a reduction in front.

A digest is re-taken only by a change that is meant to alter stdout;
CHANGES.md names each such change and what moved in its records.  Print
the new digests with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from xcover.cli import main
from xcover.instances import (
    EXACT,
    PARTIAL,
    SetCoverInstance,
    gen_planted,
    gen_random,
    serialize_instance,
)


def _inputs():
    """File name -> text of every input file of the corpus."""
    files = {}
    # digraph seed 200 + s, tree seed 100 + s: s = 0 is a yes-instance,
    # s = 16 is accepted by the literal variant only, s = 8 is a no-instance
    for name, s in (("ntree_yes", 0), ("ntree_over", 16), ("ntree_no", 8)):
        files[name + ".digraph"] = serialize_instance(
            gen_random("digraph", seed=200 + s, n=7, edge_probability=0.35))
        files[name + ".tree"] = serialize_instance(
            gen_random("tree", seed=100 + s, k=7, oriented=True))
    files["ham_yes.digraph"] = serialize_instance(
        gen_random("digraph", seed=302, n=8, edge_probability=0.3))
    files["ham_no.digraph"] = serialize_instance(
        gen_random("digraph", seed=300, n=8, edge_probability=0.3))
    files["sc_small.sc"] = serialize_instance(
        gen_planted("covered_universe", seed=5, n=12, m=7, max_set_size=3)[0])
    # planted small sets plus random ones, some of them large: the large-set
    # guess reaches the optimum, and the trees stop before its part count
    small, _ = gen_planted("covered_universe", seed=1, n=12, m=6, max_set_size=3)
    extra = gen_random("setcover", seed=1, n=12, m=3, max_set_size=7)
    files["sc_large.sc"] = serialize_instance(SetCoverInstance(12, small.sets + extra.sets))
    files["sc_infeasible.sc"] = serialize_instance(
        gen_random("setcover", seed=400, n=8, m=4, max_set_size=2))
    files["ppc_p0.pc"] = serialize_instance(
        gen_random("partialcover", seed=7, n=8, m=4, max_set_size=2, p=0))
    small, _ = gen_planted("covered_universe", seed=1, n=12, m=7, max_set_size=2)
    extra = gen_random("setcover", seed=1, n=12, m=3, max_set_size=5)
    files["ppc_large.pc"] = serialize_instance(
        SetCoverInstance(12, small.sets + extra.sets, variant=PARTIAL, p=10))
    small, _ = gen_planted("covered_universe", seed=0, n=14, m=9, max_set_size=2)
    files["ppc_small.pc"] = serialize_instance(
        SetCoverInstance(14, small.sets, variant=PARTIAL, p=12))
    # the pairs sit exactly on the partial large-set bound |S|g^2 = p
    small, _ = gen_planted("covered_universe", seed=3, n=12, m=8, max_set_size=2)
    files["ppc_bound.pc"] = serialize_instance(
        SetCoverInstance(12, small.sets, variant=PARTIAL, p=8))
    # a planted exact partition with blocks of 4 and 5 elements, so --delta 3
    # has large sets to guess, plus random sets of up to 4 elements
    elems = list(range(12))
    random.Random(10).shuffle(elems)
    blocks = [elems[0:4], elems[4:6], elems[6:7], elems[7:12]]
    noise = gen_random("exactcover", seed=10, n=12, m=8, max_set_size=4).sets
    files["exact.xc"] = serialize_instance(SetCoverInstance(
        12, tuple(tuple(sorted(b)) for b in blocks) + noise, variant=EXACT))
    for name, s, k, host_n in (("ktree", 3, 7, 10), ("embed", 4, 8, 11)):
        host, tree, _ = gen_planted("embedded_tree", seed=s, k=k, host_n=host_n,
                                    oriented=True, extra_edge_probability=0.2)
        files[name + ".digraph"] = serialize_instance(host)
        files[name + ".tree"] = serialize_instance(tree)
    files["verify.json"] = json.dumps({
        "seed": 1, "families": ["ntree", "ham", "setcover_ktree", "partial_ktree"],
        "trials": {"ntree": 5, "ham": 5, "setcover_ktree": 2, "partial_ktree": 4}})
    return files


CASES = {
    "pipeline-ntree-yes-anchored": "pipeline ntree ntree_yes.digraph ntree_yes.tree",
    "pipeline-ntree-yes-literal":
        "pipeline ntree ntree_yes.digraph ntree_yes.tree --variant literal",
    "pipeline-ntree-over-anchored": "pipeline ntree ntree_over.digraph ntree_over.tree",
    "pipeline-ntree-over-literal":
        "pipeline ntree ntree_over.digraph ntree_over.tree --variant literal",
    "pipeline-ntree-no-anchored": "pipeline ntree ntree_no.digraph ntree_no.tree",
    "pipeline-ntree-no-literal":
        "pipeline ntree ntree_no.digraph ntree_no.tree --variant literal",
    "pipeline-ham-yes": "pipeline ham ham_yes.digraph --delta 2",
    "pipeline-ham-no": "pipeline ham ham_no.digraph --delta 2",
    "pipeline-sc-ktree-small": "pipeline sc-ktree sc_small.sc",
    "pipeline-sc-ktree-large": "pipeline sc-ktree sc_large.sc",
    "pipeline-sc-ktree-infeasible": "pipeline sc-ktree sc_infeasible.sc",
    "pipeline-ppc-ktree-p0": "pipeline ppc-ktree ppc_p0.pc",
    "pipeline-ppc-ktree-large": "pipeline ppc-ktree ppc_large.pc",
    "pipeline-ppc-ktree-small": "pipeline ppc-ktree ppc_small.pc",
    "pipeline-ppc-ktree-bound": "pipeline ppc-ktree ppc_bound.pc",
    "reduce-ntree-to-sc": "reduce ntree-to-sc ntree_yes.digraph ntree_yes.tree --limit 3",
    "reduce-ntree-to-sc-all-anchored": "reduce ntree-to-sc ntree_yes.digraph ntree_yes.tree",
    "reduce-ntree-to-sc-all-literal":
        "reduce ntree-to-sc ntree_yes.digraph ntree_yes.tree --variant literal",
    "reduce-ham-to-sc": "reduce ham-to-sc ham_yes.digraph --delta 2 --limit 3",
    "reduce-ham-to-sc-all-delta2": "reduce ham-to-sc ham_no.digraph --delta 2",
    "reduce-ham-to-sc-all-delta4": "reduce ham-to-sc ham_no.digraph --delta 4",
    "reduce-sc-to-ktree": "reduce sc-to-ktree sc_small.sc --limit 4",
    "reduce-sc-to-ktree-large": "reduce sc-to-ktree sc_large.sc --limit 4",
    "reduce-ppc-to-ktree": "reduce ppc-to-ktree ppc_small.pc --limit 4",
    "reduce-ppc-to-ktree-large": "reduce ppc-to-ktree ppc_large.pc --limit 4",
    "bounds": "bounds --ntilde 4096 --delta 8 --epsilon 0.9",
    "verify": "verify --config verify.json",
    "solve-setcover": "solve setcover sc_large.sc",
    "solve-exactcover": "solve exactcover exact.xc",
    "solve-exactcover-delta3": "solve exactcover exact.xc --delta 3",
    "solve-partialcover": "solve partialcover ppc_large.pc",
    "solve-ham-yes": "solve ham ham_yes.digraph",
    "solve-ham-no": "solve ham ham_no.digraph",
    "solve-ktree-seed0": "solve ktree ktree.digraph ktree.tree --seed 0",
    "solve-ktree-seed5": "solve ktree ktree.digraph ktree.tree --seed 5",
    "solve-embed": "solve embed embed.digraph embed.tree",
}

GOLDEN = {
    "bounds": "856427367579962b0810bdb7889aeeb17e2b1f7d90e3195f144a6551c677f039",
    "pipeline-ham-no": "b549b9c7f0a289ed7dd248d0dd4bb96509cd74036a9cf7ab9effbbc0d1579e64",
    "pipeline-ham-yes": "60441132225aa954ad1f29558d2ea48daefb0a1de632664a2f6b32197fb58fb2",
    "pipeline-ntree-no-anchored": "14f51230091842cd10e7b261211ed797d91e9cddc8e4567ed048bf01c33f0a99",
    "pipeline-ntree-no-literal": "f35501c7828eb0f8638f161e9a9a0c650c69e7fd280a2d6e21d29ad8925e591b",
    "pipeline-ntree-over-anchored": "37189ede37de7fbdcb8938826ea8a7a5aac1e33a6af2516f99ae97e845a2df6e",
    "pipeline-ntree-over-literal": "bb360582810a55e9d53f110efd87375e9ba5736781ac09a8a47ec3f598e199c5",
    "pipeline-ntree-yes-anchored": "1c34d37cdc67d1589499526e1776254282fcfa546da37a6de147ba261dd6ecd4",
    "pipeline-ntree-yes-literal": "29cb64e2294513dcfd1a47c91f3aae39c26e67b75630d37421fe9317be858b41",
    "pipeline-ppc-ktree-bound": "20932160aaadf6ce5a6770096dba22e4e74e0aa60298b269b1ff2a71f5605846",
    "pipeline-ppc-ktree-large": "90c264eb4a0dddb922d637b7307614a595e2d89655a5e4b82b6eeb80e8b1f734",
    "pipeline-ppc-ktree-p0": "197ddaf3ac6e42997371b7c08f1c3b18c2f053e75594ff4bb42d0004aac9e3d2",
    "pipeline-ppc-ktree-small": "b10ee8307bb3dd59548bf2cd32f87433384bcaad5a208771d8323382e4cd1af2",
    "pipeline-sc-ktree-infeasible": "8c1ea49480474838a9261358b78189d2edce59b81d7e580bc6a1721d9b51d6af",
    "pipeline-sc-ktree-large": "933a38097f612f49cfe4688d8f6f1e91bb4ff0e50dd3441b7e0a4bb3101876d7",
    "pipeline-sc-ktree-small": "1ab465f978a095df8b621f04f78e612bd60e8cec43e296476f8f7ca953f38f04",
    "reduce-ham-to-sc": "9b8140d5d65db841f95fd15dada90b1b1e3de5c299eff9e4a1ecfc9b838b9a6a",
    "reduce-ham-to-sc-all-delta2": "fe987812bc1f6b832d7d8398135d5c62c175ea5d4be320159ed6804abbb046b0",
    "reduce-ham-to-sc-all-delta4": "718058a06bd0990da020135ee8dd8a69fa4c2961b883d80062efd90cafbe0f1d",
    "reduce-ntree-to-sc": "44e830f83d67f75cd254173c62b1247458820c65aa2dd303f761c4c5e143c143",
    "reduce-ntree-to-sc-all-anchored": "5f797d2b6a997606e0879cb45d616b679bf8ae97d094ee9c94ecc4a2577bcd3f",
    "reduce-ntree-to-sc-all-literal": "374c3a26ffd5ac718ac3f78b423ed8af5bc87cbe047d676e99488d07876e58ba",
    "reduce-ppc-to-ktree": "37c5a788c18bef0a0658dcd480cb3485f245472f255f931684be6bf5d93f5e0f",
    "reduce-ppc-to-ktree-large": "f916fb2136cc911aa87efbbe0f496df1572bcfa67b2502194ba44facf4db344b",
    "reduce-sc-to-ktree": "ddb6b9039c0c95293cbd8c30a0196edbb486cc75bb6739c0d7d60d5ff33539b5",
    "reduce-sc-to-ktree-large": "b6f0334734de8476cb7119ca0596029b9973924bfd4670189432991d75675732",
    "verify": "2a5ad01b7959a89800927342971558cbfc36ffe1b3911633ca2e746154408827",
    "solve-embed": "fb9c41531c715a0867937b59dac225dbabed801ae00cd8fcbbaf8b590946f9ea",
    "solve-exactcover": "22edcad9f8e2d648b0a01cf9341c57c679955f106536a5a0888f5ada388597f1",
    "solve-exactcover-delta3": "44512d83bdbbf838acf99d46945551f70a0a5c06b84b7b155fe9068409c6ed94",
    "solve-ham-no": "7c9d6221bed2aef7c580d34fcc2004687a3a14d82987c5db54f6c33a980e8b7f",
    "solve-ham-yes": "db4f15980c6b499981236bba2a0bd6c2f48f414737b1d7380cdfd1c67b9b4e09",
    "solve-ktree-seed0": "15a2803cf73d465f0be5a76cb9d860cefa3d69f2f06cce5c1ff66d0da8912707",
    "solve-ktree-seed5": "2da04f80f803e93e4c3cc7cc2af3786eb10a345f74d382612187ef3c311d3c53",
    "solve-partialcover": "bdacf7d23bb3806523ca050e3e42b4db548c7efa12158ecc106ffd94cd5d9649",
    "solve-setcover": "dfd8593cbfb1229fa504efcf480adea531f013a12358696d682c3f4bb1998fc4",
}


def _write_inputs(directory):
    for name, text in _inputs().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _stdout_digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden_digest(name, corpus_dir, monkeypatch, capsys):
    monkeypatch.chdir(corpus_dir)
    code = main(CASES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert _stdout_digest(out) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        os.chdir(directory)
        for case in sorted(CASES):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(CASES[case].split())
            sys.stderr.write(f"{case}: exit {code}\n")
            print(f"    \"{case}\": \"{_stdout_digest(buf.getvalue())}\",")
