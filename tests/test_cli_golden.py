"""Golden stdout digests of a fixed ``xcover`` command corpus.

Every input is written from a seeded generator into one temporary
directory and passed by a relative path, so the ``inputs`` field of each
record is the same on every machine.  The corpus reaches every reduction
pipeline branch the CLI exposes: anchored and literal ntree (a yes, a
literal over-accept and a no), ham with one and two jobs, sc-ktree with
and without large sets and infeasible, ppc-ktree at p = 0, with large sets,
with sets on the large-set bound and plain, every ``reduce`` kind (whole
ntree and ham streams among them, and the cover kinds with large sets),
``bounds``, a small ``verify`` run (whose ``backend`` field is dropped,
because it names the kernel implementation) and every ``solve`` kind, the
only commands that reach the solvers without a reduction in front.

The pipeline, reduce, bounds and verify digests were captured at commit
2b3ddf6, before the set-cover and partial-cover drivers were merged into
one; the solve digests at commit 2e259a8, before the compiled-kernel fork
was deleted, except ``solve setcover``, ``solve exactcover`` and ``solve
partialcover``, re-taken when ``stats.explored`` became the number of
states the sparse cover kernels visit (the records differ from the earlier
ones in that value alone); the whole-stream ntree and ham digests (the
anchored ntree no-instance and the ``reduce`` runs without ``--limit``) at
commit 23a41cb, before the two streams were generated by backtracking and
per-representative-set path tables.  The ten ``pipeline ntree`` and
``pipeline ham`` digests were re-taken when their records gained
``stats.instances_distinct``, the number of distinct instances the cover
DP solved (the records differ from the earlier ones in that key alone).
``reduce sc-to-ktree`` and
``ppc-to-ktree`` on the inputs with large sets exited 3 before they
learned to remove those sets first, so their digests are of the first
output they gave.  After a change that is meant to alter stdout, print the
new digests with

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
    # guess and a pattern tree both reach the optimum
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
    "pipeline-ham-yes-jobs1": "pipeline ham ham_yes.digraph --delta 2 --jobs 1",
    "pipeline-ham-yes-jobs2": "pipeline ham ham_yes.digraph --delta 2 --jobs 2",
    "pipeline-ham-no-jobs1": "pipeline ham ham_no.digraph --delta 2 --jobs 1",
    "pipeline-ham-no-jobs2": "pipeline ham ham_no.digraph --delta 2 --jobs 2",
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
    "pipeline-ham-no-jobs1": "599cf1e60b89a5094c052e1f0cc604f46fa46c787564741a5e46c1779d07d560",
    "pipeline-ham-no-jobs2": "1714d210c202651ee1691cbaa547967af245a82d3c077a1ff929e271ba7373cd",
    "pipeline-ham-yes-jobs1": "6676b0360a555fe75626d0b9cf2fe4e3174f39a13087a14c9c221d203676e818",
    "pipeline-ham-yes-jobs2": "683d9969338e28b1414e39d3f13b65bf7630d542127ed4e138b37ce99222f5ea",
    "pipeline-ntree-no-anchored": "fa93005c42ff89614b395ef26b31f57e640d8ce39f056ada94fc930c2370046c",
    "pipeline-ntree-no-literal": "f59ceb8f8dbc22548cff8dead82e124534e2a28225caebf845a3f6ebbeb8fdf7",
    "pipeline-ntree-over-anchored": "ac2dba92d4c4c18188ba6123c7771e5a0893b506d91e37699a42b0af51dea44e",
    "pipeline-ntree-over-literal": "2597741f045db8810dc11c732dbce6cdcae778c8495192a22300f2e99c1023a1",
    "pipeline-ntree-yes-anchored": "54f130a6265d03475320ab990b16748a8ebc8965b89d4a70ceca10fc5f17cf03",
    "pipeline-ntree-yes-literal": "1cc2d38ddc54d922a466da149c7b6f5337cff09cdb11df7cfe2eb30ef4d6efed",
    "pipeline-ppc-ktree-bound": "c0a5ae1795c5066068585aecb59a4e263a7197b07ee1acc9d815ce700b00fe1a",
    "pipeline-ppc-ktree-large": "555d6266d795aac444e3abe28e1075ca0e17b50413984185dc78c72bc570f384",
    "pipeline-ppc-ktree-p0": "e8c651aa3c48daeb3f36f3a0696c49f27cc2ecf1383f2d489d5e476f093fa922",
    "pipeline-ppc-ktree-small": "e109aefac8c9b1523b3c644052544f249ee41a12872366de3c42a34693dfc4ed",
    "pipeline-sc-ktree-infeasible": "1a4b874e0c9ba4ae1a488ee5107865020ad0e0ac410983df60090834ea4bdd7b",
    "pipeline-sc-ktree-large": "5667d3117037c25cc58a1e1c0e285ae227503f0e16c034a9bb5e427eac008c72",
    "pipeline-sc-ktree-small": "2a606d75e5b9c615947178fed876cdda37591e604ea13e14c1e61ecc960cbd37",
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
    "verify": "3449532e209c718ae00f10cbc37eac88c2d323703369c27e8768e5847ba3b146",
    "solve-embed": "165ee9c0e8b62cb9532496aaa33042ee2889ca02e7d569c337cd80d9956ece3e",
    "solve-exactcover": "5e5eab674b852ed15c13ac14bc92459f08e8e7076640f4fe0abe98d0be4deff2",
    "solve-exactcover-delta3": "44512d83bdbbf838acf99d46945551f70a0a5c06b84b7b155fe9068409c6ed94",
    "solve-ham-no": "12ba2dcfbd4e8fb95f0b896772ccc89a53309a716ee983c954b3da5f84e290df",
    "solve-ham-yes": "0769b272f56ce5385cec5b77586c224360b9975812ff8ca63fb2fda9d793fe9a",
    "solve-ktree-seed0": "3d910b2d07db427f46b9d5e644380d54ead19b56c0054d9566cc4321b1fd21d7",
    "solve-ktree-seed5": "aca0af99f18f92f2466def745d5d49deb3695e4daad2a21724cec7f9581cd29b",
    "solve-partialcover": "14433d7405c3b1b47d344ae4c576d2ebbaa8dbdfae2a3ab1c2cf7760c6f58a3e",
    "solve-setcover": "004223f62691b1e76e6fe3204948a41da9b7014709604335f6b61f8aab278ea2",
}


def _write_inputs(directory):
    for name, text in _inputs().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _stdout_digest(name, out):
    if name == "verify":
        report = json.loads(out)
        del report["backend"]
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
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
    assert _stdout_digest(name, out) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        os.chdir(directory)
        for case in sorted(CASES):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(CASES[case].split())
            sys.stderr.write(f"{case}: exit {code}\n")
            print(f"    \"{case}\": \"{_stdout_digest(case, buf.getvalue())}\",")
