"""Golden stdout digests of a fixed ``xcover`` command corpus.

Every input is written from a seeded generator into one temporary
directory and passed by a relative path, so the ``inputs`` field of each
record is the same on every machine.  The corpus reaches every reduction
pipeline branch the CLI exposes: anchored and literal ntree (a yes, a
literal over-accept and a no), ham with one and two jobs, sc-ktree with
and without large sets and infeasible, ppc-ktree at p = 0, with large sets,
with sets on the large-set bound and plain, every ``reduce`` kind,
``bounds``, a small ``verify`` run (whose ``backend`` field is dropped,
because it names the kernel implementation) and every ``solve`` kind, the
only commands that reach the solvers without a reduction in front.

The pipeline, reduce, bounds and verify digests were captured at commit
2b3ddf6, before the set-cover and partial-cover drivers were merged into
one; the solve digests at commit 2e259a8, before the compiled-kernel fork
was deleted.  After a change that is meant to alter stdout, print the new
digests with

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
    "reduce-ham-to-sc": "reduce ham-to-sc ham_yes.digraph --delta 2 --limit 3",
    "reduce-sc-to-ktree": "reduce sc-to-ktree sc_small.sc --limit 4",
    "reduce-ppc-to-ktree": "reduce ppc-to-ktree ppc_small.pc --limit 4",
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
    "pipeline-ham-no-jobs1": "46e7a2a3f6701d46f31ac129c13c32f4e75309a060e94dc8512022907fb4ef32",
    "pipeline-ham-no-jobs2": "f351b818177c256c7e5b85e698130ddb675a9a21dc246d77d2353d9a068e74b8",
    "pipeline-ham-yes-jobs1": "d92069413b2c9b74812971e1dc7938395b10c812f3f78feedd053e539b6a2bef",
    "pipeline-ham-yes-jobs2": "48bf0ef664ceab15a4d419ae6f318be60e97df303fb25237e85039a12c717732",
    "pipeline-ntree-no-literal": "16225bad40f3735f956f59ec1ab6c4d5d29deee3db1d8673d55962796fd7694a",
    "pipeline-ntree-over-anchored": "845e6da73419bbc4f763022537f086fe48babd71100700c9660b4d03fc775335",
    "pipeline-ntree-over-literal": "30bfcf89258f5cd171d495b336714ecc2d9cf076cced338ec38defb4a9bfc2a3",
    "pipeline-ntree-yes-anchored": "85cb21dd2483e2519f993ac43b58a2a11e73a914e805023f73a7abf498c2aba0",
    "pipeline-ntree-yes-literal": "8f8e8a9ef97654be1f295a78738523bfd5fe4fa672fc85a2535af865261e42ce",
    "pipeline-ppc-ktree-bound": "c0a5ae1795c5066068585aecb59a4e263a7197b07ee1acc9d815ce700b00fe1a",
    "pipeline-ppc-ktree-large": "555d6266d795aac444e3abe28e1075ca0e17b50413984185dc78c72bc570f384",
    "pipeline-ppc-ktree-p0": "e8c651aa3c48daeb3f36f3a0696c49f27cc2ecf1383f2d489d5e476f093fa922",
    "pipeline-ppc-ktree-small": "e109aefac8c9b1523b3c644052544f249ee41a12872366de3c42a34693dfc4ed",
    "pipeline-sc-ktree-infeasible": "1a4b874e0c9ba4ae1a488ee5107865020ad0e0ac410983df60090834ea4bdd7b",
    "pipeline-sc-ktree-large": "5667d3117037c25cc58a1e1c0e285ae227503f0e16c034a9bb5e427eac008c72",
    "pipeline-sc-ktree-small": "2a606d75e5b9c615947178fed876cdda37591e604ea13e14c1e61ecc960cbd37",
    "reduce-ham-to-sc": "9b8140d5d65db841f95fd15dada90b1b1e3de5c299eff9e4a1ecfc9b838b9a6a",
    "reduce-ntree-to-sc": "44e830f83d67f75cd254173c62b1247458820c65aa2dd303f761c4c5e143c143",
    "reduce-ppc-to-ktree": "37c5a788c18bef0a0658dcd480cb3485f245472f255f931684be6bf5d93f5e0f",
    "reduce-sc-to-ktree": "ddb6b9039c0c95293cbd8c30a0196edbb486cc75bb6739c0d7d60d5ff33539b5",
    "verify": "3449532e209c718ae00f10cbc37eac88c2d323703369c27e8768e5847ba3b146",
    "solve-embed": "165ee9c0e8b62cb9532496aaa33042ee2889ca02e7d569c337cd80d9956ece3e",
    "solve-exactcover": "d82023ddc2d378efa74305b4d619aeb7e4c435a9a673fd00eda947b9b38b81b5",
    "solve-exactcover-delta3": "44512d83bdbbf838acf99d46945551f70a0a5c06b84b7b155fe9068409c6ed94",
    "solve-ham-no": "12ba2dcfbd4e8fb95f0b896772ccc89a53309a716ee983c954b3da5f84e290df",
    "solve-ham-yes": "0769b272f56ce5385cec5b77586c224360b9975812ff8ca63fb2fda9d793fe9a",
    "solve-ktree-seed0": "3d910b2d07db427f46b9d5e644380d54ead19b56c0054d9566cc4321b1fd21d7",
    "solve-ktree-seed5": "aca0af99f18f92f2466def745d5d49deb3695e4daad2a21724cec7f9581cd29b",
    "solve-partialcover": "b96c890ac5c7efcf56db9ccff619475e67760a816906fc9801b3763e5d51f7f9",
    "solve-setcover": "977a3a8b6ba3d5efdbd8b7213949f12d152d350767df52fedd6b50ce4596e6e0",
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
