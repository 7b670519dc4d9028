"""Pinned exit code, stdout and stderr of ``cli.main`` over a fixed argv table.

The table reaches every command and kind (the six ``solve`` kinds, the four
``reduce`` and four ``pipeline`` kinds, ``bounds``, ``partitions`` and each
``generate`` kind) and the usage paths: no arguments, an unknown command,
``--version``, ``-h``, a subcommand's ``-h``, an unrecognized option (inside
a subcommand and before one), an invalid choice, a non-integer value, a
missing file and wrong file counts.  Each case's digest covers the exit
code, stdout and stderr with the digits of the ``wall time:`` line masked,
so a change to argument dispatch or error text shows here.  Help and usage
text is argparse's, laid out for 80 columns; a Python release that words
argparse's messages differently changes those digests, and nothing else.

Inputs are written from seeded generators into one temporary directory and
passed by relative paths.  Print the digests with

    PYTHONPATH=src python tests/test_cli_pin.py
"""

import hashlib
import io
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from xcover.cli import main
from xcover.instances import EXACT, PARTIAL, SetCoverInstance, gen_planted, serialize_instance


def _inputs():
    host, tree, _ = gen_planted("embedded_tree", seed=2, k=7, host_n=7, oriented=True,
                                extra_edge_probability=0.2)
    ham, _ = gen_planted("ham_cycle", seed=4, n=6, extra_edges=4)
    cover, _ = gen_planted("covered_universe", seed=5, n=12, m=7, max_set_size=2)
    return {
        "g.digraph": serialize_instance(host),
        "t.tree": serialize_instance(tree),
        "ham.digraph": serialize_instance(ham),
        "sc.sc": serialize_instance(cover),
        "xc.xc": serialize_instance(SetCoverInstance(
            6, ((0, 1), (2, 3, 4), (5,), (1, 2), (0, 5), (3, 4)), variant=EXACT)),
        "pc.pc": serialize_instance(SetCoverInstance(
            8, ((0,), (1,), (2,), (3,), (4,), (5,), (6, 7)), variant=PARTIAL, p=5)),
    }


CASES = {
    "solve-setcover": "solve setcover sc.sc",
    "solve-exactcover": "solve exactcover xc.xc",
    "solve-exactcover-delta": "solve exactcover xc.xc --delta 2",
    "solve-partialcover": "solve partialcover pc.pc",
    "solve-ham": "solve ham ham.digraph",
    "solve-ktree": "solve ktree g.digraph t.tree --seed 3",
    "solve-embed": "solve embed g.digraph t.tree",
    "reduce-ntree-to-sc": "reduce ntree-to-sc g.digraph t.tree --limit 2",
    "reduce-ham-to-sc": "reduce ham-to-sc ham.digraph --delta 2 --limit 2",
    "reduce-sc-to-ktree": "reduce sc-to-ktree sc.sc --limit 2",
    "reduce-ppc-to-ktree": "reduce ppc-to-ktree pc.pc --limit 2",
    "pipeline-ntree": "pipeline ntree g.digraph t.tree",
    "pipeline-ntree-literal": "pipeline ntree g.digraph t.tree --variant literal",
    "pipeline-ham": "pipeline ham ham.digraph --delta 2",
    "pipeline-sc-ktree": "pipeline sc-ktree sc.sc",
    "pipeline-ppc-ktree": "pipeline ppc-ktree pc.pc",
    "bounds": "bounds --ntilde 4096 --delta 8 --epsilon 0.9",
    "bounds-refused": "bounds --ntilde 64 --delta 6 --epsilon 0.5",
    "partitions": "partitions --count 5 --asymptotic --list",
    "generate-setcover": "generate setcover --n 6 --m 4 --seed 1",
    "generate-exactcover": "generate exactcover --n 6 --m 4 --seed 2",
    "generate-partialcover": "generate partialcover --n 6 --m 4 --p 3 --seed 3",
    "generate-digraph": "generate digraph --n 5 --seed 4",
    "generate-graph": "generate graph --n 5 --seed 5",
    "generate-tree": "generate tree --k 6 --oriented --seed 6",
    "generate-ham-cycle": "generate ham-cycle --n 5 --extra-edges 2 --seed 7",
    "generate-embedded-tree": "generate embedded-tree --k 4 --host-n 6 --oriented --seed 8",
    "generate-covered-universe": "generate covered-universe --n 6 --m 3 --seed 9",
    "usage-no-arguments": "",
    "usage-unknown-command": "frobnicate sc.sc",
    "usage-version": "--version",
    "usage-version-before-command": "--version solve setcover sc.sc",
    "usage-help": "-h",
    "usage-solve-help": "solve -h",
    "usage-solve-help-after-kind": "solve setcover sc.sc --help",
    "usage-solve-no-kind": "solve",
    "usage-unrecognized-option": "solve setcover sc.sc --bogus",
    "usage-unrecognized-option-first": "--bogus solve setcover sc.sc",
    "usage-unrecognized-argument": "bounds --ntilde 4 --delta 6 extra",
    "usage-invalid-choice": "solve wobble sc.sc",
    "usage-invalid-variant": "pipeline ntree g.digraph t.tree --variant odd",
    "usage-non-integer": "solve setcover sc.sc --seed x",
    "usage-non-positive-trials": "verify --trials 0",
    "usage-missing-required": "bounds --ntilde 4",
    "usage-double-dash": "solve setcover -- sc.sc",
    "missing-file": "solve setcover missing.sc",
    "wrong-file-count-tree": "solve ktree g.digraph",
    "wrong-file-count-one": "pipeline ham ham.digraph ham.digraph",
}

PINNED = {
    "bounds": "2405baca8f23186ae7767aa77b7c5544ffe39acf6f3859f16b7e3e2dff5af9dc",
    "bounds-refused": "495f9df26a8a439627d39793f33e8a28e39883a46a6b635c6ce9c48d4dc7cc1c",
    "generate-covered-universe": "1cd4d71640f4d57f3d9715a34d983657f6b0768974eebb84fe37df1e303ab537",
    "generate-digraph": "eb84273df2ff194e1199d83f1c2098385ce0b8cc035b057b80d643d715954d27",
    "generate-embedded-tree": "0662f068de96ce2d3fd172bbf0363d4717efb6c1607e0fe70324b85425509633",
    "generate-exactcover": "5cc6b6c1ca91fbe32f6495d6b45dc97de6d2955f51228ad5b28f328f1851dba4",
    "generate-graph": "5956cbd6308b57559556ec5e61891cd2678c1582d44228a87777a11380c1d069",
    "generate-ham-cycle": "e4dce5923d17109a642314fb25b3f53cbc243efdf4eeb5e3ee5f8442c6a26bcf",
    "generate-partialcover": "3d54e9e5419873d4bd58a9da7b63cb795ecabe81e4d2124783362c44a01598a4",
    "generate-setcover": "cb55d4283ec067237fcbfd8862ff261b958dc9c5bdde8a27ea917fd37594a147",
    "generate-tree": "068a9f1eed8764ae4cd02679c77f66a174b47d5be45e5b678f6950dfc070a4e3",
    "missing-file": "610b1767850188a2b874c63e38d585c5a08c77f7ad988f2e0a1f6c2447ced5b3",
    "partitions": "4bc2fca6208adf51cbf0b45f691b1c72101a5c8697d6ae9ae5d761c1f9f02b2d",
    "pipeline-ham": "f7a194b68c7057ea48c34c15661baa9ad4522926da12226a9a8f69f8674e76f5",
    "pipeline-ntree": "818ec68d9179424ebe6b85632aa68853063f5c18a78cd046cc554a7fa1e8c3e9",
    "pipeline-ntree-literal": "ba81dcf48079513228978a0f9583e488252b5b5edd875f3ca725d435e0a1209e",
    "pipeline-ppc-ktree": "d6cc34a59b40b3e830e689f12be1dc59c89303c7c47dde5a1ca2a158770426b7",
    "pipeline-sc-ktree": "006d2d7b9c84db70b99f90019e194e8e7e2b42bacea8cb259eddf6fde0455b6a",
    "reduce-ham-to-sc": "dab695f8ec7f4e12ec97705e78796091b6461bc71a9ab4a13feaabfc4891add2",
    "reduce-ntree-to-sc": "89831f64e068b0848279b42a89788089f7c6744848887f0f417fda0c80dc321e",
    "reduce-ppc-to-ktree": "3abf5934d5171208fae58ef6ad5c03751bfc858eec9175093cbbaff85f78def8",
    "reduce-sc-to-ktree": "6c0ee3f861d8ab20d70b7a13275edf2286ab62f2b74e460c9ada3d7121760e3c",
    "solve-embed": "b7f2b5bf51bbe0c844515e5d53d5c1bd954c2340a93f009e4d4d9910147c655c",
    "solve-exactcover": "2d50338bf0c364fa02545bfb6a6ba4b2aef89f3fbe95ad29491fc1740898403a",
    "solve-exactcover-delta": "331d9ce3aedd50f8037f35f681c7f3441d6d8e6feb7c554a683600c920b1567e",
    "solve-ham": "2e8a2826423cd93b8320c7e4f00fb7cbd48c9b30c517b415a05cc88a3ea7654f",
    "solve-ktree": "c4cdac9fee524094004439bb24aeda8496b9a830c785f384377d9a7a466f4cb3",
    "solve-partialcover": "0dc8b4e8d02d7c557ccd65a74a4b1942d62b3dff7e83a5f3b0d8eccad15607da",
    "solve-setcover": "eb6d8a4f0d12bf18a95fa53d9a56237fb1de6ed02ef20565344976434d6bc244",
    "usage-double-dash": "eb6d8a4f0d12bf18a95fa53d9a56237fb1de6ed02ef20565344976434d6bc244",
    "usage-help": "9d7f313c0fe97e91d40e2eddeb37edbba70d8156f27718679296a8aca3281191",
    "usage-invalid-choice": "111b6f066ae28834aa9587c494ed75761172cbd202283e08c223d2d448f76d49",
    "usage-invalid-variant": "4c5e3340bf4e30d86ccbe51e633030e3b5605b0a0126d0dd0ff2f25d7f707904",
    "usage-missing-required": "eeb91f76b2d421159e35c758ff4bf361011973c458f62710939726a7d5c1c075",
    "usage-no-arguments": "87aff66fc607d80f1c66533965ba15f8515ff3caa1830e82302ed9a3c363259d",
    "usage-non-integer": "b818449f3ade08d7c1b99cb997a76253b1765939629f63a65ad3fd63a22f3928",
    "usage-non-positive-trials": "8a43ddbfee85085319df133e4bca2dccddf98e1321986e918f69b9e7ac17dd49",
    "usage-solve-help": "9da72dcbe4a82dc001cc7ee5530324d930047bb9cb66eaac52dacbb09b2e8426",
    "usage-solve-help-after-kind": "9da72dcbe4a82dc001cc7ee5530324d930047bb9cb66eaac52dacbb09b2e8426",
    "usage-solve-no-kind": "b691555c5394107340cc40b2a8f49e4a6c66927d8eca0b8344adc6e26b54f143",
    "usage-unknown-command": "84de654bdcd77c1db04063e22a5b82f70d1ca8fdb87789ced5e6e21987e71ff9",
    "usage-unrecognized-argument": "8b56acf611a44163f8fdf01d4d8630bc33643cbf20fba3f423e21e19a0b10e1b",
    "usage-unrecognized-option": "1de84ecd2fe9270a2b76cba397b11f64646d88e85cab04dc3dfbcf7fa8120ee0",
    "usage-unrecognized-option-first": "1de84ecd2fe9270a2b76cba397b11f64646d88e85cab04dc3dfbcf7fa8120ee0",
    "usage-version": "d8b7cb0f06f620face1ae7e61333c1cf31cc04d215e1f2207c6741826d4622e9",
    "usage-version-before-command": "d8b7cb0f06f620face1ae7e61333c1cf31cc04d215e1f2207c6741826d4622e9",
    "wrong-file-count-one": "49bd99ee6b3497da309370145c23569c94b58f60f015090039901d9f1f35fec6",
    "wrong-file-count-tree": "8968daeeee940f6d8c0f5fc4c3e3558297fc2e63f52700fa50b7929074768fbf",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(code, out, err):
    err = re.sub(r"(?m)^wall time: [0-9.]+s$", "wall time: #s", err)
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode("utf-8")).hexdigest()


def _write_inputs(directory):
    for name, text in _inputs().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pin")
    _write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_pinned_digest(name, corpus_dir, monkeypatch):
    monkeypatch.chdir(corpus_dir)
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(*_run(CASES[name].split())) == PINNED[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        os.chdir(directory)
        for case in sorted(CASES):
            code, out, err = _run(CASES[case].split())
            sys.stderr.write(f"{case}: exit {code}\n")
            print(f"    \"{case}\": \"{_digest(code, out, err)}\",")
