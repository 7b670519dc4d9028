"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

CLI = run._import_xcover()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _samples(workload, workdir):
    corpus = workloads.build(workload, 5, "tiny")
    for query in corpus:
        for name, text in query.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
    return corpus, [run.Sample(i, 0.0, run.run_query(CLI, q.argv(str(workdir))), False, 0.0)
                    for i, q in enumerate(corpus)]


def _tamper(sample, change):
    code, out, err = sample.result
    record = json.loads(out)
    change(record)
    return sample._replace(result=(code, json.dumps(record) + "\n", err))


def _flip(record):
    record["answer"] = {"yes": "no", "no": "yes"}[record["answer"]]


def _off_by_one(record):
    record["optimum"] += 1


def _drop_certificate(record):
    record["certificate"] = None


@pytest.mark.parametrize("workload,change", [
    ("stream", _flip), ("embed", _off_by_one), ("embed", _drop_certificate),
    ("kernel", _off_by_one)])
def test_wrong_answer_counts_as_failed(tmp_path, workload, change):
    corpus, samples = _samples(workload, tmp_path)
    assert run.check_samples(workloads, corpus, samples)[0] == []
    i = next(i for i, s in enumerate(samples)
             if json.loads(s.result[1])["answer"] in ("yes", "no", "optimum"))
    samples[i] = _tamper(samples[i], change)
    failures, _ = run.check_samples(workloads, corpus, samples)
    assert [index for index, _ in failures] == [i]


def test_missing_hook_target_gives_null_metrics(capsys):
    hooks = dict(tracing.HOOKS)
    hooks[tracing.EMBEDDER] = ("call", ["xcover.solvers:renamed_embedder"], None)
    tracer = tracing.Tracer(hooks)
    metrics = tracer.metrics()
    assert metrics["solvers.tree_embed_backtrack.s"][0] is None
    assert metrics["queries.reached_embedder"][0] is None
    assert metrics["kernels.cover_optimum.s"][0] == 0.0
    assert "renamed_embedder not found" in capsys.readouterr().err


def test_coverage_guard():
    reached = {"queries.reached_embedder": (0, "count"), "queries.reached_kernel": (4, "count")}
    assert run.coverage_problems("embed", ["optimum"], reached)[0] == [
        "queries.reached_embedder is 0"]
    assert run.coverage_problems("stream", ["yes", "yes"], None)[0]
    assert run.coverage_problems("stream", ["yes", "no"], reached)[0] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench("--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
