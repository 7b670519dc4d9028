"""End-to-end benchmark of the xcover reduction pipelines.

    python3 perfbench/run.py --workload {stream,embed,kernel} --seed N \
        --seconds S --trace {0,1}

Builds a seeded corpus of instance files, then, in one process and as one
closed-loop client, calls ``xcover.cli.main(argv)`` for query after query
until ``--seconds`` have passed.  The answers are checked after the timed
phase.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are ``#`` notes (kernel backend, sample counts, failures, coverage).
``--trace 1`` wraps xcover's layers (see ``tracing.py``) and reports the
per-layer metrics instead of the end-to-end ones.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def _import_xcover():
    """Import xcover from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xcover", "cli.py")):
        raise SystemExit(f"error: no xcover sources under {src}")
    sys.path.insert(0, src)
    import xcover.cli

    if not os.path.abspath(xcover.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported xcover from {xcover.cli.__file__}, not {src}")
    return xcover.cli


def run_query(cli, argv):
    """(exit code or None if it raised, stdout text, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed query, not a failed run
            return None, out.getvalue(), repr(exc)
    return code, out.getvalue(), err.getvalue()


def setup(cli, workloads, workload, seed, scale, workdir):
    """Build the corpus, write its files and run one untimed warm-up query."""
    corpus = workloads.build(workload, seed, scale)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for query in corpus:
        for name, text in query.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    run_query(cli, corpus[0].argv(workdir))
    return corpus


# Median time of speed_probe() on the 2-core machine the benchmark was tuned on.
PROBE_REFERENCE_S = 1.6e-3


class Sample(NamedTuple):
    index: int  # query in the corpus
    took: float  # seconds
    result: tuple  # run_query's result
    traced: bool
    probe: float  # seconds of the speed probe run right after the query


def speed_probe():
    """Seconds a fixed pure-Python loop takes: the machine's speed right now.

    The CPU this runs on is shared, and its speed drifts by tens of percent
    over seconds and minutes; a probe beside every query measures that drift.
    """
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return perf_counter() - start


def timed_phase(cli, corpus, workdir, seconds, tracer=None):
    """Closed loop over the corpus, pass after pass, for ``seconds``.

    Returns the samples and the wall time.  With a tracer, passes alternate
    between traced and untraced.
    """
    samples = []
    begin = perf_counter()
    try:
        while not samples or perf_counter() - begin < seconds:
            index = len(samples) % len(corpus)
            traced = tracer is not None and len(samples) // len(corpus) % 2 == 0
            if tracer is not None and index == 0:
                tracer.install() if traced else tracer.uninstall()
            argv = corpus[index].argv(workdir)
            start = perf_counter()
            if traced:
                result = tracer.query(lambda: run_query(cli, argv))
            else:
                result = run_query(cli, argv)
            took = perf_counter() - start
            samples.append(Sample(index, took, result, traced, speed_probe()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return samples, perf_counter() - begin


def best_latencies(samples, corpus_size, traced=False):
    """{query index: fastest of its runs, in seconds at reference speed}.

    Each run's time is divided by its pass's speed factor: the median probe
    of the pass over PROBE_REFERENCE_S.  A query runs once per pass, and its
    fastest run is the estimate least touched by what the probe misses.
    """
    best = {}
    for start in range(0, len(samples), corpus_size):
        chunk = samples[start:start + corpus_size]
        speed = statistics.median(s.probe for s in chunk) / PROBE_REFERENCE_S
        for s in chunk:
            if s.traced == traced:
                took = s.took / speed
                best[s.index] = min(took, best.get(s.index, took))
    return best


def check_samples(workloads, corpus, samples):
    """[(query index, reason)] for every failed query execution, and the answers."""
    verdicts, answers, failures = {}, [], []
    for index, _, (code, out, err), _, _ in samples:
        if index not in verdicts:
            verdicts[index] = (out, *_verdict(workloads, corpus[index], code, out, err))
        first_out, reason, answer = verdicts[index]
        if reason is None and out != first_out:
            reason = "output differs between runs of the same query"
        if reason is not None:
            failures.append((index, reason))
        answers.append(answer)
    return failures, answers


def _verdict(workloads, query, code, out, err):
    """(reason the answer is wrong or None, the answer)."""
    if code is None:
        return f"raised {err}", None
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}", None
    try:
        record = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return "no JSON record on stdout", None
    try:
        return workloads.check(query, record), record.get("answer")
    except Exception as exc:  # a malformed record must not stop the other checks
        return f"checking raised {exc!r}", record.get("answer")


def coverage_problems(workload, answers, layer_counts):
    """Reasons this run no longer exercises what its workload is for."""
    yes = sum(a in ("yes", "optimum") for a in answers)
    no = sum(a in ("no", "infeasible") for a in answers)
    problems = []
    if workload in ("stream", "kernel") and not (yes and no):
        problems.append(f"needs yes and no answers, got {yes} yes and {no} no")
    if workload == "embed" and not yes:
        problems.append("no query found an optimum")
    reached = {"embed": "queries.reached_embedder", "stream": "queries.reached_kernel",
               "kernel": "queries.reached_kernel"}[workload]
    if layer_counts is not None and layer_counts.get(reached, (None,))[0] == 0:
        problems.append(f"{reached} is 0")
    return problems, yes, no


def backend_parity(corpus):
    """Compare the compiled kernels with the pure-Python ones on this corpus.

    Returns None when ``xcover._kernels`` cannot be imported.
    """
    try:
        from xcover import _kernels
    except ImportError:
        return None
    from xcover import _kernels_py

    import checks

    mismatches = 0
    for query in corpus:
        if query.kind not in ("setcover", "exactcover", "partialcover"):
            continue
        n, sets, p = checks.read_sets(list(query.files.values())[0])
        masks = [sum(1 << e for e in s) for s in sets]
        calls = {"cover_optimum": (masks, n, n if p is None else p),
                 "exact_cover_optimum": (masks, n)}
        for name, args in calls.items():
            compiled, reference = (getattr(mod, name)(*args) for mod in (_kernels, _kernels_py))
            mismatches += (compiled and compiled[0]) != (reference and reference[0])
    return mismatches


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["stream", "embed", "kernel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="instance sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    cli = _import_xcover()
    sys.path.insert(0, HERE)
    import tracing
    import workloads
    from xcover import kernels

    import_s = perf_counter() - _STARTED
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            corpus = setup(cli, workloads, args.workload, args.seed, args.scale, workdir)
            setups.append(perf_counter() - start)
        raw_setup_s = import_s + statistics.median(setups)

        tracer = tracing.Tracer() if args.trace else None
        samples, wall = timed_phase(cli, corpus, workdir, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        speed = statistics.median(s.probe for s in samples) / PROBE_REFERENCE_S
        best = best_latencies(samples, len(corpus))
        layer = None
        if tracer is not None:
            traced = best_latencies(samples, len(corpus), traced=True)
            for index in set(traced) - set(best):
                start = perf_counter()
                run_query(cli, corpus[index].argv(workdir))
                best[index] = (perf_counter() - start) / speed
            layer = tracer.metrics()
            layer["trace.overhead_pct"] = (
                100 * (sum(traced.values()) / sum(best[i] for i in traced) - 1), "%")
            layer["trace.query_s"] = (tracer.incl["cli"], "s")

        start = perf_counter()
        failures, answers = check_samples(workloads, corpus, samples)
        problems, yes, no = coverage_problems(args.workload, answers, layer)
        parity = backend_parity(corpus)
        check_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    latencies = [best[i] * 1000 for i in sorted(best)]
    p90 = percentile(latencies, 90)
    attempted = len(samples)
    notes = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "backend": kernels.BACKEND, "python": platform.python_version(),
        "nproc": os.cpu_count(), "corpus_queries": len(corpus), "runs": attempted,
        "passes": round(attempted / len(corpus), 2), "completed_per_wall_s": attempted / wall,
        "speed_factor": speed, "raw_setup_s": raw_setup_s,
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(x > p90 for x in latencies),
        "import_s": round(import_s, 3), "setup_repeats_s": [round(x, 3) for x in setups],
        "check_s": round(check_s, 3), "failed_frac": len(failures) / attempted,
        "backend_parity": ("skipped: xcover._kernels is not importable" if parity is None
                           else f"{parity} mismatches"),
        "queries.yes": yes, "queries.no": no,
    }
    print("# " + json.dumps(notes, sort_keys=True))
    for index, reason in sorted(set(failures))[:20]:
        print(f"# FAILED query {index} ({' '.join(corpus[index].command)}): {reason}")
    for problem in problems:
        print(f"# COVERAGE {args.workload}: {problem}")
    if args.trace:
        metrics = dict(layer)
        metrics["queries.yes"] = (yes, "count")
        metrics["queries.no"] = (no, "count")
        for name, reason in tracer.missing.items():
            print(f"# null metrics for {name}: {reason}")
    else:
        metrics = {
            "setup_s": (raw_setup_s / speed, "s"),
            # one closed-loop client: throughput is the inverse of the mean latency
            "queries_per_s": (1000 * len(latencies) / sum(latencies), "1/s"),
            "query_p50_ms": (statistics.median(latencies), "ms"),
            "query_p90_ms": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    correct = not failures and not problems and not parity
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
