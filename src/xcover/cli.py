"""Command-line entry point.

Records are JSON lines on standard output (stable key order, no wall-clock
fields, so identical invocations are byte-identical); human-readable
diagnostics go to standard error.  Exit codes: 0 success, 2 usage or format
error, 3 capacity/precondition/budget error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys

from xcover import __version__, analysis, reductions, solvers
from xcover.errors import BudgetExceededError, CapacityError, FormatError, PreconditionError
from xcover.instances import (
    gen_planted,
    gen_random,
    parse_instance,
    serialize_instance,
)
from xcover.partitions import count_partitions, enumerate_partitions, partition_asymptotic


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _read(path: str, kind: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), kind)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def _record(command: str, files, parameters: dict) -> dict:
    return {
        "tool": "xcover",
        "version": __version__,
        "command": command,
        "inputs": {path: _digest(path) for path in files},
        "parameters": parameters,
    }


def _public_stats(stats: dict) -> dict:
    wall = stats.get("wall_time")
    out = {k: v for k, v in stats.items() if k != "wall_time"}
    if wall is not None:
        sys.stderr.write(f"wall time: {wall:.3f}s\n")
    return out


def _result_fields(res: solvers.SolveResult) -> dict:
    cert = res.certificate
    if isinstance(cert, dict):
        cert = {str(k): v for k, v in sorted(cert.items())}
    return {
        "answer": res.answer,
        "optimum": res.optimum,
        "certificate": cert,
        "stats": _public_stats(res.stats),
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    kind = args.kind
    if kind in ("setcover", "exactcover", "partialcover", "ham"):
        if len(args.files) != 1:
            raise PreconditionError(f"solve {kind} takes exactly one file")
    elif kind in ("ktree", "embed"):
        if len(args.files) != 2:
            raise PreconditionError(f"solve {kind} takes a graph file and a tree file")
    if kind == "setcover":
        res = solvers.setcover_dp(_read(args.files[0], "setcover"))
    elif kind == "exactcover":
        inst = _read(args.files[0], "exactcover")
        if args.delta is not None:
            res = solvers.exactcover_with_large_sets(inst, args.delta)
        else:
            res = solvers.exactcover_solve(inst)
    elif kind == "partialcover":
        res = solvers.partialcover_dp(_read(args.files[0], "partialcover"))
    elif kind == "ham":
        res = solvers.heldkarp_ham(_read(args.files[0], "digraph"))
    elif kind == "ktree":
        G = _parse_graph_file(args.files[0])
        T = _read(args.files[1], "tree")
        res = solvers.ktree_colorcoding(G, T, failure_prob=args.failure_prob, seed=args.seed)
    else:  # embed
        G = _parse_graph_file(args.files[0])
        T = _read(args.files[1], "tree")
        res = solvers.tree_embed_backtrack(G, T, budget=args.budget)
    record = _record("solve", args.files, {
        "kind": kind, "failure_prob": args.failure_prob, "seed": args.seed,
    })
    record["kind"] = kind
    record.update(_result_fields(res))
    _emit(record)
    return 0


def _parse_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_instance(text, "digraph")
    except FormatError:
        return parse_instance(text, "graph")


# ---------------------------------------------------------------------------
# reduce / pipeline
# ---------------------------------------------------------------------------


def _provenance_comment(prov) -> str:
    return "c provenance " + json.dumps(prov, sort_keys=True, default=list)


def _stream(args) -> reductions.ReductionBatch:
    """The cover-instance stream of an ntree or ham command."""
    G = _parse_graph_file(args.files[0])
    if args.kind.startswith("ntree"):
        T = _read(args.files[1], "tree")
        return reductions.ntree_to_setcover(G, T, args.delta, variant=args.variant)
    return reductions.ham_to_setcover(G, args.delta)


def _cmd_reduce(args) -> int:
    if args.limit < 0:
        raise PreconditionError("--limit must be non-negative")
    emit_dir = args.emit_dir
    if emit_dir:
        os.makedirs(emit_dir, exist_ok=True)

    def write(name, text):
        if emit_dir:
            with open(os.path.join(emit_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    count = 0
    if args.kind in ("ntree-to-sc", "ham-to-sc"):
        for prod in itertools.islice(_stream(args).produced, args.limit or None):
            text = (_provenance_comment({"guess": prod.provenance, "target": prod.target})
                    + "\n" + serialize_instance(prod.instance))
            write(f"produced_{count:06d}.sc", text)
            count += 1
        sys.stderr.write(f"emitted {count} instances\n")
    else:
        inst = _read(args.files[0],
                     "setcover" if args.kind == "sc-to-ktree" else "partialcover")
        g = args.g
        bundle = reductions.build_host_graph(inst, g)
        write("host.graph", _provenance_comment({"role": "host", "g": g}) + "\n"
              + serialize_instance(bundle.host))
        for alpha in itertools.islice(reductions.leaf_partitions(inst), args.limit or None):
            tree = reductions.build_pattern_tree(alpha, g, inst.n)
            text = (_provenance_comment({"partition": list(alpha.parts)})
                    + "\n" + serialize_instance(tree))
            write(f"produced_{count:06d}.tree", text)
            count += 1
        sys.stderr.write(f"emitted host graph and {count} trees\n")
    return 0


def _cmd_pipeline(args) -> int:
    params = {"kind": args.kind, "jobs": args.jobs}
    if args.kind in ("ntree", "ham"):
        params.update(delta=args.delta)
        if args.kind == "ntree":
            params.update(variant=args.variant)
        decision = reductions.decide_stream(_stream(args), args.jobs)
        res = solvers.SolveResult("no" if decision.accepted is None else "yes",
                                  stats={"instances_examined": decision.examined})
    else:
        inst = _read(args.files[0], "setcover" if args.kind == "sc-ktree" else "partialcover")
        params.update(g=args.g)
        res = reductions.solve_setcover_via_ktree(inst, args.g, budget=args.budget)
    record = _record("pipeline", args.files, params)
    record["kind"] = args.kind
    record.update(_result_fields(res))
    _emit(record)
    return 0


# ---------------------------------------------------------------------------
# verify / bounds / partitions / generate
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if args.trials is not None:
        families = config.get("families", list(analysis.ALL_FAMILIES))
        config["trials"] = {**{f: args.trials for f in families},
                            **config.get("trials", {})}
    report = analysis.run_verification_suite(config or None)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stderr.write(f"report written to {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def _cmd_bounds(args) -> int:
    record = _record("bounds", [], {
        "ntilde": args.ntilde, "delta": args.delta, "epsilon": args.epsilon,
    })
    record.update({
        "count_bound_log2": reductions.count_bound_log2(args.ntilde, args.delta),
        "count_bound_log2_anchored": reductions.count_bound_log2(
            args.ntilde, args.delta, variant=reductions.ANCHORED),
        "element_bound": reductions.element_bound(args.ntilde, args.delta),
    })
    if args.delta >= 2:
        record["lambda_delta"] = analysis.koivisto_lambda(args.delta)
    if args.epsilon is not None:
        record["pipeline_exponent_log2"] = analysis.pipeline_total_exponent(
            args.ntilde, args.epsilon)
        record["exponent_target"] = args.ntilde - args.epsilon * args.ntilde / 2
    _emit(record)
    return 0


def _cmd_partitions(args) -> int:
    a = args.count
    record = _record("partitions", [], {"a": a})
    record["count"] = count_partitions(a)
    if args.asymptotic and a >= 1:
        record["asymptotic"] = partition_asymptotic(a)
    if args.list:
        if a > 40:
            raise CapacityError("refusing to list partitions beyond a = 40")
        record["partitions"] = [list(p.parts) for p in enumerate_partitions(a)]
    _emit(record)
    return 0


def _cmd_generate(args) -> int:
    kind = args.kind
    seed = args.seed
    witness = None
    if kind in ("setcover", "exactcover", "partialcover"):
        params = {"n": args.n, "m": args.m, "max_set_size": args.max_set_size}
        if kind == "partialcover":
            params["p"] = args.p
        value = gen_random(kind, seed=seed, **params)
        outputs = [(value, args.out)]
    elif kind in ("digraph", "graph"):
        value = gen_random(kind, seed=seed, n=args.n, edge_probability=args.edge_probability)
        outputs = [(value, args.out)]
    elif kind == "tree":
        value = gen_random("tree", seed=seed, k=args.k, oriented=args.oriented)
        outputs = [(value, args.out)]
    elif kind == "ham-cycle":
        G, order = gen_planted("ham_cycle", seed=seed, n=args.n, extra_edges=args.extra_edges)
        witness = {"kind": "cycle_order", "order": order}
        outputs = [(G, args.out)]
    elif kind == "embedded-tree":
        G, T, mapping = gen_planted("embedded_tree", seed=seed, k=args.k, host_n=args.host_n,
                                    oriented=args.oriented,
                                    extra_edge_probability=args.edge_probability)
        witness = {"kind": "embedding", "map": {str(k): v for k, v in sorted(mapping.items())}}
        if args.out:
            outputs = [(G, args.out + ".graph"), (T, args.out + ".tree")]
        else:
            outputs = [(G, None), (T, None)]
    else:  # covered-universe
        inst, cover = gen_planted("covered_universe", seed=seed, n=args.n, m=args.m,
                                  max_set_size=args.max_set_size)
        witness = {"kind": "cover", "indices": cover}
        outputs = [(inst, args.out)]
    for value, path in outputs:
        text = serialize_instance(value)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            sys.stderr.write(f"wrote {path}\n")
        else:
            sys.stdout.write(text)
    if witness is not None:
        if args.witness_out:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(witness, sort_keys=True) + "\n")
        else:
            sys.stderr.write(json.dumps(witness, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcover",
        description="Set-cover variants, tree-pattern embedding, and the reductions between them.")
    parser.add_argument("--version", action="version", version=f"xcover {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an exact solver on an instance file")
    p.add_argument("kind", choices=["setcover", "exactcover", "partialcover",
                                    "ham", "ktree", "embed"])
    p.add_argument("files", nargs="+")
    p.add_argument("--failure-prob", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=solvers.DEFAULT_BUDGET)
    p.add_argument("--delta", type=int, default=None,
                   help="for exactcover: use the large-set guessing split")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="emit the produced instance stream")
    p.add_argument("kind", choices=["ntree-to-sc", "ham-to-sc", "sc-to-ktree", "ppc-to-ktree"])
    p.add_argument("files", nargs="+")
    p.add_argument("--delta", type=int, default=6)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--variant", default="anchored",
                   choices=["paper", "literal", "anchored"])
    p.add_argument("--emit-dir", default=None)
    p.add_argument("--limit", type=int, default=0, help="stop after this many records (0 = all)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("pipeline", help="run reduction plus solver end to end")
    p.add_argument("kind", choices=["ntree", "ham", "sc-ktree", "ppc-ktree"])
    p.add_argument("files", nargs="+")
    p.add_argument("--delta", type=int, default=6)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--variant", default="anchored",
                   choices=["paper", "literal", "anchored"])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=solvers.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="run the differential verification suite")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="override the per-family trial counts")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="evaluate the declared bound formulas")
    p.add_argument("--ntilde", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("partitions", help="partition counting and enumeration")
    p.add_argument("--count", type=int, required=True, metavar="A")
    p.add_argument("--asymptotic", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("generate", help="seeded random and planted instances")
    p.add_argument("kind", choices=["setcover", "exactcover", "partialcover", "digraph",
                                    "graph", "tree", "ham-cycle", "embedded-tree",
                                    "covered-universe"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--host-n", type=int, default=10)
    p.add_argument("--max-set-size", type=int, default=3)
    p.add_argument("--edge-probability", type=float, default=0.3)
    p.add_argument("--extra-edges", type=int, default=0)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--witness-out", default=None)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file not found: {exc.filename}\n")
        return 2
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CapacityError, PreconditionError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
