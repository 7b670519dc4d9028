"""Command-line entry point.

Records are JSON lines on standard output (stable key order, no wall-clock
fields, so identical invocations are byte-identical); human-readable
diagnostics go to standard error, and so does the wall time of a ``solve``
or ``pipeline sc-ktree|ppc-ktree`` command.  Exit codes: 0 success, 2 usage
or format error, 3 capacity/precondition/budget error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time

from xcover import __version__, analysis, reductions, solvers
from xcover.errors import BudgetExceededError, CapacityError, FormatError, PreconditionError
from xcover.instances import (
    Digraph,
    gen_planted,
    gen_random,
    parse_instance,
    serialize_instance,
)
from xcover.partitions import count_partitions, enumerate_partitions, partition_asymptotic

try:  # CPython's own SHA-256: hashlib loads OpenSSL, 3.5 MB resident on x86-64 Linux
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def _read_text(args, i: int) -> str:
    """The text of the command's i-th file, read once: the digest of its
    bytes goes into ``args.inputs`` for the record.  A file that is not
    UTF-8 is a format error; line ends are read as text mode reads them."""
    path = args.files[i]
    with open(path, "rb") as fh:
        data = fh.read()
    args.inputs[path] = sha256(data).hexdigest()[:16]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read(args, i: int, kind: str | None = None):
    return parse_instance(_read_text(args, i), kind)


# json.dumps(record, sort_keys=True) without building an encoder per record
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(record: dict) -> None:
    sys.stdout.write(_ENCODER.encode(record) + "\n")
    sys.stdout.flush()


def _record(command: str, args, parameters: dict) -> dict:
    return {
        "tool": "xcover",
        "version": __version__,
        "command": command,
        "inputs": args.inputs,
        "parameters": parameters,
    }


def _result_fields(res: solvers.SolveResult) -> dict:
    cert = res.certificate
    if isinstance(cert, dict):
        cert = {str(k): v for k, v in sorted(cert.items())}
    return {
        "answer": res.answer,
        "optimum": res.optimum,
        "certificate": cert,
        "stats": res.stats,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _check_file_count(args) -> None:
    """A graph and a tree file for the tree kinds of solve, reduce and
    pipeline; exactly one file for every other kind."""
    trees = args.kind in ("ktree", "embed", "ntree", "ntree-to-sc")
    if len(args.files) != 1 + trees:
        wanted = "a graph file and a tree file" if trees else "exactly one file"
        raise PreconditionError(f"{args.command} {args.kind} takes {wanted}")


def _cmd_solve(args) -> int:
    _check_file_count(args)
    kind = args.kind
    if kind == "setcover":
        res = solvers.setcover_dp(_read(args, 0, "setcover"))
    elif kind == "exactcover":
        inst = _read(args, 0, "exactcover")
        if args.delta is not None:
            res = solvers.exactcover_with_large_sets(inst, args.delta)
        else:
            res = solvers.exactcover_solve(inst)
    elif kind == "partialcover":
        res = solvers.partialcover_dp(_read(args, 0, "partialcover"))
    elif kind == "ham":
        res = solvers.heldkarp_ham(_read(args, 0, "digraph"))
    elif kind == "ktree":
        G = _parse_graph_file(args)
        T = _read(args, 1, "tree")
        res = solvers.ktree_colorcoding(G, T, failure_prob=args.failure_prob, seed=args.seed,
                                        budget=args.budget)
    else:  # embed
        G = _parse_graph_file(args)
        T = _read(args, 1, "tree")
        res = solvers.tree_embed_backtrack(G, T, budget=args.budget)
    record = _record("solve", args, {
        "kind": kind, "failure_prob": args.failure_prob, "seed": args.seed,
    })
    record["kind"] = kind
    record.update(_result_fields(res))
    _emit(record)
    return 0


def _parse_graph_file(args):
    """The ``digraph`` or ``graph`` record of the command's first file."""
    G = _read(args, 0)
    if not isinstance(G, Digraph):
        raise FormatError(f"{args.files[0]}: expected a digraph or graph record")
    return G


# ---------------------------------------------------------------------------
# reduce / pipeline
# ---------------------------------------------------------------------------


def _provenance_comment(prov) -> str:
    return "c provenance " + json.dumps(prov, sort_keys=True, default=list)


def _stream(args, live_only=False) -> reductions.ReductionBatch:
    """The cover stream of an ntree or ham command.  ``live_only`` is the
    decide-side form of either stream: only the instances that can accept
    are built, and the others come as skip counts."""
    G = _parse_graph_file(args)
    if args.kind.startswith("ntree"):
        T = _read(args, 1, "tree")
        return reductions.ntree_to_setcover(G, T, args.delta, args.variant, live_only)
    return reductions.ham_to_setcover(G, args.delta, live_only)


def _cmd_reduce(args) -> int:
    _check_file_count(args)
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
        inst = _read(args, 0, "setcover" if args.kind == "sc-to-ktree" else "partialcover")
        g = args.g
        # the host and trees are those of the residual instance, the one the
        # pipeline embeds into once the large sets are guessed separately
        residual, large, _ = reductions.split_large_sets(inst, g)
        if reductions.leaf_total(inst) == 0:
            # the pipelines' answer, optimum 0, needs no host: the split has
            # only refused a g below 2, as preprocessing does for them
            sys.stderr.write("leaf total is 0: the optimum is 0, no host or trees emitted\n")
            return 0
        host_prov = {"role": "host", "g": g}
        if large:
            host_prov["removed_large"] = large
            sys.stderr.write(f"large sets removed: {len(large)}\n")
        bundle = reductions.build_host_graph(residual, g)
        write("host.graph", _provenance_comment(host_prov) + "\n"
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
    _check_file_count(args)
    params = {"kind": args.kind}
    if args.kind in ("ntree", "ham"):
        params.update(delta=args.delta)
        if args.kind == "ntree":
            params.update(variant=args.variant)
        decision = reductions.decide_stream(_stream(args, live_only=True), args.budget)
        stats = {"instances_examined": decision.examined,
                 "instances_distinct": decision.distinct,
                 "instances_filtered": decision.filtered}
        res = solvers.SolveResult("no" if decision.accepted is None else "yes", stats=stats)
    else:
        inst = _read(args, 0, "setcover" if args.kind == "sc-ktree" else "partialcover")
        params.update(g=args.g)
        res = reductions.solve_setcover_via_ktree(inst, args.g, budget=args.budget)
    record = _record("pipeline", args, params)
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
            try:
                config = json.load(fh)
            except ValueError as exc:
                raise FormatError(f"{args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise PreconditionError(f"{args.config}: the config must be a JSON object")
    cfg = analysis.VerifyConfig.from_dict(config)
    if args.trials is not None:
        cfg.trials = {**{f: args.trials for f in cfg.families}, **cfg.trials}
    report = analysis.run_verification_suite(cfg)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stderr.write(f"report written to {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def _cmd_bounds(args) -> int:
    if args.ntilde < 1:
        raise PreconditionError(f"--ntilde must be at least 1, got {args.ntilde}")
    record = _record("bounds", args, {
        "ntilde": args.ntilde, "delta": args.delta, "epsilon": args.epsilon,
    })
    try:
        bounds = {
            "count_bound_log2": reductions.count_bound_log2(args.ntilde, args.delta),
            "count_bound_log2_anchored": reductions.count_bound_log2(
                args.ntilde, args.delta, variant=reductions.ANCHORED),
            "element_bound": reductions.element_bound(args.ntilde, args.delta),
        }
        if args.delta >= 2:
            bounds["lambda_delta"] = analysis.koivisto_lambda(args.delta)
        if args.epsilon is not None:
            bounds["pipeline_exponent_log2"] = analysis.pipeline_total_exponent(
                args.ntilde, args.epsilon)
            bounds["exponent_target"] = args.ntilde - args.epsilon * args.ntilde / 2
        finite = all(map(math.isfinite, bounds.values()))
    except OverflowError:
        finite = False
    # huge arguments overflow a float conversion or round a bound to inf
    if not finite:
        raise CapacityError("the bound formulas at these arguments exceed the float range")
    record.update(bounds)
    _emit(record)
    return 0


def _cmd_partitions(args) -> int:
    a = args.count
    # the list refusal comes before the count, which refuses a large A itself
    if args.list and a > 40:
        raise CapacityError("refusing to list partitions beyond a = 40")
    record = _record("partitions", args, {"a": a})
    if args.asymptotic and a >= 1:
        # past the float range the estimate raises
        record["asymptotic"] = partition_asymptotic(a)
    record["count"] = count_partitions(a)
    if args.list:
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p.add_argument("--budget", type=int, default=solvers.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="run the differential verification suite")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--trials", type=_positive_int, default=None,
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
    parser.commands = sub.choices  # command name -> its subparser
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: parsing leaves no state in the parser, and
    # building it costs more than many queries take
    return build_parser()


def _parse_args(argv):
    """The namespace of ``argv``, parsed by its command's subparser alone.

    The top-level parser hands a command's subparser every argument after
    the command, so that subparser parses them the same way, usage errors
    and help included.  Anything else, and arguments the subparser leaves
    over, goes through the top-level parser, which reports them as before.
    """
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.inputs = {}  # path -> digest of each file read, for the record
    start = time.perf_counter()
    try:
        code = args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file not found: {exc.filename}\n")
        return 2
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        sys.stderr.write(f"error: cannot open {exc.filename}: {exc.strerror}\n")
        return 2
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CapacityError, PreconditionError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    # the ntree and ham pipelines stay untimed: a stream query is short, and a
    # caller that keeps each query's stderr would keep one more line per query
    if args.command == "solve" or (args.command == "pipeline"
                                   and args.kind in ("sc-ktree", "ppc-ktree")):
        sys.stderr.write(f"wall time: {time.perf_counter() - start:.3f}s\n")
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
