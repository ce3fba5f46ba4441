"""Command-line entry point: analyze | verify-chain | generate."""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .chain import (CSV_COLUMNS, EXACT_VERTEX_LIMIT, AnalyzeConfig, ChainReport,
                    CorpusInstance, analyze, default_corpus, verify_chain)
from .graph import load_graph, to_json
from .instances import (build_h_r, clique_hypergraph, covering_hard_hypergraph,
                        grid_graph, random_degenerate_graph)
from .oracles import OracleBudget

CSV_HEADER_COMMENT = "# distdom chain-report v2"


def _config_from_args(args) -> AnalyzeConfig:
    mode = None
    if getattr(args, "exact", None) is True:
        mode = "exact-rational"
    elif getattr(args, "exact", None) is False:
        mode = "float"
    return AnalyzeConfig(
        mode=mode,
        oracle_budget=(OracleBudget() if args.budget is None
                       else OracleBudget(max_vertices=args.budget)),
        keep_sets=getattr(args, "keep_sets", False),
    )


def _write_csv(reports: list[ChainReport], stream) -> None:
    stream.write(CSV_HEADER_COMMENT + " columns: " + ",".join(CSV_COLUMNS) + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow(rep.csv_row())


def _load_corpus(args) -> list[CorpusInstance]:
    if args.corpus:
        instances = []
        for name in sorted(os.listdir(args.corpus)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(args.corpus, name)
            instances.append(CorpusInstance(name[:-5], load_graph(path), args.r))
        if not instances:
            raise ValueError(f"no .json graphs found in {args.corpus}")
        return instances
    return default_corpus(args.seed)


def cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    inst = CorpusInstance(os.path.basename(args.graph), g, args.r)
    rep = analyze(inst, _config_from_args(args))
    if args.format == "csv":
        _write_csv([rep], sys.stdout)
    else:
        print(rep.to_json())
    return 0 if rep.all_ok() else 1


def cmd_verify_chain(args) -> int:
    reports, _all_ok = verify_chain(_load_corpus(args), _config_from_args(args))
    reports.sort(key=lambda r: r.instance_id)
    out = io.StringIO()
    _write_csv(reports, out)
    text = out.getvalue()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    failed = [rep for rep in reports if not rep.all_ok()]
    for rep in failed:
        sys.stderr.write(rep.to_json() + "\n")
    return 1 if failed else 0


def cmd_generate(args) -> int:
    if args.family == "grid":
        payload = to_json(grid_graph(args.rows, args.cols))
    elif args.family == "random-degenerate":
        g, orient = random_degenerate_graph(args.n, args.d, args.seed)
        payload = to_json(g, {"orientation": [list(e) for e in orient], "d": args.d})
    elif args.family == "clique-hr":
        payload = build_h_r(clique_hypergraph(args.n), args.r).to_json()
    else:  # covering-hard; argparse's choices admit no other family
        payload = build_h_r(covering_hard_hypergraph(args.n), args.r).to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdom",
        description="LP-rounding approximations of distance domination and "
                    "independence, with machine-checked inequality chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--exact", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="force exact-rational (or float) LP mode; "
                            f"default: exact below {EXACT_VERTEX_LIMIT} vertices")
        p.add_argument("--budget", type=int, default=None,
                       help="oracle vertex budget; default: "
                            f"{OracleBudget().max_vertices} vertices")

    p = sub.add_parser("analyze", help="run the full pipeline on one graph")
    p.add_argument("graph")
    p.add_argument("--keep-sets", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-chain",
                       help="verify the inequality chain over a corpus")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--corpus", default=None,
                   help="directory of .json graphs; default: built-in corpus")
    p.add_argument("--seed", type=int, default=7,
                   help="seed of the built-in corpus")
    common(p)
    p.set_defaults(func=cmd_verify_chain)

    p = sub.add_parser("generate", help="emit a benchmark instance as JSON")
    p.add_argument("family", choices=["grid", "random-degenerate", "clique-hr",
                                      "covering-hard"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit status 0: every check passed; 1: a check
    failed (the report says which); 2: bad input (a malformed or missing
    graph file, an out-of-range parameter); 3: a stage could not finish
    (the pivot limit).  Statuses 2 and 3 print one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"distdom: error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"distdom: could not compute: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
