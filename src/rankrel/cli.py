"""Command-line front end.

Subcommands::

    eval <query> --catalog DIR [--exact] [-o FILE]
    equiv <A.csv> <B.csv> [--config FILE]
    transform --map NAME --catalog DIR <table...>
    topk <k> <query> --catalog DIR
    plan <query> --catalog DIR
    calc <formula> --catalog DIR
    verify

``eval`` prints the result sorted descending by score at three decimals;
``--exact`` switches to the CSV wire format with exact scores, which
re-ingests to an equal table.  ``verify`` replays the bundled demo checks;
their golden tables are the worked example's queries, run through the same
parser and planner as ``eval``.  Every input error, nesting too deep for the
interpreter's recursion limit included, exits 1 with one ``error:`` line;
a reader that closes the output pipe early (``| head``) makes it exit 1
without one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from pathlib import Path

from . import calculus, checks, demo, ordinal, planner, topk
from .catalog import Catalog, parse_config
from .chain import RATIONAL
from .errors import RankrelError
from .maps import compose_table
from .table import (
    RankedTable,
    column_plan,
    ranked_cells,
    read_table_csv,
    read_text,
    render_table,
    row_cells,
    write_table_csv,
)


def _load_catalog(path: str | None) -> Catalog:
    if path is None:
        return demo.demo_catalog()
    return Catalog.from_dir(path)


def _print_table(table: RankedTable, exact: bool, out_path: str | None) -> None:
    text = write_table_csv(table) if exact else render_table(table)
    if out_path:
        Path(out_path).write_text(text if exact else text + "\n", encoding="utf-8")
    else:
        print(text, end="" if exact else "\n")


def cmd_eval(args) -> int:
    catalog = _load_catalog(args.catalog)
    expr = planner.parse_query(args.query)
    result = planner.evaluate(expr, catalog)
    _print_table(result, args.exact, args.output)
    return 0


def cmd_equiv(args) -> int:
    chain = parse_config(read_text(args.config)).chain if args.config else RATIONAL
    first = read_table_csv(args.first, chain)
    second = read_table_csv(args.second, chain)
    evidence = ordinal.first_inclusion_violation(first, second)
    backward = ordinal.ordinally_included(second, first)
    if evidence is None and backward:
        print("EQUIVALENT")
    elif evidence is None:
        print("INCLUDED")
    else:
        print("NEITHER")
        names = first.scheme.sorted_names
        cells = row_cells(evidence, column_plan(first.scheme, names))
        pairs = ", ".join(f"{name}={cell}" for name, cell in zip(names, cells))
        print(f"evidence: first table's cone fails at ({pairs})")
        if backward:
            print("note: inclusion holds in the reverse direction")
    return 0


def cmd_transform(args) -> int:
    catalog = _load_catalog(args.catalog)
    order_map = catalog.order_map(args.map)
    for index, name in enumerate(args.tables):
        table = catalog.table(name)
        transformed = compose_table(table, order_map)
        if len(args.tables) > 1:
            if index:
                print()
            print(f"== {name}")
        print(write_table_csv(transformed), end="")
    return 0


def cmd_topk(args) -> int:
    catalog = _load_catalog(args.catalog)
    sources = topk.sources(planner.parse_query(args.query), catalog)
    result = topk.top_k(sources, args.k)
    scheme = sources[0].table.scheme
    for source in sources[1:]:
        scheme = scheme.union(source.table.scheme)  # the result's scheme, names in source order
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["#", *scheme.names])
    plan = column_plan(scheme, scheme.names)
    writer.writerows(ranked_cells(result.items, sources[0].table.chain, plan))
    print(
        f"-- {len(sources)} sources, {result.sorted_accesses} sorted / "
        f"{result.random_accesses} random accesses"
    )
    return 0


def cmd_plan(args) -> int:
    catalog = _load_catalog(args.catalog)
    expr = planner.parse_query(args.query)
    planner.infer_scheme(expr, catalog)
    print("-- input")
    print(planner.format_expr(expr))
    normalized = planner.normalize_to_join_chain(expr, catalog)
    print("-- normalized")
    print(planner.format_expr(normalized.expr))
    for note in normalized.notes:
        print(f"note: {note}")
    for blocked in normalized.blocked:
        print(f"blocked: {blocked}")
    return 0


def cmd_calc(args) -> int:
    catalog = _load_catalog(args.catalog)
    formula = calculus.parse_formula(args.formula)
    structure = calculus.structure_from_tables(catalog.tables)
    result = calculus.table_of(structure, formula)
    _print_table(result, args.exact, args.output)
    return 0


def cmd_verify(args) -> int:
    results = checks.run_all()
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    print(f"-- {len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


@functools.cache  # built once: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankrel",
        description="Rank-aware relational queries over totally ordered scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query against a catalog")
    p_eval.add_argument("query")
    p_eval.add_argument("--catalog", help="directory of CSV tables (+ catalog.cfg)")
    p_eval.add_argument("--exact", action="store_true", help="emit CSV with exact scores")
    p_eval.add_argument("-o", "--output", help="write the result to a file")
    p_eval.set_defaults(func=cmd_eval)

    p_equiv = sub.add_parser("equiv", help="compare two CSV tables ordinally")
    p_equiv.add_argument("first")
    p_equiv.add_argument("second")
    p_equiv.add_argument("--config", help="config file declaring the chain")
    p_equiv.set_defaults(func=cmd_equiv)

    p_transform = sub.add_parser("transform", help="apply an order map to tables")
    p_transform.add_argument("--map", required=True)
    p_transform.add_argument("--catalog")
    p_transform.add_argument("tables", nargs="+")
    p_transform.set_defaults(func=cmd_transform)

    p_topk = sub.add_parser("topk", help="top-k rows of a monotone query")
    p_topk.add_argument("k", type=int)
    p_topk.add_argument("query")
    p_topk.add_argument("--catalog")
    p_topk.set_defaults(func=cmd_topk)

    p_plan = sub.add_parser("plan", help="show a query before and after rewriting")
    p_plan.add_argument("query")
    p_plan.add_argument("--catalog")
    p_plan.set_defaults(func=cmd_plan)

    p_calc = sub.add_parser("calc", help="evaluate a logic formula over the catalog")
    p_calc.add_argument("formula")
    p_calc.add_argument("--catalog")
    p_calc.add_argument("--exact", action="store_true")
    p_calc.add_argument("-o", "--output")
    p_calc.set_defaults(func=cmd_calc)

    p_verify = sub.add_parser("verify", help="replay the bundled demo checks")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does: stop without a word.
        # Output still buffered would fail again at the interpreter's exit
        # flush, so stdout goes to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RankrelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply to evaluate", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
