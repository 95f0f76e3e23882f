"""The four benchmark workloads: inputs, request mix, and correctness oracles.

Each workload writes its seeded inputs into a work directory, opens them the
way a user would, and then serves requests in a fixed round-robin cycle.
``run`` is the timed path; ``check`` is the untimed oracle, run once per
distinct request during warm-up.  Requests reach rankrel only through its
public functions (called through their modules, so tracing sees them) or
through ``cli.main`` with stdout captured.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

from rankrel import calculus, cli, maps, planner, table, topk
from rankrel.catalog import Catalog, parse_config

import data
import oracle

FULL = {
    "query": {"rows": 2000},
    "topk": {"rows": 1600},
    "rescale": {"rows": 1000, "neither_rows": 1000, "first_violation": 0.04},
    "calc": {"universe": 30, "density": 0.2},
}

SMOKE = {
    "query": {"rows": 400},
    "topk": {"rows": 400},
    "rescale": {"rows": 60, "neither_rows": 60, "first_violation": 0.04},
    "calc": {"universe": 6, "density": 0.2},
}


class Mismatch(Exception):
    """An output disagreed with the workload's oracle."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rankrel {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _write_housing(directory: Path, tables: dict) -> None:
    for name, (header, rows) in tables.items():
        data.write_csv(directory / f"{name}.csv", header, rows)


class Workload:
    """Base: ``setup`` generates, writes and opens; ``requests`` lists the distinct ones."""

    name = ""

    def __init__(self, sizes: dict, seed: int, directory: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.directory = directory
        self.requests: list[tuple] = []

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[tuple]:
        """The requests of timed cycle ``index``.

        Every cycle has an odd length of at most 9 and the slowest request
        appears once.  latency_p50_ms then falls inside one request class and
        latency_p90_ms inside the slowest class, instead of on a boundary
        between two classes, where it would jump between runs.
        """
        return self.requests

    def run(self, request: tuple):
        raise NotImplementedError

    def check(self, request: tuple, output) -> None:
        raise NotImplementedError


def _house_score(row: dict) -> Fraction:
    return Fraction(4 + row["bdrm"], 10)


def _price_score(row: dict) -> Fraction:
    return Fraction(1) if row["price"] <= 900000 else Fraction(1, 2)


# Query text -> the same query over oracle relations.
QUERY_SHAPES = {
    "join(houses, offers)":
        lambda r: oracle.join(r["houses"], r["offers"]),
    "project(restrict(join(houses, offers), 0.1*(4+bdrm)), [id, bdrm, price])":
        lambda r: oracle.project(
            oracle.restrict(oracle.join(r["houses"], r["offers"]), _house_score),
            ["id", "bdrm", "price"]),
    "semijoin(houses, restrict(offers, price <= 900000 ? 1 : 0.5))":
        lambda r: oracle.semijoin(r["houses"], oracle.restrict(r["offers"], _price_score)),
    "union(project(houses,[id]), project(offers,[id]))":
        lambda r: oracle.union(oracle.project(r["houses"], ["id"]),
                               oracle.project(r["offers"], ["id"])),
    "difference(project(offers,[id]), project(houses,[id]))":
        lambda r: oracle.difference(oracle.project(r["offers"], ["id"]),
                                    oracle.project(r["houses"], ["id"])),
    "project(join(rename(agents, [region->zone]), offers), [agent, zone, price])":
        lambda r: oracle.project(
            oracle.join(oracle.rename(r["agents"], {"region": "zone"}), r["offers"]),
            ["agent", "zone", "price"]),
}


class QueryWorkload(Workload):
    """Embedded analytic session: parse, evaluate, write exact CSV (``eval --exact``)."""

    name = "query"

    def setup(self) -> None:
        self.tables = data.housing(self.sizes["rows"], random.Random(self.seed))
        _write_housing(self.directory, self.tables)
        self.catalog = Catalog.from_dir(self.directory)
        self.requests = [(text,) for text in QUERY_SHAPES]

    def cycle(self, index: int) -> list[tuple]:
        return self.requests + self.requests[:1]  # the plain join twice: 7 per cycle

    def run(self, request: tuple) -> str:
        expr = planner.parse_query(request[0])
        return table.write_table_csv(planner.evaluate(expr, self.catalog))

    def check(self, request: tuple, output: str) -> None:
        relations = {
            name: oracle.relation(header, rows, data.GRID)
            for name, (header, rows) in self.tables.items()
        }
        expected = QUERY_SHAPES[request[0]](relations)[1]
        result = table.read_table_csv(output)
        actual = {row.items: score.value for row, score in result}
        _expect(actual == expected,
                f"{request[0]}: {len(actual)} engine rows vs {len(expected)} reference rows, "
                f"{sum(actual.get(k) != v for k, v in expected.items())} differ")
        _expect(output == table.write_table_csv(result), "exact CSV does not re-read equal")


TOPK_CHAINS = (
    "join(houses, offers)",
    "restrict(join(houses, offers), theta)",
    "join(join(houses, offers), agents)",
)
THETA = "cond theta = expr{ bdrm <= 6 ? 0.1*(4+bdrm) : 1 }\n"


class TopkWorkload(Workload):
    """The ``rankrel topk`` path as a library session, each chain at k = 1, 10, 100."""

    name = "topk"

    def setup(self) -> None:
        _write_housing(self.directory, data.housing(self.sizes["rows"], random.Random(self.seed)))
        (self.directory / "catalog.cfg").write_text(THETA, encoding="utf-8")
        self.catalog = Catalog.from_dir(self.directory)
        self.requests = [(chain, k) for chain in TOPK_CHAINS for k in (1, 10, 100)]

    def _sources(self, text: str) -> list:
        normalized = planner.normalize_to_join_chain(planner.parse_query(text), self.catalog)
        return [
            topk.SortedSource.from_table(planner.evaluate(leaf, self.catalog))
            for leaf in planner.join_chain_leaves(normalized.expr)
        ]

    def run(self, request: tuple):
        return topk.top_k(self._sources(request[0]), request[1])

    def check(self, request: tuple, output) -> None:
        expected = topk.brute_force_top_k(self._sources(request[0]), request[1])
        _expect(output.items == expected.items,
                f"top-{request[1]} of {request[0]} differs from brute force")
        _expect(len(output.items) == request[1], f"top-{request[1]} returned {len(output.items)}")


RESCALE_MAPS = {"f": "EQUIVALENT", "g": "INCLUDED", "h": "EQUIVALENT"}


class RescaleWorkload(Workload):
    """CLI round trips: transform a table, then compare it with the original."""

    name = "rescale"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        catalog_dir = self.directory / "catalog"
        catalog_dir.mkdir(exist_ok=True)
        header, rows = data.scored_rows(self.sizes["rows"], rng)
        self.original = catalog_dir / "houses.csv"
        data.write_csv(self.original, header, rows)
        graph = ", ".join(f"{src} -> {dst}" for src, dst in data.increasing_graph(rng))
        self.config = (
            "chain rational01\n"
            "map f = expr{ x <= 0.5 ? sqrt(x)/sqrt(2) : 2*(x-0.5)^2 + 0.5 }\n"
            "map g = piecewise{ 0 -> 0, (0, 0.5] -> 0.25, (0.5, 1] -> 1 }\n"
            f"map h = graph{{ {graph} }}\n"
        )
        (catalog_dir / "catalog.cfg").write_text(self.config, encoding="utf-8")
        self.evidence = {}
        self.neither = []
        for pair in range(2):
            header, rows = data.scored_rows(self.sizes["neither_rows"], rng)
            ordered, perturbed = data.raise_scores(rows, self.sizes["first_violation"], 2, rng)
            first = next(row for old, row in zip(ordered, perturbed) if old[0] != row[0])
            paths = (self.directory / f"neither{pair}_a.csv", self.directory / f"neither{pair}_b.csv")
            data.write_csv(paths[0], header, ordered)
            data.write_csv(paths[1], header, perturbed)
            request = ("equiv", str(paths[0]), str(paths[1]))
            self.evidence[request] = (
                f"NEITHER\nevidence: first table's cone fails at "
                f"(bdrm={first[2]}, id={first[1]}, sqft={first[3]})\n"
            )
            self.neither.append(request)
        self.common = []
        for name in RESCALE_MAPS:
            result = self.directory / f"result_{name}.csv"
            self.common.append(("transform", name, str(result)))
            self.common.append(("equiv", str(self.original), str(result)))
        self.requests = self.common + self.neither

    def cycle(self, index: int) -> list[tuple]:
        # One NEITHER pair per cycle, alternating: 7 per cycle.
        return self.common + [self.neither[index % len(self.neither)]]

    def run(self, request: tuple) -> str:
        if request[0] == "transform":
            text = _run_cli(["transform", "--map", request[1],
                             "--catalog", str(self.original.parent), "houses"])
            Path(request[2]).write_text(text, encoding="utf-8")
            return text
        return _run_cli(["equiv", request[1], request[2]])

    def check(self, request: tuple, output: str) -> None:
        if request[0] == "transform":
            order_map = parse_config(self.config).maps[request[1]]
            expected = maps.compose_table(table.read_table_csv(self.original), order_map)
            _expect(table.read_table_csv(output) == expected,
                    f"transform --map {request[1]} differs from compose_table")
            return
        if request in self.evidence:
            _expect(output == self.evidence[request], f"equiv NEITHER pair printed {output!r}")
            return
        name = Path(request[2]).stem.removeprefix("result_")
        _expect(output == RESCALE_MAPS[name] + "\n",
                f"equiv after --map {name} printed {output.strip()!r}, "
                f"expected {RESCALE_MAPS[name]}")


CALC_FORMULAS = (
    "exists z. (r(x, z) & s(z, y))",
    "forall z. (s(y, z) -> r(x, z))",
    "r(x, y) -> s(y, x)",
    "~r(x, y) | s(x, y)",
)


class CalcWorkload(Workload):
    """``rankrel calc`` over two binary string relations."""

    name = "calc"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        elements = data.universe(self.sizes["universe"])
        for name in ("r", "s"):
            header, rows = data.binary_relation(elements, self.sizes["density"], rng)
            data.write_csv(self.directory / f"{name}.csv", header, rows)
        self.requests = [(text,) for text in CALC_FORMULAS]

    def cycle(self, index: int) -> list[tuple]:
        return self.requests + self.requests[3:]  # negation/disjunction twice: 5 per cycle

    def run(self, request: tuple) -> str:
        return _run_cli(["calc", request[0], "--catalog", str(self.directory), "--exact"])

    def check(self, request: tuple, output: str) -> None:
        structure = calculus.structure_from_tables(Catalog.from_dir(self.directory).tables)
        _expect(len(structure.universe) == self.sizes["universe"], "universe size drifted")
        formula = calculus.parse_formula(request[0])
        direct = calculus.table_of(structure, formula)
        compiled = planner.evaluate_over(*calculus.formula_to_algebra(formula, structure))
        _expect(direct == compiled, f"{request[0]}: table_of differs from the compiled algebra")
        _expect(table.read_table_csv(output) == direct, f"{request[0]}: CLI output differs")


WORKLOADS = {w.name: w for w in (QueryWorkload, TopkWorkload, RescaleWorkload, CalcWorkload)}
