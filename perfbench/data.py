"""Seeded input generators for the benchmark workloads.

Everything here is plain Python: rankrel only ever sees the CSV files,
config files and query texts written from these values.  The same seed
always yields byte-identical files.

Scores sit on a 1/1000 grid.  Where the benchmark's run-to-run spread
depends on how scores pair up across tables (the stopping depth of top-k,
the size of a join), the generator stratifies instead of drawing i.i.d.:
every grid level is used equally often, and the (house rank, offer rank)
pairs of one id are spread evenly over a BLOCKS x BLOCKS grid of rank
blocks, shuffled inside each cell.  The seed still decides which row gets
which score, every attribute value, and the order of ties.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

GRID = 1000
BLOCKS = 20
AGENTS = 12
REGIONS = 4


def grid_text(level: int) -> str:
    """Exact decimal text of level/GRID, as the rankrel CSV contract wants."""
    if level == GRID:
        return "1"
    return f"0.{level:03d}".rstrip("0")


def stratified_levels(n: int) -> list[int]:
    """n grid levels, best first, each level used equally often."""
    return [GRID - (i * GRID) // n for i in range(n)]


def balanced_rank_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """n (rank_a, rank_b) pairs forming a permutation, balanced over rank blocks.

    Each cell of the BLOCKS x BLOCKS block grid receives n / BLOCKS**2 pairs,
    so how many ids score high in both tables barely depends on the seed.
    """
    per_cell, rest = divmod(n, BLOCKS * BLOCKS)
    if rest or not per_cell:
        raise ValueError(f"n={n} must be a positive multiple of {BLOCKS * BLOCKS}")
    per_block = n // BLOCKS
    blocks_a = [list(range(b * per_block, (b + 1) * per_block)) for b in range(BLOCKS)]
    blocks_b = [list(range(b * per_block, (b + 1) * per_block)) for b in range(BLOCKS)]
    for block in blocks_a + blocks_b:
        rng.shuffle(block)
    pairs = [
        (blocks_a[a].pop(), blocks_b[b].pop())
        for a in range(BLOCKS)
        for b in range(BLOCKS)
        for _ in range(per_cell)
    ]
    rng.shuffle(pairs)
    return pairs


def agent_names() -> list[str]:
    return [f"agent{i:02d}" for i in range(AGENTS)]


def housing(n: int, rng: random.Random) -> dict[str, tuple[list[str], list[list]]]:
    """houses(id,bdrm,sqft), offers(id,agent,price) with one offer per id, agents.

    Returns table name -> (header, rows); the first cell of a row is its
    grid level.
    """
    levels = stratified_levels(n)
    pairs = balanced_rank_pairs(n, rng)
    agents = agent_names()
    houses = [
        [levels[house_rank], ident, rng.randint(1, 8), rng.randint(800, 5000)]
        for ident, (house_rank, _) in enumerate(pairs)
    ]
    offers = [
        [levels[offer_rank], ident, rng.choice(agents), rng.randint(500, 1000) * 1000]
        for ident, (_, offer_rank) in enumerate(pairs)
    ]
    agent_levels = stratified_levels(AGENTS)
    rng.shuffle(agent_levels)
    agent_rows = [
        [level, agent, f"region{rng.randrange(REGIONS)}"]
        for level, agent in zip(agent_levels, agents)
    ]
    return {
        "houses": (["id:int", "bdrm:int", "sqft:int"], houses),
        "offers": (["id:int", "agent:str", "price:int"], offers),
        "agents": (["agent:str", "region:str"], agent_rows),
    }


def scored_rows(n: int, rng: random.Random) -> tuple[list[str], list[list]]:
    """A houses-shaped table with i.i.d. grid scores (ties included)."""
    rows = [
        [rng.randint(1, GRID), ident, rng.randint(1, 8), rng.randint(800, 5000)]
        for ident in rng.sample(range(10 * n), n)
    ]
    return ["id:int", "bdrm:int", "sqft:int"], rows


def increasing_graph(rng: random.Random) -> list[tuple[str, str]]:
    """A seeded strictly increasing map of every grid level, fixing 0 and 1."""
    images = sorted(rng.sample(range(1, 1_000_000), GRID - 1))
    pairs = [("0", "0")]
    pairs += [(grid_text(level), f"0.{image:06d}".rstrip("0"))
              for level, image in zip(range(1, GRID), images)]
    pairs.append(("1", "1"))
    return pairs


def raise_scores(rows: list[list], first_fraction: float, extra: int,
                 rng: random.Random) -> tuple[list[list], list[list]]:
    """Copy a houses-shaped table with a few scores raised to 1.

    Only raised rows break ordinal inclusion, so the first violation in
    canonical row order (attribute-name order: bdrm, id, sqft) is the first
    raised row.  It is the first row at or after ``first_fraction`` of that
    order whose score is below the median, so the O(n^2) evidence scan
    always visits about that share of the rows before finding it.  ``extra``
    more rows after it are raised at seeded positions.
    """
    ordered = sorted(rows, key=lambda row: (row[2], row[1], row[3]))
    median = sorted(row[0] for row in rows)[len(rows) // 2]
    start = int(first_fraction * len(ordered))
    low = [i for i in range(start, len(ordered)) if ordered[i][0] < median]
    raised = {low[0], *rng.sample(low[1:], extra)}
    perturbed = [
        [GRID] + row[1:] if i in raised else list(row) for i, row in enumerate(ordered)
    ]
    return ordered, perturbed


def universe(size: int) -> list[str]:
    return [f"e{i:02d}" for i in range(size)]


def binary_relation(elements: list[str], density: float,
                    rng: random.Random) -> tuple[list[str], list[list]]:
    """A string relation with exactly density * |U|^2 pairs; every element occurs."""
    count = round(density * len(elements) ** 2)
    shuffled = elements[:]
    rng.shuffle(shuffled)
    chosen = set(zip(elements, shuffled))
    every = [(a, b) for a in elements for b in elements if (a, b) not in chosen]
    chosen.update(rng.sample(every, count - len(chosen)))
    rows = [[rng.randint(1, GRID), a, b] for a, b in sorted(chosen)]
    return ["a:str", "b:str"], rows


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write rows whose first cell is a grid level in the rankrel CSV format."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["#"] + header)
        for row in rows:
            writer.writerow([grid_text(row[0])] + row[1:])
