"""Smoke tests for the benchmark harness: ``python3 -m pytest perfbench -q``.

Every workload runs end to end at smoke sizes, traced and untraced, with all
of its oracles; the oracles must catch a wrong answer; inputs must follow
the seed; and a directory without rankrel's sources must fail cleanly.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture
def harness():
    sys.path[:0] = [str(HERE)]
    import run

    run.import_rankrel()
    import workloads

    yield run, workloads
    sys.path.remove(str(HERE))


def test_oracle_catches_a_wrong_join(harness, tmp_path, monkeypatch):
    run, workloads = harness
    from rankrel import algebra, table

    original = algebra.natural_join

    def drop_one_row(left, right):
        joined = original(left, right)
        entries = joined.entries()
        entries.pop(next(iter(entries)))
        return table.RankedTable(joined.scheme, joined.chain, entries)

    monkeypatch.setattr(algebra, "natural_join", drop_one_row)
    bench = run.Run(workloads.QueryWorkload, workloads.SMOKE["query"], 3, tmp_path)
    bench.setup()
    assert bench.failed >= 1
    assert any("reference rows" in error for error in bench.errors)


def test_oracle_catches_a_wrong_top_k(harness, tmp_path, monkeypatch):
    run, workloads = harness
    from rankrel import topk

    original = topk.top_k
    monkeypatch.setattr(
        topk, "top_k",
        lambda sources, k: topk.TopKResult(tuple(reversed(original(sources, k).items))),
    )
    bench = run.Run(workloads.TopkWorkload, workloads.SMOKE["topk"], 3, tmp_path)
    bench.setup()
    assert bench.failed >= 1


def test_exceptions_count_as_failures(harness, tmp_path, monkeypatch):
    run, workloads = harness
    from rankrel import algebra

    def broken(*args):
        raise RuntimeError("broken operator")

    monkeypatch.setattr(algebra, "difference", broken)
    bench = run.Run(workloads.QueryWorkload, workloads.SMOKE["query"], 3, tmp_path)
    bench.setup()
    assert bench.failed == 1 and "broken operator" in bench.errors[0]
    bench.loop(0, 1)
    assert bench.failed == 2


def test_same_seed_same_inputs(harness, tmp_path):
    _, workloads = harness
    written = []
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        directory = tmp_path / name
        directory.mkdir()
        for cls in workloads.WORKLOADS.values():
            sub = directory / cls.name
            sub.mkdir()
            cls(workloads.SMOKE[cls.name], seed, sub).setup()
        written.append({
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()
        })
    assert written[0] == written[1]
    assert written[0].keys() == written[2].keys() and written[0] != written[2]


def test_balanced_pairs_form_a_permutation(harness):
    import data

    pairs = data.balanced_rank_pairs(800, random.Random(1))
    assert sorted(a for a, _ in pairs) == list(range(800))
    assert sorted(b for _, b in pairs) == list(range(800))


def test_tracer_restores_every_binding(harness, tmp_path):
    run, workloads = harness
    import rankrel
    from rankrel import catalog, chain, cli, table
    from tracer import Tracer

    before = (table.read_table_csv, catalog.read_table_csv, cli.read_table_csv,
              rankrel.read_table_csv, chain.Score.__lt__, table.RankedTable.__init__,
              catalog.Catalog.__dict__["from_dir"])
    bench = run.Run(workloads.CalcWorkload, workloads.SMOKE["calc"], 1, tmp_path)
    bench.setup()
    tracer = Tracer()
    tracer.install()
    assert cli.read_table_csv is not before[2]
    try:
        times = bench.loop(0, 1, lambda index: setattr(tracer, "request", index))
    finally:
        tracer.uninstall()
    after = (table.read_table_csv, catalog.read_table_csv, cli.read_table_csv,
             rankrel.read_table_csv, chain.Score.__lt__, table.RankedTable.__init__,
             catalog.Catalog.__dict__["from_dir"])
    assert after == before
    metrics = tracer.layer_metrics(len(times))
    assert metrics["cli.main.calls"] == 1
    assert metrics["calculus.evaluate.calls"] > metrics["calculus.table_of.calls"] == 1
    assert bench.failed == 0


def test_fails_without_rankrel_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
