"""The pair statistics of ``tools/bench_pairs.py``, and the committed ``BENCH_*.json`` files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
LOWER = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3") == [1, 2, 3]
    assert bench_pairs.parse_seeds("4,7-8,2") == [4, 7, 8, 2]


def test_medians_quartiles_and_wins():
    summary = bench_pairs.summarize(HIGHER, [50.0, 60.0, 55.0, 58.0, 52.0],
                                    [51.0, 60.0, 54.0, 59.0, 53.0])
    assert summary["parent_median"] == 55.0 and summary["change_median"] == 54.0
    assert summary["parent_quartiles"] == [52.0, 58.0]
    assert summary["wins"] == 3 and summary["pairs"] == 5  # the tie at 60 counts for neither
    assert summary["worse_by"] == pytest.approx(1 / 55)
    assert summary["verdict"] == "within"


@pytest.mark.parametrize("spec, parent, change, verdict", [
    (HIGHER, [100.0, 100.0, 100.0], [79.0, 79.0, 79.0], "worse"),  # 21% fewer requests
    (HIGHER, [100.0, 100.0, 100.0], [81.0, 81.0, 81.0], "within"),
    (LOWER, [10.0, 10.0, 10.0], [12.6, 12.6, 12.6], "worse"),  # 26% slower
    (LOWER, [10.0, 10.0, 10.0], [12.4, 12.4, 12.4], "within"),
    (HIGHER, [60.0, 100.0, 140.0], [95.0, 100.0, 105.0], "unresolved"),  # spread 40% > 20%
    (HIGHER, [60.0, 100.0, 140.0], [141.0, 142.0, 143.0], "within"),  # every change run better
])
def test_bound_verdicts(spec, parent, change, verdict):
    assert bench_pairs.summarize(spec, parent, change)["verdict"] == verdict


def test_workload_summary_counts_failures_per_side():
    pairs = [{"seed": seed, "first": first,
              "parent": {"metrics": {"req_per_s": 50.0 + seed}, "failed": 0, "attempted": 100},
              "change": {"metrics": {"req_per_s": 52.0 + seed}, "failed": seed, "attempted": 90}}
             for seed, first in ((1, "parent"), (2, "change"))]
    summary = bench_pairs.workload_summary([HIGHER], pairs)
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["attempted"] == {"parent": 200, "change": 180}
    assert summary["metrics"]["req_per_s"]["wins"] == 2


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_parse_and_name_their_protocol(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["protocol"]["command"] and report["protocol"]["seeds"]
    for result in report["workloads"].values():
        assert result["pairs"] and set(result["failed"]) == {"parent", "change"}


PARENT_DIGESTS = (
    "query\t1\t0\taaa\n"
    "topk\t1\t0\tbbb\tsorted=7 random=7\n"
    "topk\t1\t1\tccc\tsorted=3 random=3\n"
)


def test_digests_tell_items_from_access_counts():
    fewer = PARENT_DIGESTS.replace("sorted=7 random=7", "sorted=4 random=3")
    report = bench_pairs.compare_digests(PARENT_DIGESTS, fewer)
    assert report == {
        "items_identical": True,
        "accesses": {"parent": {"sorted": 10, "random": 10},
                     "change": {"sorted": 7, "random": 6}},
        "requests_with_more_accesses": 0,
    }
    more = PARENT_DIGESTS.replace("sorted=3 random=3", "sorted=2 random=4")
    assert bench_pairs.compare_digests(PARENT_DIGESTS, more)["requests_with_more_accesses"] == 1
    other = PARENT_DIGESTS.replace("ccc", "ddd")
    assert not bench_pairs.compare_digests(PARENT_DIGESTS, other)["items_identical"]
    assert bench_pairs.parse_digests(PARENT_DIGESTS)["query", "1", "0"] == ("aaa", {})


def test_src_digest_names_the_source_tree(tmp_path):
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "a.py").write_bytes(b"A = 1\n")
        (tree / "src" / "pkg" / "b.py").write_bytes(b"B = 2\n")
        (tree / "src" / "notes.txt").write_text(tree.name)  # not a .py file, so not read
    parent, change = (bench_pairs.src_sha256(tree) for tree in trees)
    assert parent == change and len(parent) == 64
    (trees[1] / "src" / "pkg" / "b.py").write_bytes(b"B = 3\n")
    assert bench_pairs.src_sha256(trees[1]) != parent
