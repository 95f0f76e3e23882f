"""Benchmark a change against its parent in alternating pairs, and record the result.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<pr>.json \\
        [--workload W ...] [--seeds 1-3] [--seconds 20]

PARENT and CHANGE are two checkouts of the repository.  For every workload
(default: all of BENCHMARK.json's) and every seed, one pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each
checkout, one after the other; which side goes first alternates from pair
to pair.  Then ``tools/output_digests.py`` (the copy next to this file) runs
on both checkouts, and the two digest files are compared.

The JSON written to ``--out`` holds the protocol (with each side's commit,
if it is a git checkout, and the SHA-256 of its ``src/``), every pair's
numbers, and per workload and end-to-end metric: both medians, the parent's
quartiles, the change's wins (ties count for neither side), and a verdict
against the metric's BENCHMARK.json bound.  The verdict is ``worse`` when
the change's median is worse than the parent's by more than the bound,
``unresolved`` when the parent's interquartile range is wider than the
bound and not every change run beats every parent run, and ``within``
otherwise.  It also holds each side's failed and attempted request counts
and the digest verdict: whether the two digest files are identical,
whether they are identical apart from the access-count column of ``topk``
requests (``items_identical``), each side's access totals, and how many
requests made more accesses at the change than at the parent.  The exit
code is 0 only when no metric is ``worse``, no request failed and the
digests are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1-3"`` or ``"1,4,7"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metric values plus its failed and attempted counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no result for {workload} seed {seed}: {proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {"metrics": values, "failed": result["failed"], "attempted": result["attempted"]}


def quartiles(values: list[float]) -> list[float]:
    """First and third quartiles, interpolated between the runs themselves."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, the parent's quartiles, wins and the bound verdict of one metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair i; ``spec`` is the
    metric's BENCHMARK.json entry (``better`` and ``bound``).
    """
    sign = 1 if spec["better"] == "higher" else -1
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    low, high = quartiles(parent)
    # positive when the change's median is worse, as a share of the parent's
    worse_by = sign * (parent_median - change_median) / parent_median if parent_median else 0.0
    spread = (high - low) / parent_median if parent_median else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by > spec["bound"]:
        verdict = "worse"
    elif spread > spec["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent_median": parent_median, "change_median": change_median,
        "parent_quartiles": [low, high], "worse_by": worse_by, "parent_spread": spread,
        "wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "pairs": len(parent), "verdict": verdict,
    }


def workload_summary(specs: list[dict], pairs: list[dict]) -> dict:
    def values(side: str, name: str) -> list[float]:
        return [pair[side]["metrics"][name] for pair in pairs]

    return {
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
        "metrics": {spec["name"]: summarize(spec, values("parent", spec["name"]),
                                            values("change", spec["name"]))
                    for spec in specs},
    }


def parse_digests(text: str) -> dict[tuple[str, str, str], tuple[str, dict[str, int]]]:
    """Each request's output digest and access counts, by (workload, seed, request number).

    A line of ``tools/output_digests.py`` holds those three, the digest and,
    for a top-k output only, a column such as ``sorted=4 random=3``.
    """
    found = {}
    for line in text.splitlines():
        workload, seed, number, digest, *counts = line.split("\t")
        pairs = (count.split("=") for column in counts for count in column.split())
        found[workload, seed, number] = digest, {name: int(value) for name, value in pairs}
    return found


def compare_digests(parent: str, change: str) -> dict:
    """Whether two digest files hold the same outputs apart from access counts, and how the counts moved."""
    sides = {"parent": parse_digests(parent), "change": parse_digests(change)}
    items = {side: {key: digest for key, (digest, _) in lines.items()}
             for side, lines in sides.items()}
    accesses = {side: {name: sum(counts.get(name, 0) for _, counts in lines.values())
                       for name in ("sorted", "random")}
                for side, lines in sides.items()}
    rose = sum(1 for key, (_, counts) in sides["change"].items() if key in sides["parent"]
               and any(value > sides["parent"][key][1].get(name, 0)
                       for name, value in counts.items()))
    return {"items_identical": items["parent"] == items["change"], "accesses": accesses,
            "requests_with_more_accesses": rose}


def digest_verdict(checkouts: dict[str, Path]) -> dict:
    """Run the output-digest tool on both checkouts and compare the files."""
    found, texts = {}, {}
    with tempfile.TemporaryDirectory(prefix="bench-digests-") as directory:
        for side, checkout in checkouts.items():
            out = Path(directory) / f"{side}.digests"
            subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"),
                            str(checkout), str(out)], check=True)
            data = out.read_bytes()
            found[side] = {"sha256": hashlib.sha256(data).hexdigest(),
                           "lines": data.count(b"\n")}
            texts[side] = data.decode("utf-8")
    return {**found, "identical": found["parent"] == found["change"],
            **compare_digests(texts["parent"], texts["change"])}


def revision(checkout: Path) -> str | None:
    """The checkout's commit, suffixed ``-dirty`` when its files differ from it."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                           "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_sha256(checkout: Path) -> str:
    """SHA-256 over the checkout's ``src/**/*.py``: each file's relative path, then its bytes.

    Files go in path order, so the digest names the source a side ran even
    when the checkout is no repository (``revision`` is then ``None``).
    """
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(checkout).as_posix()
                       for path in checkout.glob("src/**/*.py")):
        digest.update(name.encode("utf-8"))
        digest.update((checkout / name).read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-3"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {}
    index = 0
    for workload in workloads:
        pairs = []
        for seed in args.seeds:
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
            pairs.append(pair)
            index += 1
        results[workload] = {"pairs": pairs, **workload_summary(bench["end_to_end"], pairs)}

    report = {
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "seconds": seconds, "seeds": args.seeds, "workloads": workloads,
            "order": "alternating: the parent runs first in pairs 0, 2, 4, ... over all workloads",
            "revisions": {side: revision(path) for side, path in checkouts.items()},
            "src_sha256": {side: src_sha256(path) for side, path in checkouts.items()},
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "workloads": results,
        "digests": digest_verdict(checkouts),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    verdicts = [m["verdict"] for r in results.values() for m in r["metrics"].values()]
    failed = sum(r["failed"][side] for r in results.values() for side in SIDES)
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:<8} {name:<16} {metric['parent_median']:>10.3f} -> "
                  f"{metric['change_median']:>10.3f}  wins {metric['wins']}/{metric['pairs']}  "
                  f"{metric['verdict']}")
    digests = report["digests"]
    print(f"failed {failed}, digests identical: {digests['identical']}, items identical: "
          f"{digests['items_identical']}, requests with more accesses: "
          f"{digests['requests_with_more_accesses']}")
    return 0 if "worse" not in verdicts and not failed and report["digests"]["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
