"""Digest the output of every benchmark request, to show that a change keeps outputs identical.

    python3 tools/output_digests.py CHECKOUT OUT

Imports rankrel from CHECKOUT's ``src`` and the workloads from CHECKOUT's
``perfbench/workloads.py``, writing nothing into CHECKOUT.  For each
workload in ``WORKLOADS`` and each seed 1-20, at ``FULL`` sizes, it runs
``setup()`` in a fresh temporary directory, then every distinct request
cold and then warm (a second pass on the same workload object), requires
the two outputs of each request to be equal, and passes the first to the
workload's ``check()``.  OUT gets one tab-separated line per request:
workload, seed, request number and the SHA-256 of the output.  A ``topk``
output is hashed as each item's ``repr(row)`` and exact score, and its line
has a fifth column holding its access counts as plain text,
``sorted=S random=R``; every other output is the text the request returned.
So a change that reads fewer or more rows but ranks the same items changes
only that column.

Run it at the parent commit and at the change, then compare the files::

    python3 tools/output_digests.py PARENT parent.digests
    python3 tools/output_digests.py . change.digests
    cmp parent.digests change.digests
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 21)


def load_workloads(checkout: Path):
    """CHECKOUT's workloads module, with rankrel imported from CHECKOUT's sources."""
    sys.dont_write_bytecode = True  # leave CHECKOUT as it is
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import rankrel
    import workloads

    for module, expected in ((rankrel, checkout / "src" / "rankrel" / "__init__.py"),
                             (workloads, checkout / "perfbench" / "workloads.py")):
        if Path(module.__file__).resolve() != expected.resolve():
            raise ImportError(f"{module.__name__} imported from {module.__file__}, not {expected}")
    return workloads


def digest_columns(output) -> str:
    """The output's SHA-256, then a top-k result's access counts as a column of their own."""
    if isinstance(output, str):
        return hashlib.sha256(output.encode()).hexdigest()
    items = "\n".join(f"{row!r}\t{score.value!r}" for row, score in output.items)
    return (f"{hashlib.sha256(items.encode()).hexdigest()}\t"
            f"sorted={output.sorted_accesses} random={output.random_accesses}")


def digests(workloads, name: str, seed: int) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=f"digests-{name}-") as directory:
        workload = workloads.WORKLOADS[name](workloads.FULL[name], seed, Path(directory))
        workload.setup()
        cold = [workload.run(request) for request in workload.requests]
        warm = [workload.run(request) for request in workload.requests]
        lines = []
        for number, (request, first, second) in enumerate(zip(workload.requests, cold, warm)):
            columns = digest_columns(first)
            if digest_columns(second) != columns:
                raise AssertionError(f"{name} seed {seed}: {request!r} differs between runs")
            workload.check(request, first)
            lines.append(f"{name}\t{seed}\t{number}\t{columns}\n")
        return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout, out = Path(argv[0]).resolve(), Path(argv[1])
    workloads = load_workloads(checkout)
    with out.open("w", encoding="utf-8") as sink:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                sink.writelines(digests(workloads, name, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
