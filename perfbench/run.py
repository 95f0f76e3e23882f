"""rankrel benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Set-up (generate, write CSV, open, one warm-up pass over the distinct
requests) is repeated SETUP_REPEATS times and its median reported; the
oracles then check every distinct request once, untimed.  The timed loop
runs whole request cycles until ``--seconds`` have passed and at least
MIN_REQUESTS requests completed, comparing each output with the checked
warm-up output.  Times are scaled to a reference machine speed by a kernel
sampled between requests (see speed.py).  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1``
runs half the time untraced and half traced, and reports per-layer metrics
(means per request) plus the tracing overhead; spans go to
``perfbench/out/spans-<workload>.tsv``.  ``--smoke`` shrinks every input so
the whole harness, oracles included, runs in seconds.

The last line of stdout is one JSON object; the exit code is 0 only when
every output was correct.  Without rankrel's sources next to this
directory the command prints nothing to stdout and exits 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_REQUESTS = 100


def import_rankrel() -> None:
    """Put this checkout's ``src`` first on the path and make sure rankrel comes from it."""
    src = ROOT / "src"
    if not (src / "rankrel" / "__init__.py").is_file():
        raise ImportError(f"no rankrel sources under {src}")
    sys.path.insert(0, str(src))
    import rankrel

    if Path(rankrel.__file__).resolve().parent != (src / "rankrel").resolve():
        raise ImportError(f"rankrel imported from {rankrel.__file__}, not {src}")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json declares."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    return {spec["name"]: spec["unit"] for spec in specs}


def _warm_up(workload, request: tuple, crashed: dict):
    try:
        return workload.run(request)
    except Exception:  # reported as a failed request once set-up is over
        crashed[request] = traceback.format_exc()
        return None


class Run:
    """One workload instance: set-up, checked warm-up, and timed request loops."""

    def __init__(self, workload_cls, sizes: dict, seed: int, directory: Path) -> None:
        self.workload_cls = workload_cls
        self.sizes = sizes
        self.seed = seed
        self.directory = directory
        self.setup_times: list[float] = []
        self.expected: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            speed = Speed()
            workload = self.workload_cls(self.sizes, self.seed, self.directory)
            _, wall, cpu = speed.measure(workload.setup)
            raw = [(wall, cpu)]
            outputs, crashed = {}, {}
            for request in workload.requests:
                outputs[request], wall, cpu = speed.measure(
                    lambda: _warm_up(workload, request, crashed))
                raw.append((wall, cpu))
            speed.sample()
            self.setup_times.append(sum(wall for wall, _ in speed.scale_all(raw)))
        self.workload = workload
        for request, output in outputs.items():
            self.attempted += 1
            if request in crashed:
                self._fail(crashed[request])
                continue
            try:
                workload.check(request, output)
            except Exception:  # an oracle failure is a result, not a crash
                self._fail(traceback.format_exc())
        self.expected = outputs

    def _serve(self, request: tuple):
        try:
            return self.workload.run(request)
        except Exception:  # keep serving; the failure is counted
            self._fail(traceback.format_exc())
            return None

    def loop(self, seconds: float, min_requests: int,
             on_request=None) -> list[tuple[float, float]]:
        """Whole cycles until ``seconds`` passed and ``min_requests`` requests ran.

        Returns each request's (wall, CPU) seconds at reference speed.
        """
        raw: list[tuple[float, float]] = []
        speed = Speed()
        start = perf_counter()
        cycle = 0
        while True:
            for request in self.workload.cycle(cycle):
                if on_request is not None:
                    on_request(len(raw))
                output, wall, cpu = speed.measure(lambda: self._serve(request))
                raw.append((wall, cpu))
                if output is not None and output != self.expected[request]:
                    self._fail(f"{request}: output differs from the checked warm-up output")
            cycle += 1
            if perf_counter() - start >= seconds and len(raw) >= min_requests:
                break
        speed.sample()
        self.attempted += len(raw)
        return speed.scale_all(raw)


def requests_per_second(times: list[tuple[float, float]]) -> float:
    """Throughput of the one closed-loop client: requests over time spent serving them."""
    return len(times) / sum(wall for wall, _ in times)


def end_to_end(run: Run, seconds: float, min_requests: int) -> tuple[dict[str, float], int]:
    times = run.loop(seconds, min_requests)
    latencies = [wall for wall, _ in times]
    return {
        "req_per_s": requests_per_second(times),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "cpu_ms_per_req": sum(cpu for _, cpu in times) * 1e3 / len(times),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(times)


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict[str, float], int]:
    from tracer import Tracer

    # Per-request means need whole cycles, not 100 samples, so no minimum here.
    plain = run.loop(seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.loop(seconds / 2, 1, lambda index: setattr(tracer, "request", index))
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    measured = tracer.layer_metrics(len(traced))
    measured["trace.req_per_s.untraced"] = requests_per_second(plain)
    measured["trace.req_per_s.traced"] = requests_per_second(traced)
    measured["trace.overhead.ratio"] = (
        measured["trace.req_per_s.untraced"] / measured["trace.req_per_s.traced"]
    )
    return measured, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single cycle, oracles included")
    args = parser.parse_args(argv)
    try:
        import_rankrel()
    except ImportError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        run = Run(workloads.WORKLOADS[args.workload], sizes, args.seed, directory)
        run.setup()
        if args.trace:
            measured, samples = per_layer(
                run, args.seconds, out_dir / f"spans-{args.workload}.tsv")
            units = metric_units("per_layer")
        else:
            measured, samples = end_to_end(run, args.seconds, 1 if args.smoke else MIN_REQUESTS)
            units = metric_units("end_to_end")
            measured = {name: measured[name] for name in units}
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for error in run.errors:
        print(error, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  {samples} timed requests")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  {'failed_ratio':<44} {run.failed / run.attempted:>14.4f} "
          f"of {run.attempted} attempted")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
