"""rfcalc benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload {verify,quad,tower} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
One client sends the next request only after the previous one returned.
Each batch of generated requests is a pass; passes repeat until starting
another would overrun ``--seconds`` (verify always makes two, so that its
CSV can be compared byte for byte).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
amount of work (the first batches) in alternating untraced and traced
rounds, checks that both give identical outputs, and prints the per-layer
metrics; the spans go to ``perfbench/out/``.  The last line of standard output is the
JSON result; lines before it describe failures, percentiles and shares.

tower also judges its known-defect probes (``workloads.probes``) once per
run, after the timed loop; they are reported on their own lines and are
not operations of the result.  The traced run includes them, so that the
inverse hyperbolics, which all lie in a known-defect region, are traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
BATCHES = 16
TRACE_BATCHES = 2
TRACE_ROUNDS = {"verify": 1, "quad": 3, "tower": 3}
MIN_PASSES = {"verify": 2, "quad": 1, "tower": 1}
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _setup(workload: str, seed: int):
    """Import the program, generate the inputs and warm the lazy caches."""
    t0 = time.perf_counter()
    import workloads

    batches = workloads.generate(workload, seed, BATCHES)
    workloads.warm()
    return time.perf_counter() - t0, workloads, batches


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1  # with fewer samples, the largest
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


class Tally:
    """Outcome of a sequence of requests: latencies, failures, class times."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.class_time: dict[str, float] = {}
        self.class_count: dict[str, int] = {}
        self.failures: dict[str, list[str]] = {}
        self.unexpected: list[str] = []
        self.attempted = 0
        self.outputs: list = []

    def record(self, req, output, seconds: float, reason) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.class_time[req.cls] = self.class_time.get(req.cls, 0.0) + seconds
        self.class_count[req.cls] = self.class_count.get(req.cls, 0) + 1
        if reason is not None:
            self.failures.setdefault(req.cls, []).append(reason)
            if self.wl.known_defect(req) is None:
                self.unexpected.append(f"{req.cls}: {reason}")

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())

    def report(self, out) -> None:
        print(f"# fail_ratio {self.failed / max(1, self.attempted):.6g} "
              f"({self.failed} failed of {self.attempted})", file=out)
        for cls in sorted(self.failures):
            print(f"# failures {cls}: {len(self.failures[cls])}", file=out)
        if self.failures:
            labels = "; ".join(label for label, _ in self.wl.KNOWN_DEFECTS)
            print(f"# known defect regions: {labels}", file=out)
        for line in self.unexpected[:20]:
            print(f"# UNEXPECTED {line}", file=out)
        shares = ", ".join(f"{g} {v:.3f}" for g, v in self.class_shares().items())
        print(f"# time share by request class: {shares}", file=out)

    def report_probes(self, out) -> None:
        """Known-defect probes: judged, but not timed and not in the result."""
        if not self.attempted:
            return
        print(f"# known-defect probes, judged apart from the timed operations: "
              f"{self.failed} of {self.attempted} fail", file=out)
        for cls in sorted(self.class_count):
            print(f"# probe failures {cls}: {len(self.failures.get(cls, []))} "
                  f"of {self.class_count[cls]}", file=out)
        for line in self.unexpected[:20]:
            print(f"# UNEXPECTED probe {line}", file=out)

    def class_shares(self) -> dict[str, float]:
        busy = sum(self.class_time.values()) or 1.0
        groups: dict[str, float] = {}
        for cls, t in self.class_time.items():
            group = cls.split(":", 1)[0]
            groups[group] = groups.get(group, 0.0) + t / busy
        return groups


def _run_batch(wl, batch, tally: Tally, keep_outputs: bool, reference: list) -> float:
    """Runs one pass; returns the time spent inside the program."""
    spent = 0.0
    for req in batch:
        t0 = time.perf_counter()
        output = wl.execute(req)
        dt = time.perf_counter() - t0
        spent += dt
        if req.cls == "verify":
            reason = wl.check_verify(req, output, reference[0] if reference else None)
            if not reference:
                reference.append(output[1])
        else:
            reason = wl.check(req, output)
        tally.record(req, output, dt, reason)
        if keep_outputs:
            tally.outputs.append(output)
    return spent


def timed_run(workload: str, wl, batches, seconds: float) -> tuple[dict, Tally]:
    tally = Tally(wl)
    pass_times: list[float] = []
    pass_rates: list[float] = []
    reference: list = []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        batch = batches[k % len(batches)]
        pass_times.append(_run_batch(wl, batch, tally, False, reference))
        pass_rates.append(len(batch) / pass_times[-1])
        k += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t0
        if k >= MIN_PASSES[workload] and elapsed + last > seconds:
            break
    tail, pct, beyond = _tail(tally.latencies)
    print(f"# workload {workload}: {k} passes, {tally.attempted} requests, "
          f"{time.perf_counter() - start:.3f} s wall")
    print(f"# latency_tail_ms is p{pct:.4g} of {len(tally.latencies)} samples ({beyond} beyond it)")
    metrics = {
        "pass_s": statistics.median(pass_times),
        "req_per_s": statistics.median(pass_rates),
        "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
        "latency_tail_ms": 1e3 * tail,
    }
    return metrics, tally


def run_probes(wl, probes, keep_outputs: bool = False) -> Tally:
    tally = Tally(wl)
    _run_batch(wl, probes, tally, keep_outputs, [])
    return tally


def traced_run(workload: str, wl, batches, probes, seed: int) -> tuple[dict, Tally, Tally]:
    """Fixed work and the probes, untraced then traced, in alternating rounds.

    The work counts and per-layer numbers come from the last traced round;
    the tracing overhead compares the median untraced and traced rounds.
    """
    import layers
    from tracer import Tracer

    work = batches[:TRACE_BATCHES]
    requests = [req for batch in work for req in batch]
    untraced, traced_times = [], []
    for _ in range(TRACE_ROUNDS[workload]):
        plain = Tally(wl)
        t0 = time.perf_counter()
        for batch in work:
            _run_batch(wl, batch, plain, True, [])
        probed = run_probes(wl, probes, keep_outputs=True)
        untraced.append(time.perf_counter() - t0)

        tracer = Tracer()
        outputs = []
        layers.install(tracer)
        try:
            t0 = time.perf_counter()
            for rid, req in enumerate(requests + probes):
                outputs.append(tracer.request(rid, wl.execute, req))
            traced_times.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()

    # Judge the traced outputs after timing, like the untraced ones.
    traced = Tally(wl)
    for req, output in zip(requests, outputs):
        reason = wl.check_verify(req, output) if req.cls == "verify" else wl.check(req, output)
        traced.record(req, output, 0.0, reason)
    traced.class_time = plain.class_time
    if outputs != plain.outputs + probed.outputs:
        traced.unexpected.append("traced outputs differ from untraced outputs")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-{seed}.json")

    metrics = layers.layer_metrics(tracer)
    shares = plain.class_shares()
    base, with_trace = statistics.median(untraced), statistics.median(traced_times)
    metrics.update({
        "tower.class_a.share": shares.get("a", 0.0),
        "tower.class_b.share": shares.get("b", 0.0),
        "tower.class_c.share": shares.get("c", 0.0),
        "trace.untraced_s": base,
        "trace.traced_s": with_trace,
        "trace.overhead_s": with_trace - base,
        "trace.overhead_ratio": (with_trace - base) / base,
    })
    print(f"# traced {len(requests)} requests and {len(probes)} probes in {len(untraced)} rounds: "
          f"untraced {base:.3f} s, traced {with_trace:.3f} s (medians)")
    return metrics, traced, probed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "quad", "tower"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rfcalc" / "__init__.py").is_file():
        print(f"error: no rfcalc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    if args.setup_probe:
        seconds, _, _ = _setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    if args.trace:
        _, wl, batches = _setup(args.workload, args.seed)
        import layers

        probes = wl.probes(args.workload, args.seed)
        metrics, tally, probed = traced_run(args.workload, wl, batches, probes, args.seed)
        units = layers.PER_LAYER
    else:
        setup_s = _setup_probe_seconds(args.workload, args.seed)
        in_process_s, wl, batches = _setup(args.workload, args.seed)
        print(f"# setup: median of {SETUP_PROBES} fresh interpreters {setup_s:.4f} s; "
              f"this process {in_process_s:.4f} s")
        metrics, tally = timed_run(args.workload, wl, batches, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        probed = run_probes(wl, wl.probes(args.workload, args.seed))
    tally.report(sys.stdout)
    probed.report_probes(sys.stdout)
    result = {
        "correct": not tally.unexpected and not probed.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
