"""graphtoric benchmark: one workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src and
from nowhere else.  Inputs come from the seed alone (workloads.py).  A
run times the set-up in fresh interpreters, makes one untimed pass over
the workload's fixed job list in which every answer is checked
(checks.py), then repeats timed passes until S seconds have gone by; a
later pass must reproduce the checked answers exactly.  It prints the
metrics named in spec.py: with --trace 0 the end-to-end ones, with
--trace 1 the per-layer ones, which also go with the spans of one pass
to benchmark/out/trace-<workload>-<seed>.json.  Lines above the last
give the raw seconds and kernel times behind each scaled figure; the
last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed for setup_s, each between two reference
# interpreters (kernel.IMPORT_KERNEL); the median is reported.
SETUP_RUNS = 21
# Census graphs whose vertex sets are compared with the brute-force
# enumerator: every one of dimension 3 and, chosen with the seed, one of
# dimension 6, which alone takes 2 s to 8 s.
BRUTE_FORCE_DIMS = {3: None, 6: 1}

# Times its own import of graphtoric and the building of the workload's
# graphs.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import graphtoric
import workloads
workloads.build_jobs({workload!r}, {seed!r})
print(time.perf_counter() - start)
"""


def import_program():
    """Import graphtoric from this checkout's src, or exit 1."""
    package = SRC / "graphtoric" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the root of a graphtoric checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import graphtoric

    if Path(graphtoric.__file__).resolve() != package.resolve():
        sys.exit(f"error: graphtoric imported from {graphtoric.__file__}, not {package}")


def run_job(job):
    """One graph analysed; text jobs parse first and end in JSON."""
    from graphtoric import cli, graph_core

    graph = graph_core.parse_graph(job.text) if job.text is not None else job.graph
    report, artifacts = cli.analyze_graph(graph, skip_vertex_enum=job.skip_vertex_enum)
    return report, artifacts, report.to_json() if job.text is not None else None


def digest(out) -> bytes:
    """Digest of everything a later pass must reproduce (elapsed_ms aside);
    a digest, so that holding it costs no memory."""
    report, artifacts, text = out
    v = artifacts.vpoly
    facts = (
        sorted((report.__dict__ | {"elapsed_ms": None}).items()),
        v and (v.vertices, v.incidence),
        artifacts.facet_rows,
        text and sorted((json.loads(text) | {"elapsed_ms": None}).items()),
    )
    return hashlib.sha256(repr(facts).encode()).digest()


class Run:
    """Passes over one job list; the first checks every answer."""

    def __init__(self, jobs, seed: int, probe):
        from reference import load

        theta = load()
        self.jobs = jobs
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digests: list[bytes | None] = [None] * len(jobs)
        self.oracle_due: list = []
        self.reports: list = [None] * len(jobs)
        self.copies = [
            theta.get(str(j.genus)) if j.label == f"theta-{j.genus}" and not j.skip_vertex_enum else None
            for j in jobs
        ]
        rng = random.Random(seed)
        self.brute = set()
        for dim, count in BRUTE_FORCE_DIMS.items():
            pool = [i for i, j in enumerate(jobs) if j.text is not None and j.graph.n_edges == dim]
            self.brute.update(pool if count is None else rng.sample(pool, min(count, len(pool))))

    def check_pass(self) -> None:
        """The untimed first pass: every answer checked independently."""
        from checks import check_job

        def check(i, job, out):
            check_job(job, *out, copy=self.copies[i])
            self.digests[i] = digest(out)
            self.reports[i] = (out[0], len(out[1].hrep.rows))
            if i in self.brute:
                self.oracle_due.append((job.label, out[1].hrep, out[1].vpoly.vertices))

        self._pass(None, check)

    def check_oracle(self) -> None:
        """Compare the sampled census graphs with the brute-force
        enumerator.  Called after peak memory is read: the oracle's own
        memory, not the program's, would otherwise set it."""
        from graphtoric.polytope import brute_force_vertices

        for label, hrep, vertices in self.oracle_due:
            if brute_force_vertices(hrep).vertices != vertices:
                self.failed += 1
                self.wrong += 1
                print(f"WRONG {label}: vertex set differs from brute force", file=sys.stderr)

    def timed_pass(self, on_job=None) -> dict[int, tuple[float, float]]:
        """A pass timed job by job; {job index: (raw s, scale)} for the
        jobs that did not fail."""
        return self._pass(self.probe, self._same, on_job)

    def untimed_pass(self) -> None:
        self._pass(None, self._same)

    def _same(self, i, job, out):
        from checks import CheckFailed

        if digest(out) != self.digests[i]:
            raise CheckFailed("output differs from the checked pass")

    def _pass(self, probe, verify, on_job=None):
        from checks import CheckFailed

        times = {}
        for i, job in enumerate(self.jobs):
            gc.collect()
            if on_job is not None:
                on_job(i)
            self.attempted += 1
            try:
                if probe is None:
                    out = run_job(job)
                else:
                    out, raw, scale = probe.timed(run_job, job)
                verify(i, job, out)
                if probe is not None:
                    times[i] = (raw, scale)
            except CheckFailed as exc:
                self.failed += 1
                self.wrong += 1
                print(f"WRONG {job.label}: {exc}", file=sys.stderr)
            except Exception:
                self.failed += 1
                print(f"FAILED {job.label}:\n{traceback.format_exc()}", file=sys.stderr)
        return times


def measure_setup(workload: str, seed: int) -> tuple[list[tuple[float, float]], list[float]]:
    """(raw s, scale) of each fresh-interpreter set-up, and the times of
    the reference interpreters run before, between and after them."""
    from kernel import IMPORT_KERNEL, NOMINAL_IMPORT_S

    def child(code: str) -> float:
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(done.stdout)

    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    references = [child(IMPORT_KERNEL)]
    out = []
    for _ in range(SETUP_RUNS):
        raw = child(code)
        references.append(child(IMPORT_KERNEL))
        out.append((raw, 2 * NOMINAL_IMPORT_S / (references[-2] + references[-1])))
    return out, references


def scaled_sum(times: dict) -> float:
    return sum(raw * scale for raw, scale in times.values())


def end_to_end(run: Run, workload: str, seed: int, seconds: float) -> dict:
    from kernel import NOMINAL_IMPORT_S

    setup, references = measure_setup(workload, seed)
    run.check_pass()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run.timed_pass())
    jobs = [t for p in passes for t in p.values()]
    figures = {  # name: (scaled, raw)
        "setup_s": (median(r * k for r, k in setup), median(r for r, _ in setup)),
        "pass_s": (
            median(map(scaled_sum, passes)),
            median(sum(r for r, _ in p.values()) for p in passes),
        ),
        "job_s.p50": (median(r * k for r, k in jobs), median(r for r, _ in jobs)),
    }
    print(f"set-up reference interpreters: {len(references)}, min {min(references):.6f} "
          f"median {median(references):.6f} max {max(references):.6f} s; "
          f"nominal {NOMINAL_IMPORT_S:.6f} s")
    print(f"{len(setup)} set-up runs; {len(passes)} timed passes of {len(run.jobs)} jobs, "
          f"scaled s: {' '.join(f'{scaled_sum(p):.4f}' for p in passes)}")
    print(f"{'metric':<12} {'scaled':>10} {'raw':>10} {'raw/scaled':>11}")
    for name, (value, raw) in figures.items():
        print(f"{name:<12} {value:>10.6f} {raw:>10.6f} {raw / value:>11.4f}")
    metrics = {name: value for name, (value, _) in figures.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'peak_rss_mb':<12} {metrics['peak_rss_mb']:>10.3f}")
    return metrics


def per_layer(run: Run, workload: str, seed: int, seconds: float) -> dict:
    from spec import FRACTION_STAGES, OUTPUT_COUNTS, TRACED_LAYERS, seconds_name
    from tracing import FractionCounter, Tracer

    run.check_pass()
    tracer = Tracer(clock=run.probe.now)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(scaled_sum(run.timed_pass()))
        first = len(tracer.spans)
        with tracer.installed():
            times = run.timed_pass(on_job=lambda i: setattr(tracer, "job", i))
        traced.append(scaled_sum(times))
        if not layers:
            spans = (first, len(tracer.spans))
        layers.append(tracer.summarise(first, {i: k for i, (_, k) in times.items()}))
    fractions = FractionCounter()
    with fractions.installed():
        run.untimed_pass()

    calls = layers[0][1]
    if any(c != calls for _, c in layers):
        print("WRONG call counts differ between traced passes", file=sys.stderr)
        run.wrong += 1
    metrics: dict[str, float] = {}
    for layer in TRACED_LAYERS:
        metrics[seconds_name(layer)] = statistics.fmean(s[layer] for s, _ in layers)
        metrics[f"{layer}.calls"] = calls[layer]
    reports = [r for r in run.reports if r is not None]
    outputs = {
        "polytope.rows": sum(rows for _, rows in reports),
        "polytope.vertices": sum(r.vertex_count or 0 for r, _ in reports),
        "polytope.facets": sum(r.facet_count or 0 for r, _ in reports),
        "polytope.labellings": sum(r.cube_vertex_count for r, _ in reports),
    }
    metrics.update((name, outputs[name]) for name in OUTPUT_COUNTS)
    for stage in FRACTION_STAGES:
        metrics[f"{stage}.fraction_calls"] = fractions.counts[stage]
    metrics["trace.overhead_s"] = median(traced) - median(untraced)

    print(f"{len(untraced)} untraced passes, median {median(untraced):.6f} s; "
          f"{len(traced)} traced, median {median(traced):.6f} s")
    for name, value in metrics.items():
        print(f"{name:<46} {value}")
    lo, hi = spans
    origin = tracer.spans[lo][3] if hi > lo else 0.0
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "jobs": [j.label for j in run.jobs],
        "span_fields": ["job", "name", "parent", "start_s", "end_s"],
        "spans": [
            [j, n, p - lo if p >= 0 else -1, s - origin, e - origin]
            for j, n, p, s, e in tracer.spans[lo:hi]
        ],
        "metrics": metrics,
    }, indent=1) + "\n", encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from kernel import NOMINAL_KERNEL_S, Probe
    from spec import END_TO_END, per_layer as layer_units
    from workloads import WORKLOADS, build_jobs

    if args.workload not in WORKLOADS:
        parser.error(f"workload must be one of {', '.join(WORKLOADS)}")
    run = Run(build_jobs(args.workload, args.seed), args.seed, Probe())
    if args.trace:
        metrics = per_layer(run, args.workload, args.seed, args.seconds)
        units = dict(layer_units())
    else:
        metrics = end_to_end(run, args.workload, args.seed, args.seconds)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    if list(metrics) != list(units):
        raise RuntimeError("reported metrics differ from spec.py")
    run.check_oracle()
    s = run.probe.samples
    print(f"kernel: {len(s)} samples in this process, min {min(s):.6f} median {median(s):.6f} "
          f"max {max(s):.6f} s; nominal {NOMINAL_KERNEL_S:.6f} s")
    print(f"jobs attempted {run.attempted}, failed {run.failed}, wrong answers {run.wrong}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
