"""Benchmark of the mckay pipeline: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload skew_large --seed 1 --seconds 20 --trace 0

One client in one process runs the seeded deck of jobs (``jobs.py``) pass
after pass, waiting for each job, until ``--seconds`` have elapsed; whole
passes only, so every run measures the same job mix.  A job is one
in-process ``mckay.cli.main(argv)`` call with stdout captured, or one
library call.  Every job's output is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from outside-in
spans (``tracing.py``), per pass, with the tracing overhead.  A table for
people precedes the last line, which is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Traced runs also write
their spans to ``.bench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import jobs
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_SAMPLES = 21

# Tiny jobs run once before timing, so imports and small caches are warm.
WARMUP = (
    jobs.cli("quiver", "--basis", "3,0;0,3"),
    jobs.cli("group-info", "--basis", "3,0;0,3", "--kind", "D"),
    jobs.cli("classify", "--basis", "3,0;0,3", "--kind", "C"),
    jobs.cli("classify", "--basis", "6,4;0,2", "--kind", "D", "--format", "dot"),
    jobs.cli("unskew-roundtrip", "--basis", "3,0;0,3", "--format", "text"),
    jobs.cli("oracle-compare", "--max-det", "4"),
    jobs.Job(("admissible_bases", "12", "C"), library=True),
)


class SetupClock:
    """Seconds a fresh interpreter takes to import mckay.cli and build its
    parser (``main(['--help'])``), one subprocess at a time.

    The child times itself from its first statement, so the interpreter's own
    start, which the program cannot change and which varies with exec and
    file-system noise, is left out.  ``sample_if_due`` spreads the samples
    over the run, so one burst of machine noise does not set the median.
    """

    CODE = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import io, sys\n"
        "sys.path.insert(0, {src!r})\n"
        "import mckay.cli\n"
        "sys.stdout = io.StringIO()\n"
        "mckay.cli.main(['--help'])\n"
        "print(time.perf_counter() - t0, file=sys.__stdout__)\n"
    )

    def __init__(self, seconds: float) -> None:
        self.cmd = [sys.executable, "-c", self.CODE.format(src=str(SRC))]
        self.every = seconds / SETUP_SAMPLES
        self.times: list[float] = []
        self._start_once()  # the first start compiles bytecode; not counted
        self.t0 = time.perf_counter()

    def _start_once(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, check=True, timeout=60)
        return float(done.stdout)

    def sample_if_due(self) -> None:
        taken = len(self.times)
        if taken < SETUP_SAMPLES and taken * self.every <= time.perf_counter() - self.t0:
            self.times.append(self._start_once())

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(self._start_once())
        return statistics.median(self.times)


class Client:
    """Runs jobs one at a time and checks each one."""

    def __init__(self) -> None:
        import mckay.cli
        import mckay.lattice

        self.cli = mckay.cli
        self.lattice = mckay.lattice
        self.is_admissible = mckay.lattice.is_admissible
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        # checks call into mckay too; a traced pass pauses the tracer for them
        self.pause = contextlib.nullcontext

    def run(self, job: jobs.Job, record: bool = True) -> int:
        """Run one job and return its wall time in ns."""
        out, err = io.StringIO(), io.StringIO()
        result = code = raised = None
        t0 = time.perf_counter_ns()
        try:
            if job.library:
                # looked up on the module at call time, so a traced pass sees
                # the wrapper
                fn = getattr(self.lattice, job.args[0])
                result = fn(int(job.args[1]), job.args[2])
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(job.args))
        except Exception as e:  # the job failed; it is counted, not fatal
            raised = e
        elapsed = time.perf_counter_ns() - t0
        if record:
            with self.pause():
                self._judge(job, code, out.getvalue(), err.getvalue(), result, raised)
        return elapsed

    def _judge(self, job, code, out, err, result, raised) -> None:
        self.attempted += 1
        wrong = False
        if raised is not None:
            reason = f"{type(raised).__name__} escaped"
        elif job.library:
            reason = checks.check_bases(job, result, self.is_admissible)
            wrong = reason is not None
            out = repr([(b.a, b.b, b.c) for b in result])
        else:
            reason = checks.check(job, code, out, err)
            # a completed job with the expected exit code but a bad document,
            # or success where an error was due, is a wrong answer; any other
            # mismatch is a failed operation
            wrong = reason is not None and (code == job.expect or code == 0)
        digest = hashlib.sha256(f"{code}\0{out}".encode()).hexdigest()
        if self.digests.setdefault(job.args, digest) != digest and reason is None:
            reason, wrong = "repeated argv produced different bytes", True
        if reason is not None:
            self.failed += 1
            self.wrong += wrong
            self.reasons[f"{job.command}: {reason}"] += 1


def run_pass(client: Client, deck: list[jobs.Job], tracer=None, setup=None) -> list[int]:
    times = []
    for job in deck:
        if setup is not None:
            setup.sample_if_due()
        if tracer is not None:
            tracer.job += 1
        times.append(client.run(job))
    return times


def tail(times_ns: list[int]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value in ms, percentile); the largest sample if there are ten or fewer."""
    s = sorted(times_ns)
    n = len(s)
    if n <= 10:
        return s[-1] / 1e6, 100.0
    return s[n - 11] / 1e6, 100.0 * (n - 10) / n


def untraced(client, deck, seconds) -> tuple[dict, list[str]]:
    setup = SetupClock(seconds)
    per_pass: list[list[int]] = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        per_pass.append(run_pass(client, deck, setup=setup))
    passes = len(per_pass)
    times = [t for p in per_pass for t in p]
    busy_s = sum(times) / 1e9
    tail_ms, pct = tail(times)
    metrics = {
        # jobs that passed their checks per second of job wall time, every
        # pass counted; the first (cold) pass is printed beside it
        "jobs_per_s": ((client.attempted - client.failed) / busy_s, "jobs/s"),
        "job_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "setup_s": (setup.median(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beside = {
        "jobs_per_s": f"first (cold) pass {sum(per_pass[0]) / 1e9:.3f} s for {len(deck)} jobs",
        "job_tail_ms": f"p{pct:.1f} of {len(times)} samples",
        "setup_s": f"median of {len(setup.times)} starts, min {min(setup.times):.4f} s",
    }
    table = [(name, value, unit, beside.get(name, "")) for name, (value, unit) in metrics.items()]
    # failed_share is 0 on two workloads, so it is printed here and carried
    # exactly by the JSON line's attempted and failed counts
    table.append(("failed_share", client.failed / client.attempted, "ratio",
                  f"{client.failed} of {client.attempted} jobs"))
    note = f"{passes} passes x {len(deck)} jobs in {busy_s:.2f} s of job time"
    return metrics, table, note


def traced(client, deck, seconds, out_path) -> tuple[dict, list[str]]:
    tracer = tracing.Tracer()
    plain_ns = traced_ns = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain_ns += sum(run_pass(client, deck))
        tracer.install()
        client.pause = tracer.paused
        try:
            traced_ns += sum(run_pass(client, deck, tracer))
        finally:
            tracer.uninstall()
            client.pause = contextlib.nullcontext
        passes += 1
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)
    values = tracing.layer_metrics(tracer.spans, tracer.counts, traced_ns, passes)
    values["trace.overhead_share"] = traced_ns / plain_ns - 1
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    table = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    note = (
        f"{passes} untraced + {passes} traced passes x {len(deck)} jobs; per-layer "
        f"values are per pass; {len(tracer.spans)} spans in {out_path.relative_to(ROOT)}"
    )
    return metrics, table, note


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_yield", "_density")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mckay" / "cli.py").is_file():
        print(f"error: no mckay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deck = jobs.DECKS[args.workload](args.seed)
    client = Client()
    for job in WARMUP:
        client.run(job, record=False)
    if args.trace:
        out_path = ROOT / ".bench_out" / f"spans_{args.workload}_{args.seed}.json"
        metrics, table, note = traced(client, deck, args.seconds, out_path)
    else:
        metrics, table, note = untraced(client, deck, args.seconds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {note}")
    for name, value, unit, extra in table:
        print(f"  {name:<40} {value:>14.6g} {unit:<7} {extra}".rstrip())
    for reason, count in client.reasons.most_common():
        print(f"  failed x{count}: {reason}")
    result = {
        "correct": client.wrong == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
