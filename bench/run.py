"""ccsched benchmark: time-to-solution of the CLI workloads, in one process.

Usage, from the repository root:

    python3 bench/run.py --workload {construct,oracle,sweep} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Every pass imports the package anew and regenerates its
inputs from the seed (set-up), then runs the workload's CLI invocations
in-process through ``ccsched.cli.main`` and checks every output.  Passes repeat while one more is expected to end within
``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported: the median pass time
(``wall_s``), set-up time (``setup_s``), peak resident memory
(``peak_rss_mb``) and the share of invocations that passed
(``success_ratio``).  Times are corrected for host speed (``speed.py``).
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are reported (medians over passes), plus the
traced-over-untraced pass time.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Provenance, per-pass samples and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS; that module imports the package, which
# may load only after the BLAS thread caps are set
WORKLOAD_NAMES = ("construct", "oracle", "sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Cap every BLAS thread count at the usable cores (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def use_source_package() -> None:
    """Make ``src/`` the first place ``ccsched`` is imported from."""
    if not (SRC / "ccsched" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ccsched package under {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_import() -> None:
    """Import ``ccsched`` anew, as a new process would (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "ccsched" or n.startswith("ccsched.")]:
        del sys.modules[name]
    importlib.import_module("ccsched.cli")


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs passes of one workload and keeps the operation counts."""

    def __init__(self, workload, seed: int, workdir: Path, sampler, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, traced: bool) -> dict:
        """Set up (import the package, generate the inputs), then time the
        invocations."""
        passdir = Path(tempfile.mkdtemp(dir=self.workdir))
        gc.collect()  # start every pass from the same heap state
        pass_start = time.perf_counter()
        _, import_s = self.sampler.measure(fresh_import)
        ops, generate_s = self.sampler.measure(self.workload, self.seed, passdir)
        if traced:
            self.tracer.install()
            first_span = self.tracer.begin_pass()
        wall = 0.0
        try:
            for op in ops:
                stdout = io.StringIO()
                if traced:
                    self.tracer.op = self.attempted
                    self.tracer.recording = True
                code, seconds = self.sampler.measure(self.invoke, op.argv, stdout)
                if traced:
                    self.tracer.recording = False
                wall += seconds
                self.attempted += 1
                problem = f"exit code {code}" if code != 0 else self.check(op, stdout.getvalue())
                if problem is not None:
                    self.failed += 1
                    self.problems.append(f"{op.argv[0]}: {problem}")
        finally:
            if traced:
                self.tracer.uninstall()
        shutil.rmtree(passdir)
        scale = self.sampler.scale()
        sample = {
            "traced": traced,
            "ops": len(ops),
            "import_raw_s": import_s,
            "generate_raw_s": generate_s,
            "wall_raw_s": wall,
            "speed_scale": scale,
            "setup_s": (import_s + generate_s) * scale,
            "wall_s": wall * scale,
            "elapsed_s": time.perf_counter() - pass_start,
        }
        if traced:
            sample["layers"] = self.tracer.pass_metrics(first_span, scale)
        return sample

    @staticmethod
    def invoke(argv: list[str], stdout: io.StringIO):
        """One in-process CLI invocation; its exit code, or the traceback."""
        cli = sys.modules["ccsched.cli"]
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
        except Exception:
            return "exception: " + traceback.format_exc(limit=-3)

    @staticmethod
    def check(op, stdout: str) -> str | None:
        """The op's check; a check that raises counts as a failed output."""
        try:
            return op.check(stdout)
        except Exception:
            return "check raised: " + traceback.format_exc(limit=-2)


def measure_passes(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Passes while one more is expected to end within ``seconds``; traced
    runs alternate an untraced and a traced pass and end with at least one
    of each."""
    samples = []
    start = time.perf_counter()

    def another() -> bool:
        if len(samples) < (2 if trace else 1):
            return True
        typical = statistics.median(s["elapsed_s"] for s in samples)
        fits = time.perf_counter() - start + typical <= seconds
        return fits or (trace and len(samples) % 2 == 1)

    while another():
        samples.append(runner.run_pass(traced=trace and len(samples) % 2 == 1))
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_blas_threads()
    use_source_package()
    fresh_import()
    if Path(sys.modules["ccsched"].__file__).resolve().parent != SRC / "ccsched":
        raise SystemExit(f"bench: imported ccsched from {sys.modules['ccsched'].__file__}")
    # both import numpy or the package: only after the caps and the path are set
    import workloads
    from speed import SpeedSampler

    sampler = SpeedSampler()
    tracer = tracing.Tracer(sampler.clock) if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        runner = Runner(
            workloads.WORKLOADS[args.workload], args.seed, Path(workdir), sampler, tracer
        )
        samples = measure_passes(runner, args.seconds, bool(args.trace))

    if args.trace:
        untraced = [s for s in samples if not s["traced"]]
        traced = [s for s in samples if s["traced"]]
        units = tracing.layer_metric_units()
        metrics = {
            name: metric(statistics.median(s["layers"][name] for s in traced), unit)
            for name, unit in units.items()
            if name != "trace_overhead_ratio"
        }
        overhead = statistics.median(s["wall_s"] for s in traced) / statistics.median(
            s["wall_s"] for s in untraced
        )
        metrics["trace_overhead_ratio"] = metric(overhead, "ratio")
        spans = tracer.write_spans(OUT / f"{args.workload}-spans.jsonl")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": metric(statistics.median(s["wall_s"] for s in samples), "s"),
            "setup_s": metric(statistics.median(s["setup_s"] for s in samples), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "success_ratio": metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        }
        spans = 0
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(args),
        "passes": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "spans_written": spans,
        "problems": runner.problems,
        "result": result,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    for problem in runner.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
