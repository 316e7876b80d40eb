"""qlab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload cli_files --seed 1 --seconds 30 --trace 0

Run from the root of a qlab checkout; qlab is imported from its `src/`.
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run. The
lines before it name every metric with its unit, the environment, the
fixtures and a sha256 digest of every byte the passes produced. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

END_TO_END = {
    "setup_s": "s",
    "pass_p50_ms": "ms",
    "pass_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cli_cold_ms": "ms",
}
SUBCOMMANDS = ("validate", "potentia", "remove-screen", "change-basis", "product-test",
               "sample", "render", "schmidt", "separability")
PER_LAYER = {
    "cli.self_ms": "ms", "cli.import_ms": "ms",
    **{f"cli.{c}.ms": "ms" for c in SUBCOMMANDS},
    "fileio.parse_arrangement.ms": "ms", "fileio.parse_arrangement.calls": "count",
    "fileio.serialize_arrangement.ms": "ms", "fileio.serialize_arrangement.calls": "count",
    "fileio.parse_state.ms": "ms", "fileio.bytes_read": "bytes", "fileio.bytes_written": "bytes",
    "fileio.records_read": "count", "fileio.records_written": "count",
    "screens.flat_index.calls": "count", "screens.multi_index.calls": "count", "screens.check_index.calls": "count",
    "tensor.DenseOperatorTensor.calls": "count", "tensor.partial_trace.ms": "ms", "tensor.tensor_product.ms": "ms",
    "arrangement.validate_isa.calls": "count", "arrangement.validate_isa.ms": "ms",
    "arrangement.validate_per_op": "ratio", "arrangement.build_from_state_vector.ms": "ms",
    "arrangement.build_from_mixture.ms": "ms", "arrangement.sample_outcomes.ms": "ms",
    "arrangement.purity_operational.ms": "ms",
    "transforms.BasisTransformation.ms": "ms", "transforms.screen_permutation.ms": "ms",
    "transforms.change_basis.ms": "ms", "transforms.remove_screen.ms": "ms",
    "transforms.extend_arrangement.ms": "ms", "transforms.verify_basis_invariance.ms": "ms",
    "transforms.verify_factorization_invariance.ms": "ms",
    "entanglement.is_product_across.ms": "ms", "entanglement.schmidt_decompose.calls": "count",
    "entanglement.schmidt_rank_profile.ms": "ms", "entanglement.is_fully_separable_pure.ms": "ms",
    "rand.random_arrangement.ms": "ms", "rand.random_unitary.calls": "count", "rand.random_unitary.ms": "ms",
    "viz.render_arrangement_svg.ms": "ms", "viz.depicted_powers.calls": "count", "viz.svg_bytes": "bytes",
    "kernel.eigvalsh.calls": "count", "kernel.eigvalsh.ms": "ms", "kernel.eigh.calls": "count",
    "kernel.svd.calls": "count", "kernel.svd.ms": "ms", "kernel.qr.calls": "count", "kernel.qr.ms": "ms",
    "kernel.gflop_computed": "GFLOP", "kernel.bytes_computed": "bytes", "kernel.share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("cli_files", "linalg_large", "many_small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def limit_blas_threads() -> str:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap)) if current.isdigit() and int(current) > 0 else str(cap)
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment(blas_threads: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(), "cpu": cpu, "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads, "numpy": np.__version__, "python": sys.version.split()[0], "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten passes beyond it (the maximum below eleven passes)."""
    ordered = sorted(times)
    k = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered)


IMPORT_PROBE = "import time; t = time.perf_counter(); import qlab.cli; print((time.perf_counter() - t) * 1e3)"
COLD_ARGV = ["-m", "qlab", "validate", "--in", "tiny.ea"]
COLD_EVERY_S = 2.5


def fresh_interpreter(argv: list[str]) -> tuple[float, str]:
    """Wall time (ms) and stdout of one fresh interpreter running argv in the current directory."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    elapsed = (time.perf_counter() - t) * 1e3
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr[-500:]}")
    return elapsed, done.stdout


class ColdStarts:
    """`python -m qlab validate` start-ups sampled across the whole run, so their
    median sees the same drift in machine speed as the pass times do."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = time.perf_counter()

    def sample(self, pause: bool = True) -> None:
        if pause:
            time.sleep(0.2)  # BLAS threads spin for a while after a call; let them go idle
        self.times.append(fresh_interpreter(COLD_ARGV)[0])
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= COLD_EVERY_S


class Runner:
    """Runs passes of one workload and keeps the tallies every run reports."""

    def __init__(self, workload, idle) -> None:
        self.workload = workload
        self.idle = idle  # an inactive Recorder, for untraced passes
        self.attempted = 0
        self.failed = 0
        self.failures: set = set()
        self.digest = hashlib.sha256()

    def one(self, index: int, rec=None, switch=None) -> float:
        """Make inputs, run and time one pass, check it; return its wall time in ms.

        `rec` receives the pass's spans; `switch` (a Recorder or Counter) is
        active only while the pass runs, so inputs and checks are never traced.
        """
        w = self.workload
        inp = w.make_input(index)
        rec = rec or self.idle
        rec.pass_index = index
        if switch is not None:
            switch.active = True
        t = time.perf_counter()
        try:
            with rec.span("pass"):
                out = w.run(inp, rec)
            elapsed = (time.perf_counter() - t) * 1e3
            if switch is not None:
                switch.active = False
            self.record(w.check(inp, out), w.ops_per_pass)
        except Exception as e:  # a broken program must not stop the run: count the pass as failed
            traceback.print_exc()
            elapsed = (time.perf_counter() - t) * 1e3
            self.attempted += w.ops_per_pass
            self.failed += w.ops_per_pass
            self.failures.add(f"pass[{index}]:{type(e).__name__}")
        finally:
            if switch is not None:
                switch.active = False
        return elapsed

    def record(self, result, ops: int) -> None:
        self.attempted += ops
        self.failed += len(result.failed_ops)
        self.failures |= result.failed_ops
        self.digest.update(result.output)

    def loop(self, seconds: float, step) -> None:
        """Closed loop: step(1), step(2), ... until `seconds` are spent; stops
        early rather than start a step the last one says cannot end in time."""
        start = time.perf_counter()
        i = 1
        while True:
            t = time.perf_counter()
            step(i)
            i += 1
            now = time.perf_counter()
            if now - start + (now - t) > seconds:
                return


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qlab", "__init__.py")):
        print(f"error: no qlab sources under {src}; run from the root of a qlab checkout", file=sys.stderr)
        return 2
    blas_threads = limit_blas_threads()
    sys.path.insert(0, src)
    import qlab

    if not os.path.abspath(qlab.__file__).startswith(src + os.sep):
        print(f"error: qlab imported from {qlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import resource
    import shutil
    import tempfile

    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        report = run(args, workloads, blas_threads)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return emit(args, report)


def run(args, workloads, blas_threads: str) -> dict:
    import tracing

    w = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(w, tracing.Recorder())
    workloads.tiny_fixture(args.seed)  # read by the cold starts below
    fresh_interpreter(["-c", IMPORT_PROBE])  # unmeasured: fills the page cache and writes bytecode
    import_ms = statistics.median(float(fresh_interpreter(["-c", IMPORT_PROBE])[1]) for _ in range(3))
    cold = ColdStarts()
    if not args.trace:
        for _ in range(4):
            cold.sample(pause=False)  # no BLAS call has run in this process yet
    # Set-up: the import above, fixture generation three times (median), one warm-up pass.
    gen = []
    for _ in range(3):
        t = time.perf_counter()
        tiny = workloads.tiny_fixture(args.seed)
        first = w.make_input(0)
        gen.append(time.perf_counter() - t)
    warmup_ms = runner.one(0)
    warmup_digest = runner.digest.hexdigest()
    report = {
        "env": environment(blas_threads),
        "fixtures": w.fixture_record(first) + [tiny],
        "setup_s": import_ms / 1e3 + statistics.median(gen) + warmup_ms / 1e3,
        "setup_parts_s": {"import": import_ms / 1e3, "fixtures_median_of_3": statistics.median(gen), "warmup_pass": warmup_ms / 1e3},
        "warmup_sha256": warmup_digest,
    }
    if args.trace:
        # Untraced and traced passes alternate, so drift in machine speed
        # reaches both sides of trace.overhead_ratio alike.
        rec = tracing.Recorder()
        untraced, traced = [], []

        def pair(i: int) -> None:
            untraced.append(runner.one(2 * i - 1))
            with tracing.installed(rec.wrapper, hot=False):
                traced.append(runner.one(2 * i, rec, rec))

        runner.loop(args.seconds, pair)
        counter = tracing.Counter()
        with tracing.installed(counter.wrapper, hot=True):
            runner.one(1, switch=counter)
        report["layers"] = layer_metrics(rec, counter.counts, w.ops_per_pass, untraced, traced, import_ms)
        report["passes"] = {"untraced": len(untraced), "traced": len(traced), "count_only": 1}
        spans_path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "pass"], "spans": rec.spans}, fh)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        times = []

        def step(i: int) -> None:
            times.append(runner.one(i))
            if cold.due():
                cold.sample()

        runner.loop(args.seconds, step)
        value, pct = tail(times)
        report.update({
            "pass_p50_ms": statistics.median(times),
            "pass_tail_ms": value,
            "tail_percentile": pct,
            "passes": len(times),
            "ops_per_s": w.ops_per_pass * len(times) / (sum(times) / 1e3),
            "cli_cold_ms": statistics.median(cold.times),
            "cli_cold_samples": len(cold.times),
        })
    if hasattr(w, "finish"):
        runner.record(w.finish(), 1)
    report.update({"attempted": runner.attempted, "failed": runner.failed, "failures": sorted(runner.failures),
                   "run_sha256": runner.digest.hexdigest()})
    return report


def layer_metrics(rec, counts, ops_per_pass: int, untraced: list[float], traced: list[float], import_ms: float) -> dict:
    """Per-pass values: self-time means over the traced passes, counts from the count-only pass."""
    own = rec.self_ns()
    n = len(traced)
    self_ms: dict[str, float] = {}
    command = [None] * len(rec.spans)
    for i, (name, _, _, parent, _) in enumerate(rec.spans):
        command[i] = name[4:] if name.startswith("cli.") and name[4:] in SUBCOMMANDS else command[parent] if parent >= 0 else None
        self_ms[name] = self_ms.get(name, 0.0) + own[i] / 1e6 / n
        if name.startswith("cli.") and command[i] is not None:
            key = f"cli.{command[i]}.ms"
            self_ms[key] = self_ms.get(key, 0.0) + own[i] / 1e6 / n
    pass_ms = sum(end - start for name, start, end, _, _ in rec.spans if name == "pass") / 1e6 / n
    kernel_ms = sum(v for k, v in self_ms.items() if k.startswith("kernel."))
    out = {}
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            out[metric] = counts.get(metric, 0)
        elif metric.startswith("cli.") and metric.endswith(".ms"):
            out[metric] = self_ms.get(metric, 0.0)
        elif metric.endswith(".ms"):
            out[metric] = self_ms.get(metric[:-3], 0.0)
        elif metric.startswith(("fileio.", "viz.")) or metric == "kernel.bytes_computed":
            out[metric] = counts.get(metric, 0)
    out["cli.self_ms"] = sum(own[i] for i, s in enumerate(rec.spans) if s[0].startswith("cli.")) / 1e6 / n
    out["cli.import_ms"] = import_ms
    out["arrangement.validate_per_op"] = counts.get("arrangement.validate_isa.calls", 0) / ops_per_pass
    out["kernel.gflop_computed"] = counts.get("kernel.flop_computed", 0) / 1e9
    out["kernel.share"] = kernel_ms / pass_ms
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return out


def emit(args, report: dict) -> int:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v else f"{k}={v}" for k, v in report["env"].items()))
    for f in report["fixtures"]:
        print("fixture " + " ".join(f"{k}={v}" for k, v in f.items()))
    print("setup " + " ".join(f"{k}_s={v:.6g}" for k, v in report["setup_parts_s"].items()))
    if args.trace:
        specs = PER_LAYER
        metrics = report["layers"]
        print("passes " + " ".join(f"{k}={v}" for k, v in report["passes"].items()) + f" spans_file={report['spans_file']}")
    else:
        specs = END_TO_END
        metrics = report
        beyond = 10 if report["passes"] > 10 else 0
        print(f"passes={report['passes']} tail=p{report['tail_percentile']:.4g} ({beyond} passes beyond it)"
              f" cli_cold_samples={report['cli_cold_samples']}")
    fail_ratio = report["failed"] / report["attempted"]
    for name, unit in specs.items():
        print(f"metric {name}={metrics[name]:.10g} {unit}")
    print(f"metric fail_ratio={fail_ratio:.6g} ratio ({report['failed']} of {report['attempted']} operations)")
    if report["failures"]:
        print("failed " + " ".join(report["failures"]))
    print(f"sha256[warmup]={report['warmup_sha256']}")
    print(f"sha256[run]={report['run_sha256']}")
    result_path = os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), **report}, fh, indent=1, default=str)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in specs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
