"""One workload in one process: import, warm up, then timed passes.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/child.py --setup-only

The first statement imports ``entbench.cli``; the monotonic clock right after
it is the "ready" time that ``run.py`` turns into ``setup_s``.  The last line
of standard output is one JSON object for ``run.py``.

Every timed pass is bracketed by ``calibrate()``, a fixed kernel that does
not touch the package, so ``run.py`` can express times at a reference
machine speed (see ``run.py``).
"""

import time

import entbench.cli as cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_PASSES = 3
MAX_REPORTED_FAILURES = 10
_CAL_MATRIX = np.random.default_rng(0).standard_normal((120, 120))


def calibrate() -> float:
    """Wall time of a fixed LAPACK-and-interpreter kernel (about 15 ms)."""
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.qr(_CAL_MATRIX)
    total = 0
    for i in range(60000):
        total += i
    return time.perf_counter() - start


def blas_facts() -> dict:
    """BLAS name, version and the thread pool size numpy's OpenBLAS runs with."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_facts(seed: int) -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(workloads.ram_bytes() / 2**30, 2),
        "caches": caches,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_facts(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


class Runner:
    def __init__(self, workload, out_root: Path):
        self.workload = workload
        self.out_root = out_root
        self.tracer = None  # set for the traced half of a --trace 1 run
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.budget = workloads.batch_budget_bytes()

    def run_pass(self, index: int) -> tuple[float, int]:
        """Run every command once; returns (seconds in the program, work verified).

        Only ``entbench.cli.main`` is timed; the checks compare its outputs
        with oracle values that ``workloads.build`` evaluated beforehand.
        """
        total_s, items = 0.0, 0
        for i, cmd in enumerate(self.workload.commands):
            seconds, verified = self.run_command(index, i, cmd)
            total_s += seconds
            items += verified
        return total_s, items

    def run_command(self, pass_index: int, i: int, cmd) -> tuple[float, int]:
        """Run and check one command; returns (seconds in the program, work
        verified), the work being 0 if it failed."""
        self.attempted += 1
        label = f"{cmd.command} {cmd.case}"
        if cmd.batch_bytes > self.budget:
            self._fail(label, f"refused: batch array {cmd.batch_bytes / 1e6:.0f} MB "
                              f"over the {self.budget / 1e6:.0f} MB budget")
            return 0.0, 0
        out = self.out_root / f"c{i:02d}"
        argv = [cmd.command, "--out", str(out), *cmd.args]
        start = time.perf_counter()
        try:
            try:
                rc = self.call_cli(pass_index, i, cmd, argv)
            finally:
                seconds = time.perf_counter() - start
            if rc != 0:
                raise workloads.CheckFailed(f"exit code {rc}")
            if isinstance(cmd.want, workloads.OracleFailed):
                raise cmd.want
            return seconds, cmd.check(out, cmd.want)
        except (Exception, SystemExit) as exc:  # a failing command is counted; the run goes on
            self._fail(label, f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, (workloads.CheckFailed, SystemExit)):
                traceback.print_exc(limit=3, file=sys.stderr)
            return seconds, 0

    def call_cli(self, pass_index: int, i: int, cmd, argv: list[str]) -> int:
        """``entbench.cli.main``, inside a ``cli.<command>`` span when tracing."""
        tr = self.tracer
        if tr is not None:
            span = "cli." + cmd.command.replace("-", "_")
            tr.command_id = f"p{pass_index}.c{i}"
            tr.begin(span)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        finally:
            if tr is not None:
                tr.end(also=f"{span}.{cmd.case}")

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{label}: {why}")
            print(f"perfbench: FAILED {label}: {why}", file=sys.stderr)


def timed_passes(runner: Runner, seconds: float, first_index: int) -> list[dict]:
    """Passes until ``seconds`` have elapsed (at least MIN_TIMED_PASSES)."""
    passes = []
    tracer = runner.tracer
    start = time.monotonic()
    index = first_index
    while len(passes) < MIN_TIMED_PASSES or time.monotonic() - start < seconds:
        spans_before = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.reset_stats()
        before = calibrate()
        program_s, items = runner.run_pass(index)
        record = {"pass_s": program_s, "items": items, "cal_s": 0.5 * (before + calibrate())}
        if tracer:
            record["layers"] = tracer.snapshot()
            record["layers"]["trace.spans"] = len(tracer.spans) - spans_before
        passes.append(record)
        index += 1
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args()
    calibrate()  # the first call pays LAPACK's first-use cost
    cal_at_ready = calibrate()
    if args.setup_only:
        print(json.dumps({"ready": READY, "cal_s": cal_at_ready}))
        return 0

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed)
    runner = Runner(workload, out_root)
    warm_s, _ = runner.run_pass(0)  # fills lru caches and starts the BLAS pool

    result = {"ready": READY, "cal_s": cal_at_ready, "warmup_s": warm_s,
              "machine": machine_facts(args.seed), "unit": workload.unit,
              "throughput_name": workload.throughput_name}
    if args.trace:
        # untraced and traced halves: their difference is the tracing overhead
        result["passes"] = timed_passes(runner, args.seconds / 2, 1)
        tracer = tracing.Tracer(workloads.twirl_chunk())
        runner.tracer = tracer
        tracer.install()
        try:
            result["traced_passes"] = timed_passes(runner, args.seconds / 2, 1 + len(result["passes"]))
        finally:
            tracer.uninstall()
        tracer.write_spans(out_root / "spans.jsonl")
        result["layers"] = tracing.layer_metrics([p.pop("layers") for p in result["traced_passes"]])
    else:
        result["passes"] = timed_passes(runner, args.seconds, 1)

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
