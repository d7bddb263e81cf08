"""entbench benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in one child process
(``child.py``) that imports the package from ``src/`` and calls the public
``entbench.cli`` commands; all inputs come from ``--seed``.  With
``--trace 0`` the last line of output is the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it is the per-layer metrics, taken
from spans that ``tracing.py`` records around the library's public
functions.  Lines before it are a readable summary and the machine facts.

Times are reported at a reference machine speed.  On a small virtual machine
shared with other tenants, the speed of one core was measured to change in
steps of up to 1.75x that last 10 to 30 s, so wall-clock medians of whole runs
spread by 25 to 45% between runs.  Each timed pass and each import is
therefore followed or bracketed by ``child.calibrate()``, a fixed kernel that
does not use the package, and a time T measured beside a calibration time C
is reported as T * REF_CAL_S / C: the time T would take when the kernel runs
at its reference speed.  A change to the package moves T and leaves C alone.
The summary lines also print the raw wall-clock medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # stdlib only, so run.py starts without the package

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the run must end within 180 s
SETUP_PROBES = 4  # extra import-only spawns; setup_s is the median with the workload's own
OUT_DIR = ".perfbench_out"
# One process of load with a one-thread BLAS pool.  On a small machine shared
# with other tenants a two-thread pool runs at one-, one-and-a-half- or
# two-thread speed depending on the neighbours' load on the second core, which
# makes timings bimodal; one thread is never more than nproc and stays steady.
BLAS_THREADS = 1
# calibrate()'s time on the reference machine in its fast phase (2-vCPU
# Xeon VM, one BLAS thread); it only sets the scale of the reported times
REF_CAL_S = 0.0135


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run a child to completion; returns (spawn time, its last JSON line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left before the deadline")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[1:]} exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def at_ref_speed(seconds: float, cal_s: float) -> float:
    return seconds * REF_CAL_S / cal_s


def pass_medians(passes: list[dict]) -> tuple[float, float]:
    """(median pass time at reference speed, raw wall-clock median)."""
    return (statistics.median(at_ref_speed(p["pass_s"], p["cal_s"]) for p in passes),
            statistics.median(p["pass_s"] for p in passes))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "entbench" / "cli.py").is_file():
        return fail("src/entbench not found; run from the repository root")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    env = child_env(root)
    out = root / OUT_DIR / args.workload
    child = str(HERE / "child.py")
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_PROBES):
            t0, probe = spawn([child, "--setup-only"], env, deadline)
            raw_setups.append(probe["ready"] - t0)
            setups.append(at_ref_speed(raw_setups[-1], probe["cal_s"]))
        t0, res = spawn([child, "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--out", str(out)], env, deadline)
        raw_setups.append(res["ready"] - t0)
        setups.append(at_ref_speed(raw_setups[-1], res["cal_s"]))
    except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"workload {args.workload} did not complete: {exc}")

    passes = [at_ref_speed(p["pass_s"], p["cal_s"]) for p in res["passes"]]
    items = [p["items"] for p in res["passes"]]
    q1, pass_s, q3 = statistics.quantiles(passes, n=4)  # the child runs at least 3 passes
    raw_pass_s = pass_medians(res["passes"])[1]
    setup_s = statistics.median(setups)
    throughput = statistics.median(items) / pass_s
    attempted, failed = res["attempted"], res["failed"]
    machine = res["machine"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS {machine['blas']} {machine['blas_version']} with {machine['blas_threads']} threads")
    print(f"  pass_s              {pass_s:.6g} s   median of {len(passes)} passes at reference speed "
          f"(quartiles {q1:.4g}, {q3:.4g}; max {max(passes):.4g}); wall-clock median {raw_pass_s:.4g} s, "
          f"warm-up {res['warmup_s']:.4g} s excluded")
    print(f"  {res['throughput_name']:<19} {throughput:.6g} 1/s "
          f"({statistics.median(items):.0f} {res['unit']} per pass; items_per_s in the JSON line)")
    print(f"  peak_rss_mb         {res['peak_rss_mb']:.6g} MB")
    print(f"  setup_s             {setup_s:.6g} s   median of {len(setups)} spawns at reference speed "
          f"(wall clock {', '.join(f'{s:.3f}' for s in raw_setups)} s)")
    print(f"  failed_ratio        {failed / attempted:.6g}   ({failed} of {attempted} commands)")
    for why in res["failures"]:
        print(f"    failed: {why}")
    print("machine " + json.dumps(machine, sort_keys=True))

    if args.trace:
        layers = dict(res["layers"])
        traced = pass_medians(res["traced_passes"])[0]
        layers["trace.overhead_s"] = traced - pass_s
        print(f"  traced pass_s {traced:.6g} s at reference speed over {len(res['traced_passes'])} passes; "
              f"overhead {traced - pass_s:+.4g} s ({len(passes)} untraced passes); "
              f"spans in {OUT_DIR}/{args.workload}/spans.jsonl")
        wanted = spec["per_layer"]
        for m in wanted:
            if m["name"] not in layers and not tracing.known_metric(m["name"]):
                return fail(f"per-layer metric {m['name']!r} is not produced by the tracer")
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}
        for name, v in sorted(metrics.items()):
            tag = "  (computed)" if name in tracing.COMPUTED else ""
            print(f"    {name:<48} {v['value']:.6g} {v['unit']}{tag}")
    else:
        values = {"pass_s": pass_s, "items_per_s": throughput,
                  "peak_rss_mb": res["peak_rss_mb"], "setup_s": setup_s}
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            return fail(f"end-to-end metrics {missing} are not measured")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
