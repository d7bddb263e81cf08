"""The four benchmark workloads: CLI commands generated from a seed, with checks.

Each workload is a list of ``Command`` objects.  A command is one
``entbench.cli`` invocation plus a check that reads the files it wrote and
compares them against an oracle.  Oracles use the library's public
constructors (explicit operators and states), never the closed form under
test.  The inputs are fixed per seed, so ``build`` evaluates every oracle
once, before any pass and before tracing starts; a pass only compares
numbers, and the cost of the oracles is never timed or traced.  Every
structural size (dimension, sample count, trial count, grid shape) is fixed
per workload; the seed only picks the CLI seeds and the continuous
parameters, so the work done per pass is the same for every seed.

A check returns the units of work it verified: twirl samples, simulated
rounds (trials x copies) or closed-form values.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats

from entbench import classical, multisource, quantum, qubit_pair, states, twirl
from tracing import twirl_batch_bytes

# mc_twirl holds about five batch arrays at its peak; a case whose single
# batch array exceeds this share of RAM is refused before it runs.
BATCH_RAM_SHARE = 1.0 / 16.0
DEFAULT_TWIRL_CHUNK = 4096  # used only if the library stops exposing its batch size
TWIRL_DIM = {"one-sample": 1, "two-sample": 2, "three-source": 3, "qubit-weights": 2}
VALUE_TOL = 1e-9
NSIGMA = 5.0


class CheckFailed(Exception):
    """An output did not match its oracle."""


class OracleFailed(CheckFailed):
    """The oracle of a command could not be evaluated."""


@dataclass
class Command:
    """One CLI invocation and the check of its outputs."""

    command: str  # CLI subcommand
    args: list[str]  # arguments after ``<command> --out DIR``
    case: str  # label for per-case spans in the traced run
    # check(out, want) returns the units of work verified; want = oracle()
    check: Callable[[Path, Any], int]
    oracle: Callable[[], Any] = lambda: None
    batch_bytes: int = 0  # one twirl batch array, for the memory guard
    want: Any = None  # oracle(), evaluated once by ``build``


@dataclass
class Workload:
    name: str
    unit: str  # what one unit of work is
    throughput_name: str  # what the summary calls items_per_s on this workload
    commands: list[Command]


def ram_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def batch_budget_bytes() -> int:
    return int(ram_bytes() * BATCH_RAM_SHARE)


def twirl_chunk() -> int:
    """``mc_twirl``'s batch size, read from the library, where it is private."""
    chunk = getattr(twirl, "_CHUNK", None)
    if chunk is None:
        print(f"perfbench: entbench.twirl._CHUNK not found; assuming {DEFAULT_TWIRL_CHUNK}",
              file=sys.stderr)
        return DEFAULT_TWIRL_CHUNK
    return int(chunk)


# ---------------------------------------------------------------------------
# output readers and comparisons


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _csv(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: float, want: float, what: str, tol: float = VALUE_TOL) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, oracle {want!r} (tol {tol})")


def _trace(t, rho) -> float:
    """Tr(T rho) for Hermitian T and rho, in O(dim^2)."""
    a = t.mat if isinstance(t, states.Operator) else t
    b = rho.mat if isinstance(rho, states.Operator) else rho
    return float(np.real(np.sum(a * b.T)))


def _within_sigma(rate: float, exact: float, trials: int, what: str) -> None:
    sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / trials)
    if not abs(rate - exact) <= NSIGMA * sigma:
        raise CheckFailed(f"{what}: rate {rate} vs exact {exact}, sigma {sigma:.3g}")


def _floats(xs) -> str:
    return json.dumps([float(x) for x in xs])


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# twirl_small, twirl_large


def _twirl_command(target: str, d: int, samples: int, rng, conclusive: bool) -> Command:
    dim = (d * d) ** TWIRL_DIM[target]

    def check(out: Path, want) -> int:
        rep = _json(out, "twirl_report.json")
        if rep["samples"] != samples or rep["target"] != target:
            raise CheckFailed(f"twirl {target} d={d}: report is for another case")
        if conclusive:
            if rep["status"] != "pass":
                raise CheckFailed(f"twirl {target} d={d}: status {rep['status']}")
        else:
            if rep["status"] == "fail":
                raise CheckFailed(f"twirl {target} d={d}: status fail")
            if rep["max_abs_deviation"] > NSIGMA * rep["max_stderr"]:
                raise CheckFailed(
                    f"twirl {target} d={d}: deviation {rep['max_abs_deviation']} "
                    f"> {NSIGMA} x stderr {rep['max_stderr']}"
                )
        return samples

    return Command(
        command="twirl-verify",
        args=["--seed", _cli_seed(rng), "--samples", str(samples), f"target={target}", f"d={d}"],
        case=f"{target}_d{d}",
        check=check,
        batch_bytes=twirl_batch_bytes(samples, dim, twirl_chunk()),
    )


def twirl_small(rng) -> list[Command]:
    # sample counts put max_stderr near 3e-3, well under the 5e-3 needed
    # for a conclusive verdict
    return [
        _twirl_command("one-sample", 3, 40000, rng, conclusive=True),
        _twirl_command("two-sample", 2, 30000, rng, conclusive=True),
        _twirl_command("qubit-weights", 2, 30000, rng, conclusive=True),
    ]


def twirl_large(rng) -> list[Command]:
    return [
        _twirl_command("three-source", 2, 1024, rng, conclusive=False),
        _twirl_command("three-source", 3, 16, rng, conclusive=False),
    ]


# ---------------------------------------------------------------------------
# protocols


def _state_args(key: str, p: float) -> list[str]:
    return [f"{key}.family=isotropic", f"{key}.params=[{p!r}]"]


def _simulate(protocol: str, d: int, n: int, trials: int, rng, extra: list[str]) -> Command:
    def check(out: Path, want) -> int:
        res = _json(out, "result.json")
        if res["protocol"] != protocol or res["trials"] != trials:
            raise CheckFailed(f"simulate {protocol}: result is for another case")
        _within_sigma(res["rate"], res["exact"], trials, f"simulate {protocol}")
        return trials * n

    args = ["--seed", _cli_seed(rng), f"protocol={protocol}", f"d={d}", f"n={n}", f"trials={trials}"]
    return Command("simulate", args + extra, protocol, check)


def protocols_workload(rng) -> list[Command]:
    def level():
        return [f"epsilon={_u(rng, 0.02, 0.08)!r}", f"alpha={_u(rng, 0.05, 0.15)!r}"]

    cmds = [
        _simulate("one_way_single", 4, 1, 50000, rng, _state_args("state", _u(rng, 0.05, 0.3))),
        _simulate(
            "one_way_repeated", 3, 10, 10000, rng,
            level() + _state_args("state", _u(rng, 0.05, 0.15)),
        ),
        _simulate(
            "bell_pairs", 3, 20, 20000, rng,
            level() + _state_args("state", _u(rng, 0.02, 0.1)) + _state_args("state2", _u(rng, 0.02, 0.1)),
        ),
        _simulate(
            "global_projective", 2, 50, 10000, rng,
            level() + _state_args("state", _u(rng, 0.05, 0.15)),
        ),
    ]

    trials, n_list = 1000, [50, 200, 2000]  # the CLI simulates only n <= 1000
    simulated = [n for n in n_list if n <= 1000]

    def check_sweep(out: Path, want) -> int:
        rows = _csv(out, "sweep.csv")
        if [int(r["n"]) for r in rows] != n_list:
            raise CheckFailed("sweep: rows do not match n_list")
        for r in rows:
            if int(r["n"]) in simulated:
                _within_sigma(float(r["empirical"]), float(r["exact"]), trials, f"sweep n={r['n']}")
        return trials * sum(simulated)

    sweep_args = [
        "--seed", _cli_seed(rng), "protocol=one_way_repeated", "d=2",
        f"delta={_u(rng, 0.5, 1.5)!r}", f"tprime={_u(rng, 2.0, 4.0)!r}",
        f"alpha={_u(rng, 0.05, 0.15)!r}", f"trials={trials}", f"n_list={json.dumps(n_list)}",
    ]
    cmds.append(Command("sweep", sweep_args, "one_way_repeated", check_sweep))
    return cmds


# ---------------------------------------------------------------------------
# closed_forms


def _iso(d: int, p: float):
    return states.isotropic_state(d, p)


def _exact(formula: str, args: list[str], values: Callable[[], list[float]], case: str,
           extra: Callable[[], Any] | None = None,
           check_extra: Callable[[list[dict], Any], None] | None = None) -> Command:
    """``exact`` run whose value column must equal ``values()`` entrywise.

    ``extra()`` is more oracle data, compared by ``check_extra(rows, extra())``.
    """

    def oracle():
        return values(), (extra() if extra else None)

    def check(out: Path, want) -> int:
        rows = _csv(out, "exact.csv")
        vals, more = want
        if len(rows) != len(vals):
            raise CheckFailed(f"exact {formula}: {len(rows)} rows, expected {len(vals)}")
        for i, (r, w) in enumerate(zip(rows, vals)):
            _close(float(r["value"]), w, f"exact {formula} row {i}")
        if check_extra:
            check_extra(rows, more)
        return len(rows)

    return Command("exact", [f"formula={formula}", *args], case, check, oracle)


def _one_way(d: int, eps: float, alpha: float, ps: list[float]) -> Command:
    def values():
        t = quantum.level_adjust(quantum.one_sample_covariant_test(d), d * eps / (d + 1.0), alpha)
        return [_trace(t, _iso(d, p)) for p in ps]

    args = [f"d={d}", f"epsilon={eps!r}", f"alpha={alpha!r}", f"p={_floats(ps)}"]
    return _exact("one-way", args, values, f"one-way_d{d}")


def _pair_level0(d: int, ps: list[float]) -> Command:
    def values():
        t = quantum.two_sample_covariant_test(d)
        return [_trace(t, states.tensor(_iso(d, p), _iso(d, p))) for p in ps]

    return _exact("pair-level0", [f"d={d}", f"p={_floats(ps)}"], values, f"pair-level0_d{d}")


def _pair_repeated(d: int, n: int, eps: float, alpha: float, ps: list[float]) -> Command:
    """n rounds of the two-sample test: operator on 2n pairs, thresholded."""
    ops = []

    def op():
        if not ops:
            t2 = quantum.two_sample_covariant_test(d)
            ops.append(quantum.binomial_operator_test(t2, quantum.mapped_boundary(d, eps), alpha, n))
        return ops[0]

    def power(p):
        return states.tensor(*([_iso(d, p)] * (2 * n)))

    def values():
        return [_trace(op(), power(p)) for p in ps]

    def boundary():
        return _trace(op(), power(eps))

    def check_boundary(rows, at_boundary) -> None:
        # at defect eps on every copy the test accepts with probability 1 - alpha
        _close(at_boundary, 1.0 - alpha, f"pair-repeated d={d} n={n} boundary")

    args = [f"d={d}", f"n={n}", f"epsilon={eps!r}", f"alpha={alpha!r}", f"p={_floats(ps)}"]
    return _exact("pair-repeated", args, values, f"pair-repeated_d{d}_n{n}", boundary, check_boundary)


def _pooled(d: int, n: int, ps: list[float]) -> Command:
    def values():
        t = quantum.pooled_covariant_test(d, n)
        return [_trace(t, states.tensor(*([_iso(d, p)] * n))) for p in ps]

    return _exact("pooled", [f"d={d}", f"n={n}", f"p={_floats(ps)}"], values, f"pooled_d{d}_n{n}")


def _qubit(formula: str, family: str, params: list[float]) -> Command:
    def sigma():
        if family == "bell_diagonal":
            return qubit_pair.bell_diagonal_state(*params)
        return _iso(2, params[0])

    def values():
        s = sigma()
        if formula == "qubit-optimal":
            t = qubit_pair.optimal_two_sample_test()
        else:
            t = qubit_pair.sequential_two_sample_test()
        return [_trace(t, np.kron(s.mat, s.mat))]

    args = [f"state.family={family}", f"state.params={_floats(params)}"]
    return _exact(formula, args, values, f"{formula}_{family}")


def _two_source(formula: str, d: int, p1s: list[float], p2s: list[float]) -> Command:
    pairs = [(p1, p2) for p1 in p1s for p2 in p2s]

    def joint(p1, p2):
        return states.tensor(_iso(d, p1), _iso(d, p2))

    def values():
        if formula == "two-source":
            t = quantum.two_sample_covariant_test(d)
        else:
            t1 = quantum.one_sample_covariant_test(d)
            t = states.tensor(t1, t1)
        return [_trace(t, joint(p1, p2)) for p1, p2 in pairs]

    def marginal_defects():
        out = []
        for p1, p2 in pairs:
            rho = joint(p1, p2)
            out.append([states.fidelity_defect(states.partial_trace(rho, keep)) for keep in ((0, 1), (2, 3))])
        return out

    def check_marginals(rows, defects) -> None:
        # the defects written beside each value are those of the joint
        # state's two marginals
        for r, want in zip(rows, defects):
            for col, w in zip(("p1", "p2"), want):
                _close(float(r[col]), w, f"exact {formula} d={d} column {col}")

    args = [f"d={d}", f"p1={_floats(p1s)}", f"p2={_floats(p2s)}"]
    return _exact(formula, args, values, f"{formula}_d{d}", marginal_defects, check_marginals)


def _three_source(d: int, grid: list[list[float]]) -> Command:
    def values():
        t = multisource.three_source_covariant_test(d)
        out = []
        for p1 in grid[0]:
            for p2 in grid[1]:
                for p3 in grid[2]:
                    rho = np.kron(np.kron(_iso(d, p1).mat, _iso(d, p2).mat), _iso(d, p3).mat)
                    out.append(_trace(t, rho))
        return out

    args = [f"d={d}", f"p1={_floats(grid[0])}", f"p2={_floats(grid[1])}", f"p3={_floats(grid[2])}"]
    return _exact("three-source", args, values, f"three-source_d{d}")


def _classical_one(eps: float, alpha: float, qs: list[float]) -> Command:
    def values():
        # brute-force Neyman-Pearson on the two-point distribution
        out = []
        for q in qs:
            p1 = np.array([1.0 - q, q])
            lr = classical.neyman_pearson(np.array([1.0 - eps, eps]), p1, alpha)
            out.append(lr.beta(p1))
        return out

    args = [f"epsilon={eps!r}", f"alpha={alpha!r}", f"p={_floats(qs)}"]
    return _exact("classical-one", args, values, "classical-one")


def _classical(n: int, eps: float, alpha: float, qs: list[float], delta: float, tps: list[float]) -> Command:
    """Threshold tests at large n and rate: size exactly alpha, beta from the threshold."""

    def check(out: Path, want) -> int:
        rows = _csv(out, "classical.csv")
        binom = [r for r in rows if r["kind"] == "binomial"]
        pois = [r for r in rows if r["kind"] == "poisson"]
        if len(binom) != len(qs) or len(pois) != len(tps):
            raise CheckFailed("classical: wrong number of rows")
        for kind, rs, alts, null in (("binomial", binom, qs, eps), ("poisson", pois, tps, delta)):
            dist = (lambda x: stats.binom(n, x)) if kind == "binomial" else stats.poisson
            l, gamma = int(rs[0]["threshold"]), float(rs[0]["gamma"])

            def accept(x):
                f = dist(x)
                return (f.cdf(l - 1) if l > 0 else 0.0) + gamma * f.pmf(l)

            _close(accept(null), 1.0 - alpha, f"classical {kind} boundary acceptance")
            for r, x in zip(rs, alts):
                _close(float(r["beta"]), accept(x), f"classical {kind} beta at {x}")
        return len(rows)

    args = [f"n={n}", f"epsilon={eps!r}", f"alpha={alpha!r}", f"q={_floats(qs)}",
            f"delta={delta!r}", f"tprime={_floats(tps)}"]
    return Command("classical", args, f"n{n}", check)


def closed_forms(rng) -> list[Command]:
    def ps(k, lo=0.02, hi=0.45):
        return sorted(_u(rng, lo, hi) for _ in range(k))

    cmds = [
        # eps below and above alpha (after the d/(d+1) map): both branches
        _one_way(2, _u(rng, 0.01, 0.04), _u(rng, 0.1, 0.2), ps(4)),
        _one_way(3, _u(rng, 0.2, 0.3), _u(rng, 0.02, 0.05), ps(4)),
        _one_way(5, _u(rng, 0.05, 0.1), _u(rng, 0.05, 0.1), ps(4)),
        _pair_level0(2, ps(4)),
        _pair_level0(3, ps(4)),
        _pair_repeated(2, 1, _u(rng, 0.02, 0.1), _u(rng, 0.05, 0.2), ps(3)),
        _pair_repeated(2, 2, _u(rng, 0.02, 0.1), _u(rng, 0.05, 0.2), ps(3)),
        _pair_repeated(3, 1, _u(rng, 0.02, 0.1), _u(rng, 0.05, 0.2), ps(3)),
    ]
    cmds += [_pooled(d, n, ps(3 if d ** n < 27 else 2)) for d in (2, 3) for n in (1, 2, 3)]
    for formula in ("qubit-optimal", "qubit-sequential"):
        weights = [_u(rng, 0.0, 0.5 / 3.0) for _ in range(3)]  # defect <= 1/2
        cmds.append(_qubit(formula, "bell_diagonal", weights))
        cmds.append(_qubit(formula, "isotropic", [_u(rng, 0.02, 0.5)]))
    for d in (2, 3):
        cmds.append(_two_source("two-source", d, ps(3), ps(3)))
        cmds.append(_two_source("two-source-local", d, ps(3), ps(3)))
    cmds.append(_three_source(2, [ps(3, hi=0.5), ps(3, hi=0.5), ps(3, hi=0.5)]))
    cmds.append(_three_source(3, [ps(2, hi=0.6), ps(2, hi=0.6), ps(2, hi=0.6)]))
    cmds.append(_classical_one(_u(rng, 0.01, 0.05), _u(rng, 0.1, 0.2), ps(4, 0.1, 0.9)))
    cmds.append(_classical_one(_u(rng, 0.2, 0.3), _u(rng, 0.02, 0.1), ps(4, 0.35, 0.9)))
    # large n and a large Poisson rate: the Poisson threshold walk is linear in the rate
    eps, delta = _u(rng, 0.01, 0.05), 2000.0 + _u(rng, 0.0, 1.0)
    cmds.append(_classical(100000, eps, _u(rng, 0.05, 0.15), [eps * 1.05, eps * 1.1], delta, [delta * 1.1]))
    eps, delta = _u(rng, 0.05, 0.2), _u(rng, 1.0, 5.0)
    cmds.append(_classical(500, eps, _u(rng, 0.05, 0.15), [eps + 0.05, eps + 0.1], delta, [delta * 3.0]))
    return cmds


# name -> (unit of work, the name the throughput is reported under, command maker)
WORKLOADS = {
    "twirl_small": ("twirl samples", "twirl_samples_per_s", twirl_small),
    "twirl_large": ("twirl samples", "twirl_samples_per_s", twirl_large),
    "protocols": ("simulated rounds", "sim_rounds_per_s", protocols_workload),
    "closed_forms": ("verified values", "checks_per_s", closed_forms),
}


def build(name: str, seed: int) -> Workload:
    """The workload's commands for ``seed``, with every oracle evaluated."""
    unit, throughput_name, make = WORKLOADS[name]
    commands = make(np.random.default_rng(seed))
    for cmd in commands:
        try:
            cmd.want = cmd.oracle()
        except Exception as exc:  # the command is run and counted as failed
            cmd.want = OracleFailed(f"{type(exc).__name__}: {exc}")
    return Workload(name, unit, throughput_name, commands)
