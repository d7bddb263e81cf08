"""Command-line front end: seeded reproducible runs with flat-file outputs.

    entbench <exact|simulate|twirl-verify|sweep|classical>
             [--config FILE] [--seed N] [--out DIR] [--trials N]
             [--samples N] [--from-manifest FILE] [key=value ...]

Configuration is a single JSON document; command-line flags and trailing
``key=value`` tokens override file values (dots descend into nested keys).
Every run writes a manifest with the fully resolved configuration; rerunning
``simulate`` from a manifest reproduces the result files byte for byte.
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, classical, memory, multisource, qubit_pair, quantum, states
from .protocols import ExperimentConfig, StateSpec, asymptotic_sweep, run_experiment
from .twirl import GroupAction, mc_twirl

EXACT_COLUMNS = ["formula", "d", "n", "epsilon", "alpha", "p", "p1", "p2", "p3", "value", "flag"]


def _qubit_formula(name: str):
    """The qubit-pair formula ``qubit_pair.<name>`` of a state; it refuses any
    d but 2 rather than write a d = 2 value under another d."""

    def closed_form(d: int, state):
        if d != 2:
            raise ValueError(f"qubit formulas are d = 2 only, got d = {d}")
        return getattr(qubit_pair, name)(state)

    return closed_form


# formula -> (closed form, grid keys it loops over, scalar keys it reads); the
# closed form is called as f(d, *scalars, *grid point).  Functions are looked up
# through their modules at call time, so a rebound module attribute is seen.
EXACT_FORMULAS = {
    "classical-one": (lambda d, eps, alpha, p: classical.beta_one_sample(eps, alpha, p),
                      ("p",), ("epsilon", "alpha")),
    "one-way": (lambda *a: quantum.beta_one_way(*a), ("p",), ("epsilon", "alpha")),
    "pair-level0": (lambda *a: quantum.two_sample_trace(*a), ("p",), ()),
    "pair-repeated": (lambda *a: quantum.beta_pair_repeated(*a), ("p",), ("n", "epsilon", "alpha")),
    "pooled": (lambda *a: quantum.pooled_trace(*a), ("p",), ("n",)),
    "qubit-optimal": (_qubit_formula("beta_optimal_two_sample"), (), ("state",)),
    "qubit-sequential": (_qubit_formula("beta_sequential_two_sample"), (), ("state",)),
    "two-source": (lambda *a: multisource.beta_two_source(*a), ("p1", "p2"), ()),
    "two-source-local": (lambda *a: multisource.beta_two_source_local(*a), ("p1", "p2"), ()),
    "three-source": (lambda *a: multisource.beta_three_source(*a), ("p1", "p2", "p3"), ()),
}


def _qubit_seed(d: int) -> np.ndarray:
    if d != 2:
        raise ValueError("qubit-weights target is d=2 only")
    return qubit_pair.optimal_seed_vector()


def _ghz_seed(d: int) -> np.ndarray:
    multisource.check_triple_dimension(d)
    return multisource.ghz_ket(d).vec


# target -> (Alice's vector u on k samples, action kind, reference operator);
# the twirled seed is d^k |u (x) conj(u)><u (x) conj(u)|, pair-major.  The
# vector refuses a d its target does not support, before any dense array.
TWIRL_TARGETS = {
    "one-sample": (lambda d: np.eye(1, d, dtype=complex)[0], "local",
                   lambda d: quantum.one_sample_covariant_test(d)),
    "two-sample": (lambda d: states.max_entangled_ket(d).vec, "local_independent",
                   lambda d: quantum.two_sample_covariant_test(d)),
    "three-source": (_ghz_seed, "local_independent",
                     lambda d: multisource.three_source_covariant_test(d)),
    "qubit-weights": (_qubit_seed, "local_phase", lambda d: qubit_pair.optimal_two_sample_test()),
}

_CONCLUSIVE_STDERR = 5e-3
# reference-sized complex arrays alive in twirl-verify: peak RSS growth over
# the whole command (getrusage, one BLAS thread, two-sample, 64-sample
# batches) is 4.16, 4.48 and 5.03 at dims 2401, 1296 and 625 for one batch,
# and 5.13-5.26, 5.48 and 6.07-6.08 for 193 and 384 samples (three and five
# merges), the twirl's accumulators included
_REFERENCE_ARRAYS = 7


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return "" if x is None else str(x)


def _round12(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _set_nested(config: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    node[keys[-1]] = value


def _parse_override(token: str) -> tuple[str, object]:
    if "=" not in token:
        raise ValueError(f"override {token!r} is not key=value")
    key, raw = token.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _resolve_config(args, overrides) -> dict:
    config: dict = {}
    if args.config:
        config.update(json.loads(Path(args.config).read_text()))
    if getattr(args, "from_manifest", None):
        manifest = json.loads(Path(args.from_manifest).read_text())
        config = manifest["config"]
    for flag in ("seed", "trials", "samples"):
        val = getattr(args, flag, None)
        if val is not None:
            config[flag] = val
    if args.out is not None:
        config["out_dir"] = args.out
    for token in overrides:
        key, value = _parse_override(token)
        _set_nested(config, key, value)
    config.setdefault("out_dir", "entbench_out")
    config.setdefault("seed", 0)
    return config


def _integer(key: str, value) -> int:
    """An integer key's value; a fractional or non-numeric one is invalid
    input (exit 2), never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _state_spec(config: dict, key: str, d: int) -> StateSpec:
    node = config.get(key)
    if node is None:
        return StateSpec("max_entangled", d)
    if not isinstance(node, dict):
        raise ValueError(f"{key} must be a JSON object, got {node!r}")
    family = node.get("family", "isotropic")
    params = tuple(node.get("params", ()))
    if family == "random":  # the generator's seed, never truncated
        params = tuple(_integer(f"{key}.params", p) for p in params)
    return StateSpec(family=family, d=_integer(f"{key}.d", node.get("d", d)), params=params)


def _manifest(command: str, config: dict, outputs: list[str], started: str,
              notes: list[str]) -> dict:
    return {
        "tool": "entbench",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": config.get("seed", 0),
        "started_at": started,
        "finished_at": _now(),
        "outputs": outputs,
        "notes": notes,
    }


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _as_list(value) -> list:
    if value is None:
        return [None]
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


# ---------------------------------------------------------------------------
# commands


def _exact_arg(config: dict, formula: str, key: str):
    """A key the formula reads, checked before any row: its absence is invalid
    input (exit 2), except ``state``, which defaults to the maximally entangled
    qubit pair."""
    if key == "state":
        return _state_spec(config, "state", 2).build()
    if config.get(key) is None:
        raise ValueError(f"formula {formula!r} needs {key}=...")
    return _integer(key, config[key]) if key == "n" else config[key]


def cmd_exact(config: dict, out_dir: Path) -> tuple[int, list[str]]:
    formula = config.get("formula")
    if formula not in EXACT_FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; choose from {tuple(EXACT_FORMULAS)}")
    closed_form, grid, reads = EXACT_FORMULAS[formula]
    d = _integer("d", config.get("d", 2))
    if d < 2:
        raise ValueError(f"exact needs d >= 2, got {d}")
    scalars = {key: _exact_arg(config, formula, key) for key in reads}
    axes = [_as_list(_exact_arg(config, formula, key)) for key in grid]
    # a formula of a state reports that state's defect in the p column
    defect = {"p": states.fidelity_defect(scalars["state"])} if "state" in scalars else {}
    rows = []
    for point in itertools.product(*axes):
        value = closed_form(d, *scalars.values(), *(float(x) for x in point))
        flag = ""
        if isinstance(value, multisource.ConditionedValue):
            value, flag = value.value, "ok" if value.condition_holds else "outside-validity"
        cols = {**defect, **dict(zip(grid, point))}
        rows.append([formula, d, *(config.get(k) if k in reads else None
                                   for k in ("n", "epsilon", "alpha")),
                     *(cols.get(k) for k in ("p", "p1", "p2", "p3")), value, flag])
    _write_csv(out_dir / "exact.csv", EXACT_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {out_dir / 'exact.csv'}")
    return 0, ["exact.csv"]


def cmd_simulate(config: dict, out_dir: Path) -> tuple[int, list[str]]:
    d = _integer("d", config.get("d", 2))
    spec = ExperimentConfig(
        protocol=config.get("protocol", "global_projective"),
        d=d,
        n=_integer("n", config.get("n", 1)),
        epsilon=float(config.get("epsilon", 0.0)),
        alpha=float(config.get("alpha", 0.05)),
        trials=_integer("trials", config.get("trials", 10000)),
        seed=_integer("seed", config.get("seed", 0)),
        state=_state_spec(config, "state", d),
        state2=_state_spec(config, "state2", d) if config.get("state2") is not None else None,
    )
    result = run_experiment(spec)
    payload = {
        "command": "simulate",
        "protocol": result.protocol,
        "trials": result.trials,
        "accepted": result.accepted,
        "rate": result.rate,
        "ci95": result.ci95,
        "exact": result.exact,
        "extra": result.extra,
        "config": {k: v for k, v in config.items() if k != "out_dir"},
    }
    _write_json(out_dir / "result.json", payload)
    _write_csv(
        out_dir / "trace.csv",
        ["count", "occurrences"],
        [[k, v] for k, v in sorted(result.counts.items())],
    )
    print(
        f"{result.protocol}: rate={result.rate:.6g} exact={result.exact:.6g} "
        f"ci95={result.ci95:.3g} ({out_dir / 'result.json'})"
    )
    return 0, ["result.json", "trace.csv"]


def _twirl_case(target: str, d: int):
    """Seed ket, group action, and closed-form target for each check.

    The seed d^k |v><v| goes to the twirl as the ket sqrt(d^k) v.  The dense
    reference is the one large array, so its size is checked first.
    """
    if target not in TWIRL_TARGETS:
        raise ValueError(f"unknown twirl target {target!r}; choose from {tuple(TWIRL_TARGETS)}")
    if d < 2:
        raise ValueError(f"twirl-verify needs d >= 2, got {d}")
    vector, kind, make_reference = TWIRL_TARGETS[target]
    u = vector(d)
    copies = 1
    while d**copies < len(u):  # doubled_ket checks that len(u) == d^copies
        copies += 1
    dim = d ** (2 * copies)
    memory.check_fits(f"target {target!r} at d={d}, with a {dim} x {dim} reference operator,",
                      "d", d, 2, lambda x: _REFERENCE_ARRAYS * 16 * x ** (4 * copies))
    ket = states.doubled_ket(u, d)
    seed = states.Ket(math.sqrt(d**copies) * ket.vec, ket.dims, ket.labels)
    return seed, GroupAction(kind, d, copies), make_reference(d).mat


def cmd_twirl_verify(config: dict, out_dir: Path) -> tuple[int, list[str]]:
    target = config.get("target")
    d = _integer("d", config.get("d", 2))
    samples = _integer("samples", config.get("samples", 100000))
    if samples < 2:  # the standard error of fewer samples is undefined
        raise ValueError(f"twirl-verify needs samples >= 2 for a standard error, got {samples}")
    seed, action, reference = _twirl_case(target, d)
    rng = np.random.default_rng(_integer("seed", config.get("seed", 0)))
    est = mc_twirl(seed, action, samples, rng)
    max_dev = est.deviation(reference)
    max_stderr = float(est.stderr.max())
    if max_stderr > _CONCLUSIVE_STDERR:
        status = "inconclusive"
    elif est.within(reference, nsigma=5.0):
        status = "pass"
    else:
        status = "fail"
    payload = {
        "command": "twirl-verify",
        "target": target,
        "d": d,
        "samples": samples,
        "max_abs_deviation": max_dev,
        "max_stderr": max_stderr,
        "criterion": "entrywise |mean - reference| <= 5 stderr",
        "status": status,
    }
    _write_json(out_dir / "twirl_report.json", payload)
    print(f"twirl-verify {target} d={d} N={samples}: {status} (dev={max_dev:.3g}, stderr={max_stderr:.3g})")
    return (1 if status == "fail" else 0), ["twirl_report.json"]


def cmd_sweep(config: dict, out_dir: Path) -> tuple[int, list[str]]:
    rows = asymptotic_sweep(
        delta=float(config.get("delta", 1.0)),
        t_alt=float(config.get("tprime", 3.0)),
        alpha=float(config.get("alpha", 0.05)),
        n_list=[_integer("n_list", n) for n in config.get("n_list", [100, 1000, 10000])],
        protocol=config.get("protocol", "bell_pairs"),
        d=_integer("d", config.get("d", 2)),
        trials=_integer("trials", config.get("trials", 0)),
        seed=_integer("seed", config.get("seed", 0)),
    )
    header = ["n", "epsilon", "exact", "empirical", "ci95", "poisson_limit", "gap", "boundary_accept"]
    _write_csv(out_dir / "sweep.csv", header, [[r[h] for h in header] for r in rows])
    print(f"wrote {len(rows)} rows to {out_dir / 'sweep.csv'}")
    return 0, ["sweep.csv"]


def cmd_classical(config: dict, out_dir: Path) -> tuple[int, list[str]]:
    alpha = float(config.get("alpha", 0.05))
    # (kind, n, boundary, test, key of the alternatives, largest alternative)
    families = []
    if config.get("n") is not None:
        n, eps = _integer("n", config["n"]), float(config.get("epsilon", 0.0))
        families.append(("binomial", n, eps, classical.binomial_ump_test(n, eps, alpha), "q", 1.0))
    if config.get("delta") is not None:
        delta = float(config["delta"])
        families.append(("poisson", None, delta, classical.poisson_ump_test(delta, alpha),
                         "tprime", math.inf))
    rows = []
    for kind, n, boundary, test, key, top in families:
        head = [kind, n, boundary, alpha, test.threshold, test.gamma]
        # without alternatives a family still writes its threshold row
        alternatives = _as_list(config.get(key, []))
        for x in alternatives:
            if not (math.isfinite(float(x)) and 0.0 <= float(x) <= top):
                raise ValueError(f"{key} must be a finite number in [0, {top:g}], got {x!r}")
        rows += [[*head, x, test.accepted_mass(float(x))] for x in alternatives] or [[*head, None, None]]
    header = ["kind", "n", "boundary", "alpha", "threshold", "gamma", "alternative", "beta"]
    _write_csv(out_dir / "classical.csv", header, rows)
    print(f"wrote {len(rows)} rows to {out_dir / 'classical.csv'}")
    return 0, ["classical.csv"]


COMMANDS = {
    "exact": cmd_exact,
    "simulate": cmd_simulate,
    "twirl-verify": cmd_twirl_verify,
    "sweep": cmd_sweep,
    "classical": cmd_classical,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared after it
    (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="entbench", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"entbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        if name == "simulate":
            p.add_argument("--from-manifest", dest="from_manifest", default=None)
        p.add_argument("overrides", nargs="*", help="key=value config overrides")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = _now()
    try:
        config = _resolve_config(args, args.overrides)
        config["command"] = args.command
        out_dir = Path(config["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        # validity warnings become manifest notes: distinct messages, first seen first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, outputs = COMMANDS[args.command](config, out_dir)
        notes = list(dict.fromkeys(str(w.message) for w in caught))
    except (
        ValueError, TypeError, OverflowError, KeyError, FileNotFoundError, json.JSONDecodeError,
        MemoryError,
    ) as exc:
        print(f"entbench: error: {exc}", file=sys.stderr)
        return 2
    manifest = _manifest(args.command, config, outputs, started, notes)
    _write_json(out_dir / "manifest.json", manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
