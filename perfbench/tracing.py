"""Spans around the library's public functions, installed from outside.

The library binds names with ``from .x import y``, so a function can be
looked up through several module namespaces (``twirl.haar_unitaries``,
``protocols.haar_unitaries``, ``quantum.haar_unitaries``).  ``Tracer.install``
rebinds every such name in every loaded ``entbench`` module to one wrapper;
``Tracer.uninstall`` puts the originals back.

A span has a name, start, end, parent and command id.  Spans stay in memory
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, layer metric name)
TARGETS = [
    ("twirl", "mc_twirl", "twirl.mc_twirl"),
    ("twirl", "GroupAction.sample_batch", "twirl.sample_batch"),
    ("twirl", "haar_unitaries", "twirl.haar_unitaries"),
    ("protocols", "run_global", "protocols.run_global"),
    ("protocols", "run_bell_pairs", "protocols.run_bell_pairs"),
    ("protocols", "run_one_way_single", "protocols.run_one_way_single"),
    ("protocols", "run_one_way_repeated", "protocols.run_one_way_repeated"),
    ("protocols", "asymptotic_sweep", "protocols.asymptotic_sweep"),
    ("classical", "binomial_ump_test", "classical.binomial_ump_test"),
    ("classical", "poisson_ump_test", "classical.poisson_ump_test"),
    ("classical", "beta_binomial", "classical.beta_binomial"),
    ("classical", "beta_poisson", "classical.beta_poisson"),
    # eigenvalue validation runs in the dataclasses' __post_init__
    ("states", "TestOperator.__post_init__", "states.TestOperator.validate"),
    ("states", "DensityMatrix.__post_init__", "states.DensityMatrix.validate"),
    ("states", "tensor", "states.tensor"),
    ("states", "permute_systems", "states.permute_systems"),
    ("states", "mixed_tensor_sum", "states.mixed_tensor_sum"),
    ("states", "partial_trace", "states.partial_trace"),
    ("quantum", "binomial_operator_test", "quantum.binomial_operator_test"),
    ("quantum", "level_adjust", "quantum.level_adjust"),
    ("quantum", "test_from_povm", "quantum.test_from_povm"),
    ("quantum", "pooled_covariant_test", "quantum.pooled_covariant_test"),
    ("quantum", "one_sample_covariant_test", "quantum.one_sample_covariant_test"),
    ("quantum", "two_sample_covariant_test", "quantum.two_sample_covariant_test"),
    ("qubit_pair", "beta_optimal_two_sample", "qubit_pair.beta_optimal_two_sample"),
    ("qubit_pair", "beta_sequential_two_sample", "qubit_pair.beta_sequential_two_sample"),
    ("qubit_pair", "optimal_two_sample_test", "qubit_pair.optimal_two_sample_test"),
    ("multisource", "three_source_covariant_test", "multisource.three_source_covariant_test"),
    ("multisource", "ghz_seed_operator", "multisource.ghz_seed_operator"),
    ("multisource", "beta_three_source", "multisource.beta_three_source"),
    ("multisource", "beta_two_source", "multisource.beta_two_source"),
]

SEARCHES = ("classical.binomial_ump_test", "classical.poisson_ump_test")
CLI_SPANS = ("cli.exact", "cli.simulate", "cli.twirl_verify", "cli.sweep", "cli.classical")
COUNTS = ("twirl.haar_unitaries.matrices", "twirl.sample_batch.unitaries", "protocols.rounds",
          "classical.cdf_evals", "classical.searches", "classical.cdf_evals_per_search",
          "trace.spans")
# derived from array shapes and argument values, not measured
COMPUTED = ("twirl.conj_gflop", "twirl.conj_gflop_per_s", "twirl.batch_mb_max")
OVERHEAD = ("trace.overhead_s",)


def twirl_batch_bytes(samples: int, dim: int, chunk: int) -> int:
    """Bytes of one (min(chunk, samples), dim, dim) complex batch array in mc_twirl.

    ``chunk`` is mc_twirl's batch size, read from the library by the caller.
    """
    return min(chunk, samples) * dim * dim * 16


def known_metric(name: str) -> bool:
    """Whether the tracer can produce ``name`` (it reads 0 where the layer never ran)."""
    if name in COUNTS + COMPUTED + OVERHEAD:
        return True
    stem, _, stat = name.rpartition(".")
    if stat not in ("s", "self_s", "calls"):
        return False
    if stem in {metric for _, _, metric in TARGETS} or stem in CLI_SPANS:
        return True
    return stat == "s" and stem.rpartition(".")[0] in CLI_SPANS  # per-case CLI span


class _Stat:
    __slots__ = ("s", "self_s", "calls")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    def __init__(self, twirl_chunk: int):
        self.twirl_chunk = twirl_chunk  # mc_twirl's batch size
        self.spans: list[tuple] = []  # (name, start, end, parent index, command id)
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.command_id = ""
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.command_id))
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def end(self, also: str | None = None) -> None:
        name, start, child, index = self._stack.pop()
        stop = time.perf_counter()
        dur = stop - start
        self.spans[index] = (name, start, stop, self.spans[index][3], self.command_id)
        for key in (name, also) if also else (name,):
            st = self.stats[key]
            st.s += dur
            st.self_s += dur - child
            st.calls += 1
        if self._stack:
            self._stack[-1][2] += dur

    def in_search(self) -> bool:
        return any(frame[0] in SEARCHES for frame in self._stack)

    # -- rebinding ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(name, args, kwargs)
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return wrapper

    def _count(self, name: str, args, kwargs) -> None:
        """Exact work counts, taken from the arguments at the layer boundary."""
        c = self.counts
        if name == "twirl.haar_unitaries":
            c["twirl.haar_unitaries.matrices"] += args[1] if len(args) > 1 else kwargs["count"]
        elif name == "twirl.sample_batch":
            c["twirl.sample_batch.unitaries"] += args[1] if len(args) > 1 else kwargs["count"]
        elif name == "twirl.mc_twirl":
            action = args[1] if len(args) > 1 else kwargs["action"]
            samples = args[2] if len(args) > 2 else kwargs["samples"]
            dim = action.dim
            # f @ T @ f^dag: two complex dim^3 products, 8 real flops per
            # complex multiply-add
            c["twirl.conj_gflop"] += samples * 16.0 * dim**3 / 1e9
            batch_mb = twirl_batch_bytes(samples, dim, self.twirl_chunk) / 1e6
            c["twirl.batch_mb_max"] = max(c["twirl.batch_mb_max"], batch_mb)
        elif name.startswith("protocols.run_"):
            config = args[0] if args else kwargs["config"]
            c["protocols.rounds"] += config.trials * config.n
        elif name in SEARCHES:
            c["classical.searches"] += 1

    def install(self) -> None:
        entbench_modules = [m for n, m in sys.modules.items() if n == "entbench" or n.startswith("entbench.")]
        for module_name, path, metric in TARGETS:
            home = sys.modules[f"entbench.{module_name}"]
            owner = home
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, metric)
            self._set(owner, attr, wrapper)
            if not outer:  # module-level function: rebind every import of it
                for mod in entbench_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not home:
                            self._set(mod, key, wrapper)
        classical = sys.modules["entbench.classical"]
        self._set(classical, "stats", _CountingStats(classical.stats, self))

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer stats and counts accumulated so far, flattened."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.calls"] = st.calls
        out.update(self.counts)
        return out

    def reset_stats(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, cmd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd}) + "\n")


def layer_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of every per-layer value, plus derived ratios."""
    keys = {k for snap in per_pass for k in snap}
    out = {k: statistics.median(snap.get(k, 0.0) for snap in per_pass) for k in keys}
    searches = out.get("classical.searches", 0.0)
    evals = out.get("classical.cdf_evals", 0.0)
    out["classical.cdf_evals_per_search"] = evals / searches if searches else 0.0
    self_s = out.get("twirl.mc_twirl.self_s", 0.0)
    gflop = out.get("twirl.conj_gflop", 0.0)
    out["twirl.conj_gflop_per_s"] = gflop / self_s if self_s else 0.0
    return out


class _CountingDist:
    """A scipy distribution whose cdf/sf calls inside a threshold search count."""

    def __init__(self, dist, tracer: Tracer):
        self._dist = dist
        self._tracer = tracer

    def cdf(self, *args, **kwargs):
        self._tally()
        return self._dist.cdf(*args, **kwargs)

    def sf(self, *args, **kwargs):
        self._tally()
        return self._dist.sf(*args, **kwargs)

    def _tally(self):
        if self._tracer.in_search():
            self._tracer.counts["classical.cdf_evals"] += 1

    def __getattr__(self, name):
        return getattr(self._dist, name)


class _CountingStats:
    """Stands in for ``scipy.stats`` inside ``entbench.classical``."""

    def __init__(self, stats, tracer: Tracer):
        self._stats = stats
        self.binom = _CountingDist(stats.binom, tracer)
        self.poisson = _CountingDist(stats.poisson, tracer)

    def __getattr__(self, name):
        return getattr(self._stats, name)
