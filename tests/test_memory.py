import tracemalloc

import numpy as np
import pytest

from entbench import memory, multisource, protocols, quantum, states
from entbench.cli import main
from entbench.twirl import GroupAction, TwirlEstimate, doubled_twirl, mc_twirl

# the one wording every refusal shares, at a faked RAM of 1000 bytes
SHARED = r"needs about \d+ bytes, more than the 1000 bytes of RAM; (the largest \w+ that fits is \d+|no \w+ fits)$"


# (need, least, value): a power law like an operator's d^(4k) entries, and
# the twirl's batch, which stops growing at the 4096-sample chunk
@pytest.mark.parametrize(
    "need, least, value",
    [(lambda x: 16 * x**4, 2, 40), (lambda s: min(4096, s) * 768 + 1536, 1, 5000)],
    ids=["power-law", "saturating"],
)
def test_names_the_largest_fit_of_a_brute_force_scan(monkeypatch, need, least, value):
    edges = {need(k) + e for k in (least, 7, 300, 4095, value) if least <= k <= value for e in (-1, 0)}
    for ram in sorted({0, 1000, 10**9} | edges | {int(r) for r in np.geomspace(10, 10**9, 40)}):
        monkeypatch.setattr(memory, "ram_bytes", lambda: ram)
        fits = max((x for x in range(least, value + 1) if need(x) <= ram), default=None)
        if fits == value:
            memory.check_fits("the case", "x", value, least, need)
            continue
        tail = "no x fits" if fits is None else f"the largest x that fits is {fits}"
        with pytest.raises(ValueError, match=f"^the case needs about {need(value)} bytes.*; {tail}$"):
            memory.check_fits("the case", "x", value, least, need)


def test_bisection_takes_logarithmically_many_calls(monkeypatch):
    monkeypatch.setattr(memory, "ram_bytes", lambda: 10**12)
    calls = []

    def need(trials):
        calls.append(trials)
        return 16 * trials

    value = 10**18
    with pytest.raises(ValueError, match=f"the largest trials that fits is {10**12 // 16}$"):
        memory.check_fits("the run", "trials", value, 1, need)
    assert len(calls) <= value.bit_length() + 3


# faking memory.ram_bytes alone makes every guarded entry refuse before it
# draws or builds: no entry keeps a RAM query of its own


@pytest.fixture
def tiny_ram(monkeypatch):
    monkeypatch.setattr(memory, "ram_bytes", lambda: 1000)


def test_twirl_refuses_before_any_draw(tiny_ram):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=SHARED):
        mc_twirl(states.max_entangled_ket(2), GroupAction("local", 2), 100, rng)
    assert rng.bit_generator.state == state


def test_doubled_twirl_refuses_before_any_draw(tiny_ram):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=SHARED):
        doubled_twirl(states.max_entangled_ket(2).vec, GroupAction("local_independent", 2, 2), 100,
                      rng)
    assert rng.bit_generator.state == state


def test_twirl_verify_refuses_before_any_build(tiny_ram, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("entbench.cli.doubled_twirl", lambda *a: pytest.fail("twirl ran"))
    monkeypatch.setattr(quantum, "one_sample_covariant_test", lambda d: pytest.fail("reference was built"))
    rc = main(["twirl-verify", "--out", str(tmp_path / "x"), "target=one-sample", "--samples", "10"])
    assert rc == 2
    assert "bytes of RAM;" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", protocols.PROTOCOLS)
def test_experiment_config_refuses_before_any_state(tiny_ram, monkeypatch, protocol):
    monkeypatch.setattr(protocols.StateSpec, "build", lambda self: pytest.fail("state was built"))
    with pytest.raises(ValueError, match=SHARED):
        protocols.ExperimentConfig(protocol, 2, 2, 0.0, 0.05, 10, 0, protocols.StateSpec("max_entangled", 2))


def test_operator_builders_refuse_before_building(monkeypatch):
    t = quantum.one_sample_covariant_test(2)
    monkeypatch.setattr(memory, "ram_bytes", lambda: 1000)
    monkeypatch.setattr(quantum, "mixed_tensor_sum", lambda *a: pytest.fail("operator was built"))
    monkeypatch.setattr(states, "sector_operator", lambda *a: pytest.fail("operator was built"))
    with pytest.raises(ValueError, match=SHARED):
        quantum.binomial_operator_test(t, 0.1, 0.05, 2)
    with pytest.raises(ValueError, match=SHARED):
        quantum.pooled_covariant_test(2, 2)


# the work guard: every refusal below happens before any draw or state, so
# these tests start no work


@pytest.mark.parametrize("value, each, most", [(10**9 + 1, 1, 10**9), (10**30, 1, 10**9),
                                               (2 * 10**6, 1000, 10**6), (1, 10**12, 0)])
def test_work_guard_names_the_largest_count_allowed(value, each, most):
    allowed = f"the largest trials allowed is {most}$" if most else "no trials is allowed$"
    with pytest.raises(ValueError, match=f"makes {value * each} draws, more than the ceiling of "
                                         f"{memory.MAX_DRAWS}; {allowed}"):
        memory.check_work("the run", "trials", value, each)


@pytest.fixture
def no_work(monkeypatch):
    """RAM that fits anything, so that only the work guard can refuse, and
    builders and draws that fail the test if they run."""
    monkeypatch.setattr(memory, "ram_bytes", lambda: 10**30)
    monkeypatch.setattr(protocols.StateSpec, "build", lambda self: pytest.fail("state was built"))
    monkeypatch.setattr(GroupAction, "_draws", lambda *a: pytest.fail("a draw was made"))


@pytest.mark.parametrize(
    "args, allowed",
    [
        (["twirl-verify", "target=one-sample", "d=2", "samples=1e30"], "samples allowed is 1000000000"),
        (["twirl-verify", "target=two-sample", "d=2", "--samples", "1000000001"],
         "samples allowed is 1000000000"),
        (["simulate", "protocol=one_way_single", "d=2", "trials=8e9"], "trials allowed is 1000000000"),
        (["simulate", "protocol=bell_pairs", "n=20", "trials=100000001"], "trials allowed is 100000000"),
        (["simulate", "protocol=global_projective", "n=50", "trials=1000000001"],
         "trials allowed is 1000000000"),
        (["sweep", "protocol=one_way_repeated", "n_list=[100, 1000]", "trials=1000001"],
         "trials allowed is 1000000"),
    ],
    ids=["twirl-1e30", "twirl-ceiling", "one-way-single", "bell-pairs", "global", "sweep"],
)
def test_commands_past_the_work_ceiling_exit_2_before_any_draw(no_work, tmp_path, capsys, args, allowed):
    command, *rest = args
    assert main([command, "--out", str(tmp_path / "x"), *rest]) == 2
    err = capsys.readouterr().err
    assert "more than the ceiling of 1000000000" in err and err.rstrip().endswith(allowed)


def test_twirl_verify_checks_the_work_before_the_seed_and_reference(no_work, tmp_path, monkeypatch,
                                                                     capsys):
    # the dim-729 three-source reference is the largest fixed cost of a twirl
    monkeypatch.setattr(states, "sector_operator", lambda *a: pytest.fail("reference was built"))
    monkeypatch.setattr("entbench.cli.doubled_twirl", lambda *a: pytest.fail("twirl ran"))
    args = ["target=three-source", "d=3", "samples=1e30"]
    assert main(["twirl-verify", "--out", str(tmp_path / "x"), *args]) == 2
    assert capsys.readouterr().err.rstrip().endswith("samples allowed is 1000000000")


@pytest.mark.parametrize("kind, d, copies, u", [
    ("local", 3, 1, [1, 0, 0]),
    ("local_independent", 3, 2, [1, 0, 0, 0, 1, 0, 0, 0, 1]),
    ("local_phase", 2, 2, [0, 1, 1, 0]),
])
def test_doubled_twirl_past_the_work_ceiling_refuses_before_any_draw(no_work, kind, d, copies, u):
    action = GroupAction(kind, d, copies)
    with pytest.raises(ValueError, match="more than the ceiling of 1000000000; "
                                         "the largest samples allowed is 1000000000$"):
        doubled_twirl(np.array(u, dtype=complex), action, 10**9 + 1, np.random.default_rng(0))


@pytest.mark.parametrize("protocol", protocols.PROTOCOLS)
def test_experiment_config_refuses_one_round_past_the_ceiling(no_work, protocol):
    # rounds a trial: n for the repeated protocols, n/2 Bell pairs, one for
    # one_way_single and one binomial count for global_projective
    each = {"global_projective": 1, "bell_pairs": 5, "one_way_single": 1, "one_way_repeated": 10}[protocol]
    most = memory.MAX_DRAWS // each
    spec = protocols.StateSpec("max_entangled", 2)
    assert protocols.ExperimentConfig(protocol, 2, 10, 0.0, 0.05, most, 0, spec).trials == most
    with pytest.raises(ValueError, match=f"the largest trials allowed is {most}$"):
        protocols.ExperimentConfig(protocol, 2, 10, 0.0, 0.05, most + 1, 0, spec)


# footprints under tracemalloc, which sees numpy's buffers without allocator
# slack, in 729 x 729 complex arrays: the three-source check at d = 3 holds the
# reference, the mean and the standard error, and little else


def _peak_arrays(run) -> float:
    run()  # imports and caches are not the footprint
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (16 * 729**2)
    finally:
        tracemalloc.stop()


def test_three_source_twirl_verify_holds_little_but_what_it_returns(tmp_path):
    args = ["twirl-verify", "--samples", "16", "--out", str(tmp_path), "target=three-source", "d=3"]
    assert _peak_arrays(lambda: main(args)) <= 2.75


def test_sector_operator_is_built_without_a_second_copy(monkeypatch):
    # the build holds its result and the 3375 pattern values (1.010 arrays,
    # measured; 0.04 of margin), and the operator takes the built matrix
    # itself: the public constructors' copy never runs
    assert _peak_arrays(lambda: multisource.three_source_covariant_test(3)) <= 1.05
    frozen = states._frozen

    def copy(a):
        if np.size(a) == 729**2:
            pytest.fail("the built matrix was copied")
        return frozen(a)

    monkeypatch.setattr(states, "_frozen", copy)
    op = multisource.three_source_covariant_test(3)
    assert op.mat.flags.owndata and not op.mat.flags.writeable


def test_deviation_and_within_make_no_full_size_temporary():
    rng = np.random.default_rng(5)
    mean = rng.standard_normal((729, 729)) + 1j * rng.standard_normal((729, 729))
    est = TwirlEstimate(mean, np.abs(rng.standard_normal((729, 729))), 16)
    target = multisource.three_source_covariant_test(3).mat
    assert _peak_arrays(lambda: est.deviation(target)) <= 0.25
    assert _peak_arrays(lambda: est.within(target)) <= 0.25
