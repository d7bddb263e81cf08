import csv
import json
import os
from pathlib import Path

import pytest

from entbench import classical, cli, memory, quantum
from entbench.cli import EXACT_FORMULAS, TWIRL_TARGETS, main
from entbench.protocols import ROUNDS, StateSpec
from entbench.quantum import beta_one_way


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExact:
    def test_single_row_one_way(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["exact", "--out", str(out), "formula=one-way", "d=2", "epsilon=0",
             "alpha=0.05", "p=0.3"]
        )
        assert rc == 0
        rows = read_csv(out / "exact.csv")
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(beta_one_way(2, 0.0, 0.05, 0.3))

    def test_grid_with_flags(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["exact", "--out", str(out), "formula=two-source", "d=2",
             "p1=[0.1,0.9]", "p2=[0.2,0.95]"]
        )
        assert rc == 0
        rows = read_csv(out / "exact.csv")
        assert len(rows) == 4
        flags = {(r["p1"], r["p2"]): r["flag"] for r in rows}
        assert flags[("0.1", "0.2")] == "ok"
        assert flags[("0.9", "0.95")] == "outside-validity"

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["exact", "--out", str(out), "formula=two-source", "p1=[]", "p2=[0.2]"])
        assert rc == 0
        text = (out / "exact.csv").read_text()
        assert text.splitlines() == ["formula,d,n,epsilon,alpha,p,p1,p2,p3,value,flag"]
        assert text.endswith("\n")

    @pytest.mark.parametrize(
        "args, written",
        [
            (["formula=qubit-sequential", "n=-1e400", "epsilon=7"], {}),
            (["formula=pair-level0", "d=2", "p=0.1", "alpha=nan", "n=abc"], {}),
            (["formula=pair-repeated", "n=3", "epsilon=0.05", "alpha=0.1", "p=0.1", "d=2"],
             {"n": "3", "epsilon": "0.05", "alpha": "0.1"}),
            (["formula=pooled", "n=2", "epsilon=0.3", "p=0.1", "d=2"], {"n": "2"}),
        ],
        ids=["qubit-sequential", "pair-level0", "pair-repeated", "pooled"],
    )
    def test_only_keys_the_formula_reads_are_written(self, tmp_path, args, written):
        out = tmp_path / "run"
        assert main(["exact", "--out", str(out), *args]) == 0
        (row,) = read_csv(out / "exact.csv")
        assert {k: row[k] for k in ("n", "epsilon", "alpha")} == {
            k: written.get(k, "") for k in ("n", "epsilon", "alpha")}

    @pytest.mark.parametrize(
        "args",
        [
            ["formula=nope"],
            ["formula=one-way", "p=0.1"],
            ["formula=pair-repeated", "p=0.1"],
            ["formula=pooled", "p=0.1"],
            ["formula=classical-one", "p=0.2"],
            ["formula=one-way", "p=0.1", "epsilon=[1]", "alpha=0.05"],
            ["formula=pair-level0", "d=1", "p=0.1"],
            ["formula=two-source", "d=1", "p1=0.1", "p2=0.1"],
            ["formula=three-source", "d=1", "p1=0.1", "p2=0.1", "p3=0.1"],
            ["formula=one-way", "d=0", "epsilon=0", "alpha=0.05", "p=0.1"],
            ["formula=two-source", "p1=[]"],
        ],
        ids=["nope", "one-way", "pair-repeated", "pooled", "classical-one", "list-epsilon",
             "pair-level0-d1", "two-source-d1", "three-source-d1", "one-way-d0",
             "two-source-empty-grid-no-p2"],
    )
    def test_unknown_formula_is_invalid_input(self, tmp_path, args):
        rc = main(["exact", "--out", str(tmp_path / "x"), *args])
        assert rc == 2

    @pytest.mark.parametrize("formula", ["[]", "{}", "nope", "2"])
    def test_unknown_formula_message_names_the_key_and_the_choices(self, tmp_path, capsys, formula):
        assert main(["exact", "--out", str(tmp_path / "x"), f"formula={formula}", "d=2"]) == 2
        err = capsys.readouterr().err
        assert "unknown formula" in err and "choose from" in err and "'one-way'" in err

    @pytest.mark.parametrize(
        "args,count",
        [
            (["formula=qubit-optimal", "state.family=isotropic", "state.params=[0.7]"], 1),
            (["formula=three-source", "d=2", "p1=[0.1,0.2]", "p2=0.3", "p3=0.4"], 1),
            (["formula=one-way", "epsilon=0", "alpha=0.05", "p=[0.1,0.3]"], 0),
        ],
        ids=["qubit-optimal-defect-0.7", "three-source", "one-way"],
    )
    def test_validity_warnings_become_manifest_notes(self, tmp_path, capsys, args, count):
        out = tmp_path / "run"
        assert main(["exact", "--out", str(out), *args]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert len(notes) == count and all(isinstance(n, str) for n in notes)
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["epsilon=1.5", "alpha=2", "p=0.1"], "eps must lie in [0, 1]"),
            (["epsilon=0.1", "alpha=7", "p=0.1"], "alpha must lie in (0, 1)"),
            (["epsilon=0.1", "alpha=0", "p=0.1"], "alpha must lie in (0, 1)"),
            (["epsilon=NaN", "alpha=0.05", "p=0.1"], "eps must lie in [0, 1]"),
        ],
        ids=["epsilon-and-alpha", "alpha-above", "alpha-zero", "epsilon-nan"],
    )
    def test_one_way_level_outside_its_domain_is_invalid_input(self, tmp_path, capsys, args,
                                                                message):
        out = tmp_path / "run"
        assert main(["exact", "--out", str(out), "formula=one-way", *args]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "exact.csv").exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["formula=one-way", "p=0.1", "epsilon=[0.1]", "alpha=0.05"],
             "epsilon must be a real number, got [0.1]"),
            (["formula=pair-repeated", "n=2", "p=0.1", "epsilon=0.1", "alpha=[0.1]"],
             "alpha must be a real number, got [0.1]"),
            (["formula=classical-one", "p=0.1", "epsilon=true", "alpha=0.05"],
             "epsilon must be a real number, got True"),
            (["formula=one-way", "p=0.1", "epsilon=0.1", "alpha=abc"],
             "alpha must be a real number, got 'abc'"),
            (["formula=pair-repeated", "n=2", "p=0.1", "epsilon=false", "alpha=0.05"],
             "epsilon must be a real number, got False"),
        ],
        ids=["one-way-epsilon-list", "pair-repeated-alpha-list", "classical-one-epsilon-bool",
             "one-way-alpha-text", "pair-repeated-epsilon-bool"],
    )
    def test_level_that_is_not_a_real_number_is_invalid_input(self, tmp_path, capsys, args,
                                                              message):
        out = tmp_path / "run"
        assert main(["exact", "--out", str(out), *args]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "exact.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["formula=pair-level0"],
            ["formula=pooled", "n=2"],
            ["formula=pair-repeated", "n=2", "epsilon=0.1", "alpha=0.05"],
            ["formula=one-way", "epsilon=0.1", "alpha=0.05"],
            ["formula=classical-one", "epsilon=0.1", "alpha=0.05"],
        ],
        ids=["pair-level0", "pooled", "pair-repeated", "one-way", "classical-one"],
    )
    @pytest.mark.parametrize("p", ["2", "-0.5", "NaN", "[0.1,1.5]"])
    def test_one_source_defect_outside_unit_interval_is_invalid_input(self, tmp_path, capsys,
                                                                      args, p):
        out = tmp_path / "run"
        assert main(["exact", "--out", str(out), *args, f"p={p}"]) == 2
        err = capsys.readouterr().err
        assert "defect " in err and "outside [0, 1]" in err
        assert not (out / "exact.csv").exists()

    def test_override_that_is_not_key_value_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["exact", "--out", str(out), "formula=one-way", "d"]) == 2
        assert "override 'd' is not key=value" in capsys.readouterr().err
        assert not out.exists()

    def test_qubit_formulas_from_state(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["exact", "--out", str(out), "formula=qubit-sequential",
             "state.family=isotropic", "state.params=[0.3]"]
        )
        assert rc == 0
        rows = read_csv(out / "exact.csv")
        assert float(rows[0]["value"]) == pytest.approx((1 - 0.2) ** 2)

    @pytest.mark.parametrize("formula", ["qubit-optimal", "qubit-sequential"])
    def test_qubit_formula_at_other_d_is_invalid_input(self, tmp_path, capsys, formula):
        out = tmp_path / "x"
        rc = main(["exact", "--out", str(out), f"formula={formula}", "d=3",
                   "state.family=isotropic", "state.params=[0.2]"])
        assert rc == 2
        assert "d = 2 only" in capsys.readouterr().err
        assert not (out / "exact.csv").exists()

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "run"
        main(["exact", "--out", str(out), "formula=pair-level0", "d=3", "p=[0.123456789]"])
        value = read_csv(out / "exact.csv")[0]["value"]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12


# one small run of each command; the exact run's defect has 16 significant
# digits, which a manifest rounded to 12 would not replay
REPLAYED_RUNS = {
    "exact": ["formula=pair-repeated", "d=3", "n=4", "epsilon=0.05", "alpha=0.1",
              "p=[0.1,0.1234567890123456]"],
    "simulate": ["--seed", "11", "protocol=global_projective", "n=20", "epsilon=0.05",
                 "alpha=0.1", "trials=2000", "state.family=isotropic", "state.params=[0.1]"],
    "twirl-verify": ["--seed", "6", "--samples", "600", "target=one-sample", "d=3"],
    "sweep": ["--seed", "7", "protocol=bell_pairs", "n_list=[10,20]", "trials=200"],
    "classical": ["n=50", "epsilon=0.05", "alpha=0.1", "q=[0.2,0.3]", "delta=2",
                  "tprime=[4,6]"],
}


class TestReplay:
    @pytest.mark.parametrize("command", list(REPLAYED_RUNS))
    def test_replay_from_manifest_is_byte_identical(self, tmp_path, command):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main([command, "--out", str(first), *REPLAYED_RUNS[command]]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert main([command, "--out", str(replay), "--from-manifest",
                     str(first / "manifest.json")]) == 0
        again = json.loads((replay / "manifest.json").read_text())
        assert manifest["outputs"] and again["outputs"] == manifest["outputs"]
        written = sorted(p.name for p in replay.iterdir())
        assert written == sorted([*manifest["outputs"], "manifest.json"])
        for name in manifest["outputs"]:
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("command", list(REPLAYED_RUNS))
    def test_config_file_beside_a_manifest_is_refused(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), "--config", "c.json",
                  "--from-manifest", "manifest.json"])
        assert exc.value.code == 2


class TestOutputFiles:
    """Every output goes through ``cli._write``, which replaces a file rather
    than rewriting it in place."""

    @pytest.mark.parametrize("command", list(REPLAYED_RUNS))
    def test_rerun_into_the_same_directory_writes_new_identical_files(self, tmp_path, command):
        out, links = tmp_path / "run", tmp_path / "links"
        assert main([command, "--out", str(out), *REPLAYED_RUNS[command]]) == 0
        names = sorted(p.name for p in out.iterdir())
        first = {name: (out / name).read_bytes() for name in names}
        links.mkdir()
        for name in names:  # a held link keeps the old inode from being reused
            os.link(out / name, links / name)
        assert main([command, "--out", str(out), *REPLAYED_RUNS[command]]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).stat().st_ino != (links / name).stat().st_ino
            assert (links / name).read_bytes() == first[name]
            if name != "manifest.json":  # which holds times
                assert (out / name).read_bytes() == first[name]

    def test_link_to_an_output_keeps_the_old_bytes(self, tmp_path):
        out, elsewhere = tmp_path / "run", tmp_path / "elsewhere.csv"
        assert main(["exact", "--out", str(out), "formula=pooled", "n=3", "p=0.1"]) == 0
        old = (out / "exact.csv").read_bytes()
        os.link(out / "exact.csv", tmp_path / "hard.csv")
        elsewhere.write_text("kept\n")
        (out / "manifest.json").unlink()
        (out / "manifest.json").symlink_to(elsewhere)
        assert main(["exact", "--out", str(out), "formula=pooled", "n=3", "p=0.2"]) == 0
        assert (tmp_path / "hard.csv").read_bytes() == old != (out / "exact.csv").read_bytes()
        assert read_csv(out / "exact.csv")[0]["p"] == "0.2"
        assert elsewhere.read_text() == "kept\n"
        assert not (out / "manifest.json").is_symlink()
        assert json.loads((out / "manifest.json").read_text())["config"]["p"] == 0.2

    @pytest.mark.parametrize("command", list(REPLAYED_RUNS))
    def test_every_file_goes_through_the_one_writer(self, tmp_path, monkeypatch, command):
        written, write = [], cli._write
        monkeypatch.setattr(cli, "_write", lambda path, text: (written.append(path), write(path, text)))
        out = tmp_path / "run"
        assert main([command, "--out", str(out), *REPLAYED_RUNS[command]]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert written == [out / name for name in [*outputs, "manifest.json"]]
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])


@pytest.mark.parametrize("case", ["out-is-a-file", "output-is-a-directory",
                                  "manifest-is-a-directory", "config-is-a-directory",
                                  "manifest-source-is-a-directory"])
def test_unusable_path_is_invalid_input(tmp_path, capsys, case):
    out = tmp_path / "run"
    args = ["exact", "--out", str(out), "formula=pooled", "n=3", "p=0.1"]
    if case == "out-is-a-file":
        bad = out
        bad.write_text("")
    elif case in ("output-is-a-directory", "manifest-is-a-directory"):
        bad = out / ("exact.csv" if case == "output-is-a-directory" else "manifest.json")
        bad.mkdir(parents=True)
    else:
        bad = tmp_path / "dir"
        bad.mkdir()
        args += ["--config" if case == "config-is-a-directory" else "--from-manifest", str(bad)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


class TestSimulate:
    def test_different_seed_changes_counts_not_exact(self, tmp_path):
        payloads = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            main(
                ["simulate", "--out", str(out), "--seed", str(seed),
                 "protocol=global_projective", "n=30", "epsilon=0.05", "alpha=0.1",
                 "trials=3000", "state.family=isotropic", "state.params=[0.2]"]
            )
            payloads.append(json.loads((out / "result.json").read_text()))
        assert payloads[0]["exact"] == payloads[1]["exact"]
        assert payloads[0]["accepted"] != payloads[1]["accepted"]

    def test_invalid_protocol_exit_code(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "x"), "protocol=bogus"])
        assert rc == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["state.family=bell_diagonal", "state.params=[0.1,0.1,0.1]", "d=3"],
             "bell_diagonal states are d=2 only"),
            (["trials=0"], "trials must be >= 1"),
            (["n=0"], "need at least one copy"),
        ],
        ids=["bell-diagonal-d3", "no-trials", "no-copies"],
    )
    def test_refusal_names_its_reason(self, tmp_path, capsys, args, message):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), *args]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_manifest_round_trip(self, tmp_path):
        out = tmp_path / "run"
        main(
            ["simulate", "--out", str(out), "--seed", "3", "protocol=one_way_single",
             "trials=500", "state.family=isotropic", "state.params=[0.2]"]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert json.loads(json.dumps(manifest)) == manifest
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == ["result.json", "trace.csv"]
        assert manifest["config"]["seed"] == 3

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "protocol": "global_projective",
                    "n": 10,
                    "epsilon": 0.1,
                    "alpha": 0.2,
                    "trials": 500,
                    "seed": 4,
                    "state": {"family": "isotropic", "params": [0.1]},
                }
            )
        )
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "trials=800"])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["trials"] == 800  # override wins


class TestTwirlVerify:
    def test_one_sample_passes(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", "30000",
                   "target=one-sample", "d=2", "--seed", "5"])
        assert rc == 0
        report = json.loads((out / "twirl_report.json").read_text())
        assert report["status"] == "pass"
        assert report["max_stderr"] <= 5e-3

    def test_tiny_sample_count_inconclusive(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", "10",
                   "target=one-sample", "d=2"])
        assert rc == 0
        assert json.loads((out / "twirl_report.json").read_text())["status"] == "inconclusive"

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_fewer_than_two_samples_is_invalid_input(self, tmp_path, monkeypatch, capsys, samples):
        # one sample has no standard error; refused before any draw
        monkeypatch.setattr("entbench.cli.doubled_twirl", lambda *a: pytest.fail("twirl ran"))
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", samples,
                   "target=one-sample", "d=2"])
        assert rc == 2
        assert f"samples >= 2 for a standard error, got {samples}" in capsys.readouterr().err
        assert not (out / "twirl_report.json").exists()

    def test_qubit_weights_target(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", "40000",
                   "target=qubit-weights", "--seed", "6"])
        assert rc == 0
        assert json.loads((out / "twirl_report.json").read_text())["status"] == "pass"

    def test_qubit_weights_at_other_d_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["twirl-verify", "--out", str(out), "target=qubit-weights", "d=3"]) == 2
        assert "qubit-weights target is d=2 only" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_wrong_reference_fails_with_exit_one(self, tmp_path, monkeypatch):
        # a conclusive twirl against a reference it does not match: the
        # maximally entangled state, not the one-sample covariant test
        monkeypatch.setattr(quantum, "one_sample_covariant_test",
                            lambda d: StateSpec("max_entangled", d).build())
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", "30000",
                   "target=one-sample", "d=2", "--seed", "5"])
        assert rc == 1
        report = json.loads((out / "twirl_report.json").read_text())
        assert report["status"] == "fail" and report["max_stderr"] <= 5e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["twirl_report.json"]

    def test_unknown_target(self, tmp_path):
        rc = main(["twirl-verify", "--out", str(tmp_path / "x"), "target=eq99"])
        assert rc == 2

    @pytest.mark.parametrize("target", ["[]", "{}", "eq99", "2"])
    def test_unknown_target_message_names_the_key_and_the_choices(self, tmp_path, capsys, target):
        assert main(["twirl-verify", "--out", str(tmp_path / "x"), f"target={target}"]) == 2
        err = capsys.readouterr().err
        assert "unknown twirl target" in err and "choose from" in err and "'one-sample'" in err

    def test_unsupported_dimension_refused_before_the_seed(self, tmp_path, monkeypatch, capsys):
        # at d=5 the three-source reference alone would take 3.9 GB
        monkeypatch.setattr("entbench.cli.doubled_twirl", lambda *a: pytest.fail("twirl ran"))
        rc = main(["twirl-verify", "--out", str(tmp_path / "x"), "target=three-source", "d=5"])
        assert rc == 2
        assert "capped" in capsys.readouterr().err

    def test_three_source_d3_few_samples(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", "16",
                   "target=three-source", "d=3"])
        assert rc == 0
        report = json.loads((out / "twirl_report.json").read_text())
        assert report["status"] != "fail"
        assert report["max_abs_deviation"] <= 5 * report["max_stderr"]

    def test_three_source_d3_conclusive(self, tmp_path, monkeypatch):
        # the seed is rank one, so a 2000-sample batch at dim 729 is a batch
        # of vectors and fits an 8 GiB machine; a conclusive verdict needs
        # about 1700 samples
        monkeypatch.setattr(memory, "ram_bytes", lambda: 8 * 2**30)
        out = tmp_path / "run"
        rc = main(["twirl-verify", "--out", str(out), "--samples", "2000",
                   "target=three-source", "d=3"])
        assert rc == 0
        assert json.loads((out / "twirl_report.json").read_text())["status"] == "pass"

    def test_reference_too_large_refused_before_it_is_built(self, tmp_path, monkeypatch, capsys):
        # two-sample references are d^4 square: 16 x 16 fits in 100 kB, 81 x 81 does not
        monkeypatch.setattr(memory, "ram_bytes", lambda: 10**5)
        monkeypatch.setattr(quantum, "two_sample_covariant_test",
                            lambda d: pytest.fail("reference was built"))
        rc = main(["twirl-verify", "--out", str(tmp_path / "x"), "target=two-sample", "d=3"])
        assert rc == 2
        assert "the largest d that fits is 2" in capsys.readouterr().err


    def test_reference_between_six_and_seven_arrays_refused(self, tmp_path, monkeypatch, capsys):
        # twirl-verify peaks at 4.2 to 6.1 reference-sized arrays, so a RAM
        # holding six and a half 16 x 16 references must refuse d = 2
        monkeypatch.setattr(memory, "ram_bytes", lambda: 13 * 16 * 16**2 // 2)
        monkeypatch.setattr(quantum, "two_sample_covariant_test",
                            lambda d: pytest.fail("reference was built"))
        rc = main(["twirl-verify", "--out", str(tmp_path / "x"), "target=two-sample", "d=2"])
        assert rc == 2
        assert "no d fits" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["global_projective", "bell_pairs", "one_way_repeated"])
def test_too_many_trials_refused_before_any_state(tmp_path, monkeypatch, capsys, protocol):
    # 10^12 trials of two copies need terabytes of per-trial arrays
    monkeypatch.setattr(StateSpec, "build", lambda self: pytest.fail("state was built"))
    rc = main(["simulate", "--out", str(tmp_path / "x"), f"protocol={protocol}", "n=2",
               "trials=1000000000000"])
    assert rc == 2
    assert "the largest trials that fits is" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "protocol=one_way_single", "--trials", "10"],
        ["simulate", "protocol=bell_pairs", "n=2", "--trials", "10"],
        ["sweep", "protocol=one_way_repeated", "n_list=[100]", "--trials", "10"],
    ],
    ids=["simulate-one-way", "simulate-bell", "sweep"],
)
def test_huge_d_refused_before_any_state(tmp_path, monkeypatch, capsys, args):
    # a d^2 x d^2 state at d = 10^5 would take 1.6e20 bytes
    monkeypatch.setattr(StateSpec, "build", lambda self: pytest.fail("state was built"))
    command, *rest = args
    rc = main([command, "--out", str(tmp_path / "x"), "d=100000", *rest])
    assert rc == 2
    assert "the largest d that fits is" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["exact", "formula=pooled", "d=2", "n=2.7", "p=0.1"],
        ["simulate", "protocol=one_way_single", "d=2.5", "--trials", "10"],
        ["sweep", "protocol=bell_pairs", "d=2.5", "n_list=[100]"],
        ["twirl-verify", "target=one-sample", "d=2.9", "--samples", "10"],
        ["sweep", "protocol=bell_pairs", "n_list=[100.5]"],
        ["twirl-verify", "target=one-sample", "samples=10.5"],
    ],
    ids=["exact-n", "simulate-d", "sweep-d", "twirl-verify-d", "sweep-n_list", "twirl-verify-samples"],
)
def test_fractional_integer_key_is_invalid_input(tmp_path, capsys, args):
    command, *rest = args
    rc = main([command, "--out", str(tmp_path / "x"), *rest])
    assert rc == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, key",
    [
        (["simulate", "state=5", "--trials", "10"], "state"),
        (["exact", "formula=qubit-optimal", "state=5"], "state"),
        (["simulate", "state2=[1]", "--trials", "10"], "state2"),
        (["simulate", "protocol=bell_pairs", "n=2", "state2=0", "--trials", "10"], "state2"),
        (["simulate", "protocol=bell_pairs", "n=2", "state2=[]", "--trials", "10"], "state2"),
    ],
    ids=["simulate-state", "exact-state", "simulate-state2", "simulate-state2-zero",
         "simulate-state2-empty"],
)
def test_state_that_is_not_an_object_is_invalid_input(tmp_path, capsys, args, key):
    command, *rest = args
    rc = main([command, "--out", str(tmp_path / "x"), *rest])
    assert rc == 2
    assert f"{key} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["global_projective", "one_way_single", "one_way_repeated"])
def test_state2_outside_bell_pairs_is_invalid_input(tmp_path, capsys, protocol):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--trials", "10", f"protocol={protocol}",
               "state2.family=isotropic", "state2.params=[0.5]"])
    assert rc == 2
    assert f"state2 is the second source of bell_pairs; {protocol}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -2])
def test_pooled_without_pairs_is_invalid_input(tmp_path, capsys, n):
    out = tmp_path / "x"
    rc = main(["exact", "--out", str(out), "formula=pooled", "d=2", f"n={n}", "p=[0.1]"])
    assert rc == 2
    assert f"need n >= 1 pairs, got {n}" in capsys.readouterr().err
    assert not (out / "exact.csv").exists()


@pytest.mark.parametrize(
    "args, key",
    [
        (["simulate", "state.family=random", "state.params=[1.5]", "--trials", "10"], "state.params"),
        (["simulate", "state.family=random", "state.params=[1.9]", "--trials", "10"], "state.params"),
        (["simulate", "protocol=bell_pairs", "n=2", "state2.family=random", "state2.params=[1.5]",
          "--trials", "10"], "state2.params"),
        (["exact", "formula=qubit-optimal", "state.family=random", "state.params=[1.5]"],
         "state.params"),
    ],
    ids=["simulate-1.5", "simulate-1.9", "simulate-state2", "exact"],
)
def test_fractional_random_seed_is_invalid_input(tmp_path, capsys, args, key):
    command, *rest = args
    rc = main([command, "--out", str(tmp_path / "x"), *rest])
    assert rc == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, key, family, count",
    [
        (["simulate", "state.family=isotropic", "state.params=[]"], "state", "isotropic", 1),
        (["simulate", "state.family=isotropic", "state.params=[nan]"], "state", "isotropic", 1),
        (["simulate", "state.family=isotropic", "state.params=0.1"], "state", "isotropic", 1),
        (["simulate", "state.family=isotropic", 'state.params=["0.1"]'], "state", "isotropic", 1),
        (["simulate", "state.family=isotropic", "state.params=[true]"], "state", "isotropic", 1),
        (["simulate", "state.family=random", "state.params=[1, 2]"], "state", "random", 1),
        (["simulate", "state.family=max_entangled", "state.params=[0.1]"], "state",
         "max_entangled", 0),
        (["exact", "formula=qubit-optimal", "state.family=bell_diagonal", "state.params=[0.1]"],
         "state", "bell_diagonal", 3),
        (["simulate", "protocol=bell_pairs", "n=2", "state2.family=isotropic",
          "state2.params=[]"], "state2", "isotropic", 1),
        (["simulate", "protocol=bell_pairs", "n=2", "state2.family=isotropic",
          "state2.params=[nan]"], "state2", "isotropic", 1),
        (["simulate", "protocol=bell_pairs", "n=2", "state2.family=isotropic",
          "state2.params=0.1"], "state2", "isotropic", 1),
    ],
    ids=["empty", "not-json", "scalar", "string", "bool", "random-two", "max-entangled-one",
         "bell-diagonal-one", "state2-empty", "state2-not-json", "state2-scalar"],
)
def test_state_params_of_the_wrong_shape_are_invalid_input(tmp_path, capsys, args, key,
                                                           family, count):
    command, *rest = args
    rc = main([command, "--out", str(tmp_path / "x"), *rest])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key}.params must be a JSON list of numbers, {count} for family {family}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["bogus", "[1]", '{"a": 1}'])
def test_unknown_state_family_is_invalid_input(tmp_path, capsys, family):
    rc = main(["simulate", "--out", str(tmp_path / "x"), f"state.family={family}"])
    assert rc == 2
    assert "unknown state family" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1100, 10**12])
def test_pooled_at_large_n(tmp_path, n):
    # the value is about (1 - p)^n; n = 10^12 must not build the integer d^n
    out = tmp_path / "x"
    assert main(["exact", "--out", str(out), "formula=pooled", "d=2", f"n={n}", "p=0.1"]) == 0
    value = float(read_csv(out / "exact.csv")[0]["value"])
    assert value == pytest.approx(0.9**n, rel=1e-11, abs=0.0)


def test_integral_float_random_seed_is_that_seed(tmp_path):
    results = []
    for seed in ("2", "2.0"):
        out = tmp_path / seed
        assert main(["simulate", "--out", str(out), "--trials", "50", "state.family=random",
                     f"state.params=[{seed}]"]) == 0
        result = json.loads((out / "result.json").read_text())
        del result["config"]  # echoes the seed as written
        results.append((result, (out / "trace.csv").read_bytes()))
    assert results[0] == results[1]


def test_integral_float_is_read_as_integer(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--out", str(out), "formula=pooled", "d=2.0", "n=2.0", "p=0.1"]) == 0
    row = read_csv(out / "exact.csv")[0]
    assert (row["d"], row["n"]) == ("2", "2")


@pytest.mark.parametrize(
    "args, message",
    [
        (["classical", "n=10", "epsilon=[0.1]"], "epsilon must be a real number, got [0.1]"),
        (["classical", "n=10", "alpha={}"], "alpha must be a real number, got {}"),
        (["classical", "delta=true"], "delta must be a real number, got True"),
        (["classical", "n=10", 'q=["x"]'], "q must be a real number, got 'x'"),
        (["classical", "delta=1", "tprime=[[3]]"], "tprime must be a real number, got [3]"),
        (["simulate", "epsilon=[0.1]"], "epsilon must be a real number, got [0.1]"),
        (["simulate", "alpha=abc"], "alpha must be a real number, got 'abc'"),
        (["simulate", "alpha=1" + "0" * 400], "alpha must be a real number, got 1000"),
        (["sweep", "delta=[1]"], "delta must be a real number, got [1]"),
        (["sweep", "tprime=abc"], "tprime must be a real number, got 'abc'"),
        (["sweep", "alpha=false"], "alpha must be a real number, got False"),
        (["exact", "formula=one-way", "epsilon=0", "alpha=0.05", 'p=["x"]'],
         "p must be a real number, got 'x'"),
        (["exact", "formula=two-source", "p1=[0.1,[0.2]]", "p2=0.2"],
         "p1 must be a real number, got [0.2]"),
    ],
    ids=["classical-epsilon", "classical-alpha", "classical-delta", "classical-q",
         "classical-tprime", "simulate-epsilon", "simulate-alpha", "simulate-huge-alpha",
         "sweep-delta", "sweep-tprime", "sweep-alpha", "exact-p", "exact-p1"],
)
def test_malformed_real_value_names_its_key(tmp_path, capsys, args, message):
    command, *rest = args
    out = tmp_path / "x"
    assert main([command, "--out", str(out), *rest]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "args, name",
    [
        (["classical", "n=10", 'epsilon="0.1"', 'alpha="0.05"', 'q=["0.5",0.7]'], "classical.csv"),
        (["classical", 'delta="1"', 'tprime=["3"]'], "classical.csv"),
        (["simulate", "protocol=bell_pairs", "n=2", 'epsilon="0.05"', 'alpha="0.1"',
          "trials=100"], "trace.csv"),
        (["sweep", 'delta="1.0"', 'tprime="3"', 'alpha="0.05"', "n_list=[100]"], "sweep.csv"),
        (["exact", "formula=two-source", 'p1=["0.1",0.2]', 'p2="0.3"'], "exact.csv"),
        (["exact", "formula=one-way", 'epsilon="0"', "alpha=0.05", "p=0.1"], "exact.csv"),
        (["exact", "formula=pair-repeated", "n=3", "epsilon=0.1", 'alpha="0.05"', "p=0.1"],
         "exact.csv"),
    ],
    ids=["classical-binomial", "classical-poisson", "simulate", "sweep", "exact",
         "exact-epsilon", "exact-alpha"],
)
def test_numeric_strings_are_read_as_their_numbers(tmp_path, args, name):
    command, *rest = args
    numbers = [token.replace('"', "") for token in rest]
    assert main([command, "--out", str(tmp_path / "text"), *rest]) == 0
    assert main([command, "--out", str(tmp_path / "number"), *numbers]) == 0
    text, number = (read_csv(tmp_path / run / name) for run in ("text", "number"))
    values = [key for key in ("beta", "value", "exact", "count", "occurrences") if key in text[0]]
    assert [[row[k] for k in values] for row in text] == [[row[k] for k in values] for row in number]


class TestSweep:
    def test_single_row(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sweep", "--out", str(out), "protocol=bell_pairs", "n_list=[100]"])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1 and rows[0]["n"] == "100"

    def test_limit_column_constant(self, tmp_path):
        out = tmp_path / "run"
        main(["sweep", "--out", str(out), "protocol=global_projective",
              "n_list=[100,1000]", "delta=1", "tprime=3", "alpha=0.05"])
        rows = read_csv(out / "sweep.csv")
        assert len({r["poisson_limit"] for r in rows}) == 1

    def test_empty_copy_list_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["sweep", "--out", str(out), "n_list=[]"])
        assert rc == 2
        assert "at least one n" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("protocol", ["[]", "{}", "one_way_single"])
    def test_unknown_protocol_message_names_the_key_and_the_choices(self, tmp_path, capsys,
                                                                    protocol):
        assert main(["sweep", "--out", str(tmp_path / "x"), f"protocol={protocol}"]) == 2
        err = capsys.readouterr().err
        assert "repeatable protocol" in err and "'bell_pairs'" in err

    def test_zero_copies_is_invalid_input(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path / "x"), "n_list=[0]"])
        assert rc == 2

    @pytest.mark.parametrize("protocol", ["bell_pairs", "one_way_repeated"])
    def test_pair_dimension_below_two_is_invalid_input(self, tmp_path, capsys, protocol):
        rc = main(["sweep", "--out", str(tmp_path / "x"), f"protocol={protocol}", "d=1"])
        assert rc == 2
        assert "d >= 2" in capsys.readouterr().err

    def test_scalar_copy_list_is_invalid_input(self, tmp_path, capsys):
        # a scalar is a one-entry list, refused here because 5 is odd
        rc = main(["sweep", "--out", str(tmp_path / "x"), "n_list=5"])
        assert rc == 2
        assert "multiple of 2, got [5]" in capsys.readouterr().err

    def test_scalar_copy_list_is_a_one_entry_list(self, tmp_path):
        for name, value in (("scalar", "50"), ("list", "[50]")):
            main(["sweep", "--out", str(tmp_path / name), "protocol=bell_pairs", f"n_list={value}"])
        assert (tmp_path / "scalar" / "sweep.csv").read_bytes() == (
            tmp_path / "list" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "rest",
        [
            ["protocol=bell_pairs", "delta=2.4", "n_list=[2]"],
            ["protocol=one_way_repeated", "delta=2.4", "n_list=[100,2]"],
            ["protocol=bell_pairs", "delta=2.4", "n_list=[2]", "trials=10"],
            ["protocol=global_projective", "tprime=5", "n_list=[2]"],
        ],
        ids=["bell-epsilon", "one-way-epsilon", "bell-epsilon-trials", "global-defect"],
    )
    def test_probability_outside_unit_interval_is_invalid_input(self, tmp_path, capsys, rest):
        out = tmp_path / "x"
        rc = main(["sweep", "--out", str(out), *rest])
        assert rc == 2
        assert "must lie in [0, 1]" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


class TestClassicalCommand:
    def test_binomial_and_poisson_rows(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["classical", "--out", str(out), "n=5", "epsilon=0.1", "alpha=0.05",
                   "q=[0.5]", "delta=1", "tprime=[3]"])
        assert rc == 0
        rows = read_csv(out / "classical.csv")
        kinds = [r["kind"] for r in rows]
        assert kinds == ["binomial", "poisson"]

    @pytest.mark.parametrize(
        "args",
        [["delta=1", "alpha=0.1"], ["delta=1", "alpha=0.1", "tprime=[]"],
         ["n=50", "epsilon=0.05", "alpha=0.1"], ["n=50", "epsilon=0.05", "alpha=0.1", "q=[]"]],
        ids=["delta", "delta-empty", "n", "n-empty"],
    )
    def test_threshold_row_without_alternatives(self, tmp_path, args):
        out = tmp_path / "run"
        assert main(["classical", "--out", str(out), *args]) == 0
        (row,) = read_csv(out / "classical.csv")
        assert row["kind"] == ("poisson" if "delta=1" in args else "binomial")
        assert row["threshold"] and row["gamma"]
        assert row["alternative"] == row["beta"] == ""

    @pytest.mark.parametrize(
        "args, key, family",
        [(['q=["x"]'], "q", "n"), (["n=10", "tprime=abc"], "tprime", "delta"),
         (["delta=1", "q=[0.5]"], "q", "n")],
        ids=["q-alone", "tprime-with-n", "q-with-delta"],
    )
    def test_alternatives_without_their_family_are_invalid_input(self, tmp_path, capsys, args,
                                                                 key, family):
        out = tmp_path / "run"
        assert main(["classical", "--out", str(out), *args]) == 2
        assert f"{key} needs {family}=..." in capsys.readouterr().err
        assert not (out / "classical.csv").exists()

    @pytest.mark.parametrize("args", [[], ["alpha=0.1"], ["epsilon=0.1", "alpha=0.1"]],
                             ids=["bare", "alpha", "epsilon-alpha"])
    def test_no_family_is_invalid_input(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main(["classical", "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert "n=..." in err and "delta=..." in err
        assert not (out / "classical.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "args, want",
        [(["n=5", "epsilon=0.1", "alpha=0.05", "q=[0, 1]"], ("binomial", [0.0, 1.0])),
         (["delta=1", "alpha=0.1", "tprime=[0]"], ("poisson", [0.0]))],
        ids=["q-ends", "tprime-zero"],
    )
    def test_alternatives_at_the_ends_of_their_domain_run(self, tmp_path, args, want):
        out = tmp_path / "run"
        assert main(["classical", "--out", str(out), *args]) == 0
        kind, alternatives = want
        test = (classical.binomial_ump_test(5, 0.1, 0.05) if kind == "binomial"
                else classical.poisson_ump_test(1.0, 0.1))
        rows = read_csv(out / "classical.csv")
        assert [float(r["alternative"]) for r in rows] == alternatives
        assert [float(r["beta"]) for r in rows] == [test.accepted_mass(x) for x in alternatives]

    def test_infinite_rate_is_invalid_input(self, tmp_path):
        rc = main(["classical", "--out", str(tmp_path / "x"), "delta=Infinity", "tprime=[3]"])
        assert rc == 2

    @pytest.mark.parametrize(
        "args",
        [["n=10", "epsilon=0.1", "alpha=0.05", "q=NaN"],
         ["n=10", "epsilon=0.1", "alpha=0.05", "q=[0.5,Infinity]"],
         ["n=10", "epsilon=0.1", "alpha=0.05", "q=-0.1"],
         ["delta=1", "alpha=0.1", "tprime=NaN"],
         ["delta=1", "alpha=0.1", "tprime=[3,Infinity]"],
         ["delta=1", "alpha=0.1", "tprime=-1"]],
        ids=["q-nan", "q-inf", "q-negative", "tprime-nan", "tprime-inf", "tprime-negative"],
    )
    def test_alternative_outside_its_domain_is_invalid_input(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        assert main(["classical", "--out", str(out), *args]) == 2
        key = "q" if "n=10" in args else "tprime"
        assert f"{key} must be a finite number in [0, " in capsys.readouterr().err
        assert not (out / "classical.csv").exists()

    def test_subnormal_rate_is_invalid_input(self, tmp_path):
        # scipy's binomial pmf overflows at this subnormal success probability
        rc = main(["classical", "--out", str(tmp_path / "x"), "n=3",
                   "epsilon=1.1125369292536007e-308"])
        assert rc == 2


def test_readme_names_every_table_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = [*EXACT_FORMULAS, *TWIRL_TARGETS, *ROUNDS]
    keys += [k for _, grid, reads in EXACT_FORMULAS.values() for k in grid + reads]
    assert [k for k in keys if f"`{k}`" not in readme] == []
