"""Every command runs or refuses: a fuzz of ``cli.main`` over all five commands.

Each example takes a small valid configuration of one command and overrides
zero to two keys with values that are out of range, non-finite, of the wrong
type or nested.  The command must exit 0 or 2 (invalid input) and never
raise.  On exit 0, no output file may hold a nan or inf unless the input
did.  The examples are derandomized, so the suite runs the same ones every
time.
"""

import contextlib
import io
import itertools
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entbench.cli import main

# one small valid configuration per command and case, as key=value tokens
BASES = {
    "exact": [
        ["formula=one-way", "d=3", "epsilon=0.1", "alpha=0.05", "p=[0.2,0.5]"],
        ["formula=pair-repeated", "d=2", "n=4", "epsilon=0.05", "alpha=0.1", "p=0.2"],
        ["formula=three-source", "d=3", "p1=0.1", "p2=[0.2,0.9]", "p3=0.3"],
        ["formula=qubit-optimal", 'state={"family": "bell_diagonal", "params": [0.1, 0.05, 0.02]}'],
    ],
    "simulate": [
        ["protocol=one_way_single", "d=2", "trials=50", 'state={"family": "isotropic", "params": [0.1]}'],
        ["protocol=bell_pairs", "d=2", "n=4", "epsilon=0.1", "trials=20"],
        ["protocol=global_projective", "d=3", "n=3", "epsilon=0.1", "trials=20",
         'state={"family": "random", "params": [4]}'],
        ["protocol=one_way_repeated", "d=2", "n=3", "epsilon=0.1", "trials=20"],
    ],
    "twirl-verify": [
        ["target=one-sample", "d=3", "samples=16"],
        ["target=two-sample", "d=2", "samples=16"],
        ["target=qubit-weights", "d=2", "samples=16"],
        ["target=three-source", "d=2", "samples=8"],
    ],
    "sweep": [
        ["protocol=bell_pairs", "n_list=[10,20]", "trials=4"],
        ["protocol=one_way_repeated", "d=3", "n_list=[5]", "delta=0.5", "tprime=2"],
    ],
    "classical": [
        ["n=30", "epsilon=0.05", "alpha=0.1", "q=[0.2,0.3]"],
        ["delta=2", "alpha=0.05", "tprime=[5,0]"],
    ],
}

KEYS = sorted({token.split("=")[0] for token in itertools.chain(*itertools.chain(*BASES.values()))}
              | {"seed", "state.params", "state.family", "state.d", "state2", "trials", "samples"})

# raw override values; json.loads reads 1e400 as inf, NaN and Infinity as
# floats, and anything it cannot parse (nan, inf, abc) as a string
VALUES = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "nan", "inf", "true", "false",
          "null", "abc", "[]", "[0.5,\"x\"]", "[[1]]", '{"a":1}', "0", "1", "2", "3", "-1",
          "0.5", "-0.5", "1.5", "1e-300", "2.5e9", "1e30"]

NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b|1e400")


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(BASES)),
    case=st.integers(0, 3),
    overrides=st.dictionaries(st.sampled_from(KEYS), st.sampled_from(VALUES), max_size=2),
)
def test_every_command_runs_or_refuses(command, case, overrides):
    base = BASES[command][case % len(BASES[command])]
    tokens = base + [f"{key}={value}" for key, value in overrides.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--out", str(out), *tokens])
        assert code in (0, 2), (command, tokens, code)
        if code == 0 and not any(NON_FINITE.search(token) for token in tokens):
            for path in sorted(out.iterdir()):
                text = path.read_text()
                assert not NON_FINITE.search(text), (command, tokens, path.name, text)
