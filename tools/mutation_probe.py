"""Mutation probe: which operator and comparison in a function does no test pin?

    python tools/mutation_probe.py MODULE [FUNCTION ...] [--max N]

Run from the repository root.  Each mutant swaps one arithmetic operator
(``+ - * / // % **``, in an expression or an augmented assignment) or one
comparison (``< <= > >= == !=``) inside the named functions of
``src/entbench/MODULE.py`` (``Class.method`` names a method; no name means
every top-level function and method).  The mutated module is written, by
``ast.unparse``, into a copy of ``src/`` in a temporary directory, and the
module's own test files (``TESTS``) run against that copy with ``-x``.  A
mutant is killed when the tests fail, error or time out, and survives when
they pass.  The timeout is ``TIMEOUT_SCALE`` times the unmutated run of the
same tests, and at least ``TIMEOUT_FLOOR`` seconds, so a mutant that loops
forever costs a few test runs, not minutes.  With ``--max``, a sample of that many sites is
drawn with the fixed ``SEED``, so a run is reproducible.  Only the standard
library is used; pytest runs as a subprocess.

This is not part of the test suite: a run over one module's touched
functions takes minutes, every mutant paying a pytest start.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# module -> the test files that pin it, run for each of its mutants; the known
# failing large-deviation criterion is deselected wherever the acceptance
# tests run
TESTS = {
    "classical": ["tests/test_classical.py"],
    "multisource": ["tests/test_multisource.py", "tests/test_acceptance.py"],
    "protocols": ["tests/test_protocols.py", "tests/test_acceptance.py"],
    "quantum": ["tests/test_quantum.py", "tests/test_acceptance.py"],
    "qubit_pair": ["tests/test_qubit_pair.py", "tests/test_acceptance.py"],
    "states": ["tests/test_states.py", "tests/test_memory.py"],
    "twirl": ["tests/test_twirl.py", "tests/test_memory.py"],
}
DESELECT = "tests/test_acceptance.py::test_criterion_09_large_deviation"
SEED = 0  # draws the --max sample of sites
# a mutant's tests time out after this many times the unmutated run, and no
# sooner than the floor in seconds, which covers a slow pytest start
TIMEOUT_SCALE = 4.0
TIMEOUT_FLOOR = 60.0

# each operator and the one it is swapped for
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def functions(tree: ast.Module, names: list[str]):
    """(qualified name, node) of the module's functions and methods, only
    those in ``names`` if any are given."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
    missing = set(names) - {name for name, _ in found}
    if missing:
        raise SystemExit(f"no function {sorted(missing)} in the module")
    return [(name, node) for name, node in found if not names or name in names]


def sites(tree: ast.Module, names: list[str]):
    """Every mutation site, in source order: (function, line, node, field,
    index), where ``index`` picks one operator of a chained comparison."""
    out = []
    for name, func in functions(tree, names):
        for node in ast.walk(func):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                out.append((name, node.lineno, node, "op", None))
            elif isinstance(node, ast.Compare):
                out += [(name, node.lineno, node, "ops", i)
                        for i, op in enumerate(node.ops) if type(op) in SWAPS]
    return sorted(out, key=lambda s: (s[1], s[2].col_offset, s[4] or 0))


def describe(node, field, index) -> str:
    op = getattr(node, field) if index is None else node.ops[index]
    return f"{type(op).__name__} -> {SWAPS[type(op)].__name__}: {ast.unparse(node)}"


def mutate(node, field, index):
    """Swap the site's operator in place; returns a function that restores it."""
    if index is None:
        old = node.op
        node.op = SWAPS[type(old)]()
        return lambda: setattr(node, "op", old)
    old = node.ops[index]
    node.ops[index] = SWAPS[type(old)]()
    return lambda: node.ops.__setitem__(index, old)


def run_tests(src: Path, tests: list[str], timeout: float | None = None) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    # the empty pythonpath option keeps pytest from putting the checkout's
    # own src/ ahead of the mutated copy
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "pythonpath=",
           "--deselect", DESELECT, *tests]
    try:
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("module", choices=sorted(TESTS))
    ap.add_argument("functions", nargs="*")
    ap.add_argument("--max", type=int, default=None, help="sample this many sites")
    args = ap.parse_args()

    path = Path("src/entbench") / f"{args.module}.py"
    tree = ast.parse(path.read_text())
    chosen = sites(tree, args.functions)
    if args.max is not None and args.max < len(chosen):
        chosen = sorted(random.Random(SEED).sample(chosen, args.max), key=lambda s: s[1])
    tests = TESTS[args.module]
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree("src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "entbench" / path.name
        target.write_text(ast.unparse(tree) + "\n")
        start = time.monotonic()
        if run_tests(src, tests) != "survived":
            raise SystemExit(f"the tests fail on the unmutated {path} as unparsed; nothing to probe")
        unmutated = time.monotonic() - start
        timeout = max(TIMEOUT_FLOOR, TIMEOUT_SCALE * unmutated)
        print(f"unmutated tests took {unmutated:.1f} s; a mutant times out after {timeout:.0f} s",
              flush=True)
        for name, line, node, field, index in chosen:
            restore = mutate(node, field, index)
            target.write_text(ast.unparse(tree) + "\n")
            restore()
            verdict = run_tests(src, tests, timeout)
            print(f"{verdict:17s} {name}:{line}  {describe(node, field, index)}", flush=True)
            if verdict == "survived":
                survivors.append((name, line))
    print(f"{args.module}: {len(chosen) - len(survivors)} killed, {len(survivors)} survived "
          f"of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
