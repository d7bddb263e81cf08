"""Seeded outputs as a committed digest: which files did a change move?

    python tools/golden.py            # write GOLDEN.json
    python tools/golden.py --check    # compare the outputs with GOLDEN.json

Run from the repository root.  The commands of the four benchmark workloads
are built at ``SEEDS`` by the makers in ``perfbench/workloads.py``, without
evaluating their oracles, and run one after another in this process through
``entbench.cli.main``, into a temporary directory.  Every output file but the
manifests (which hold times) is recorded under
``<workload>/s<seed>/c<command>/<file>`` with its sha256 and its cells: a CSV
file's rows by column, or a JSON file's parsed object.  The record also names
the numpy version and the BLAS library, which can move bits on their own.

``--check`` runs the same commands and lists each file whose sha256 moved,
with its first differing cell, and each file that appeared or disappeared.  It
then runs them again into the same, now populated, directories, as the
benchmark does, and lists each file whose bytes the rerun changed.  It exits 1
if anything moved or changed and 0 otherwise.  A change that moves outputs by
design regenerates the record, so its diff names what moved.  This is not
part of the test suite: another numpy or BLAS build may move bits on a
correct program.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = ["src", "perfbench"]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from entbench import cli  # noqa: E402

GOLDEN = Path("GOLDEN.json")
SEEDS = (1, 2, 3)


def blas_name() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def cells(path: Path):
    """The file's rows, each a dict by column (CSV), or its parsed object
    (JSON), else (or if it does not parse) its text."""
    text = path.read_text()
    if path.suffix == ".csv":
        return list(csv.DictReader(io.StringIO(text)))
    if path.suffix == ".json":
        with contextlib.suppress(json.JSONDecodeError):
            return json.loads(text)
    return text


def run_all(root: Path) -> dict:
    """sha256 and cells of every output file of every seeded command."""
    files = {}
    for name, (_, _, make) in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for i, cmd in enumerate(make(np.random.default_rng(seed))):
                where = f"{name}/s{seed}/c{i:02d}"
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([cmd.command, "--out", str(root / where), *cmd.args])
                if rc != 0:
                    raise SystemExit(f"golden: {where} ({cmd.command} {' '.join(cmd.args)}) exited {rc}")
                for path in sorted((root / where).iterdir()):
                    if path.name != "manifest.json":
                        files[f"{where}/{path.name}"] = {
                            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                            "cells": cells(path),
                        }
    return files


def first_difference(old, new, where: str = "") -> str | None:
    """Where two parsed files first differ and how: a CSV cell is named by its
    row and column, a JSON leaf by its key path."""
    if isinstance(old, list) and isinstance(new, list):
        old, new = dict(enumerate(old)), dict(enumerate(new))
    if isinstance(old, dict) and isinstance(new, dict):
        for k in dict.fromkeys([*old, *new]):
            if k not in old or k not in new:
                return f"{where}[{k!r}] {'added' if k not in old else 'removed'}"
            found = first_difference(old[k], new[k], f"{where}[{k!r}]")
            if found:
                return found
        return None
    return None if old == new else f"{where or 'content'}: {old!r} -> {new!r}"


def write(files: dict) -> None:
    head = {"numpy": np.__version__, "blas": blas_name(), "seeds": list(SEEDS)}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    # one line per file, so a regenerated record's diff names what moved
    lines += ['  "files": {', ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}"
                                          for k, v in sorted(files.items()))]
    GOLDEN.write_text("{\n" + "\n".join(lines) + "\n  }\n}\n")
    print(f"golden: wrote {len(files)} files' digests to {GOLDEN}")


def differences(old: dict, new: dict, changed: str) -> int:
    """Print each file that is only in ``old`` (gone), only in ``new`` (new),
    or whose sha256 differs (tagged ``changed``, with its first differing
    cell); return how many."""
    count = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            print(f"gone   {name}")
        elif name not in old:
            print(f"new    {name}")
        elif old[name]["sha256"] != new[name]["sha256"]:
            where = first_difference(old[name]["cells"], new[name]["cells"]) or "bytes only"
            print(f"{changed:<6} {name}  {where}")
        else:
            continue
        count += 1
    return count


def check(files: dict, again: dict) -> int:
    """Compare the first run with the record, and the rerun into the
    populated directories with the first run."""
    record = json.loads(GOLDEN.read_text())
    for key, now in (("numpy", np.__version__), ("blas", blas_name())):
        if record[key] != now:
            print(f"golden: recorded with {key} {record[key]}, running {now}")
    old = record["files"]
    moved = differences(old, files, "moved")
    print(f"golden: {moved} of {len(old)} recorded files moved; {len(files)} files now")
    rerun = differences(files, again, "rerun")
    print(f"golden: the rerun into the same directories changed {rerun} of {len(files)} files")
    return 1 if moved or rerun else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true", help="compare with the record instead of writing it")
    args = ap.parse_args()
    if not Path("src/entbench/cli.py").is_file():
        raise SystemExit("golden: run from the repository root")
    with tempfile.TemporaryDirectory() as tmp:
        files = run_all(Path(tmp))
        again = run_all(Path(tmp)) if args.check else None
    if args.check:
        return check(files, again)
    write(files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
