"""The benchmark's tracer (``perfbench/tracing.py``) against the package it wraps.

``--trace 1`` rebinds every function named in ``tracing.TARGETS``; a rename in
the package would break it, so these tests resolve each target and check that
installing and uninstalling the tracer leaves every module as it was.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import entbench.cli  # noqa: F401  (loads every module the benchmark uses)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = sys.modules[f"entbench.{module_name}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_target_resolves(tracing):
    for module_name, path, _ in tracing.TARGETS:
        owner, attr = _resolve(module_name, path)
        assert callable(owner.__dict__.get(attr)), f"entbench.{module_name}.{path} is gone"


def test_install_then_uninstall_restores_every_attribute(tracing):
    owners = [m for n, m in sys.modules.items() if n == "entbench" or n.startswith("entbench.")]
    owners += [_resolve(m, p)[0] for m, p, _ in tracing.TARGETS if "." in p]
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = tracing.Tracer(twirl_chunk=4096)
    tracer.install()
    try:
        for module_name, path, _ in tracing.TARGETS:
            owner, attr = _resolve(module_name, path)
            assert owner.__dict__[attr] is not before[owner][attr], f"{path} is not wrapped"
    finally:
        tracer.uninstall()
    for owner, attrs in before.items():
        changed = [k for k, v in attrs.items() if vars(owner).get(k) is not v]
        assert not changed, f"{owner.__name__}: {changed} not restored"
