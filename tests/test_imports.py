"""The package imports numpy and the standard library only; scipy comes at first use.

Each check runs in a fresh interpreter, since the test process has long
since imported scipy.  Threshold searches run on ``scipy.special`` ufuncs
through ``classical.stats``, so no library path loads ``scipy.stats``, and
the sector-built operators and states are certified without
``scipy.linalg``.  ``perfbench/tracing.py`` rebinds ``classical.stats`` to a
counting stand-in, so installing the tracer before any search must still
count the searches and put the library's ``stats`` back afterwards.  Every name the package
exports in ``__all__`` must resolve on it.  ``concurrent.futures``, which
runs the draw-ahead worker, is not loaded at package import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import entbench

SRC = Path(entbench.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _run(code: str, cwd=None) -> str:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=120, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_exported_name_resolves():
    assert entbench.__all__ and [n for n in entbench.__all__ if not hasattr(entbench, n)] == []


def test_searches_and_commands_load_no_scipy_stats(tmp_path):
    out = _run("""
        import sys
        import entbench.cli
        from entbench import classical
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        classical.beta_binomial(200, 0.1, 0.05, 0.3)
        classical.beta_poisson(3.0, 0.05, 7.0)
        assert entbench.cli.main(["classical", "--out", "c", "n=50", "epsilon=0.05", "alpha=0.1",
                                  "q=[0.2,0.3]", "delta=2", "tprime=[5]"]) == 0
        assert entbench.cli.main(["simulate", "--out", "s"]) == 0
        print("scipy.special" in sys.modules, "scipy.stats" in sys.modules)
    """, cwd=tmp_path)
    lines = out.splitlines()
    assert lines[0] == "[]" and lines[-1] == "True False"


def test_sector_built_operators_and_states_load_no_scipy_linalg(tmp_path):
    # the covariant reference and the isotropic and default states are
    # certified from their sector coefficients, with no Cholesky factorization
    out = _run("""
        import sys
        import entbench.cli
        assert entbench.cli.main(["twirl-verify", "--out", "t", "--samples", "64",
                                  "target=one-sample", "d=3"]) == 0
        for state in ('{"family": "isotropic", "params": [0.1]}', '{"family": "max_entangled"}'):
            assert entbench.cli.main(["simulate", "--out", "s", "protocol=one_way_single",
                                      "trials=100", f"state={state}"]) == 0
        print("scipy.linalg" in sys.modules)
    """, cwd=tmp_path)
    assert out.splitlines()[-1] == "False"


def test_cli_import_loads_no_concurrent_futures():
    # the worker of twirl._prefetch comes from concurrent.futures, imported
    # at the first run of two or more batches, never at package import
    out = _run("""
        import sys
        import entbench.cli
        print("concurrent.futures" in sys.modules)
    """)
    assert out.splitlines() == ["False"]


def test_tracer_installed_before_any_search_counts_and_restores():
    out = _run(f"""
        import importlib.util
        import sys
        import entbench.cli
        from entbench import classical
        library_stats = classical.stats
        spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer(twirl_chunk=4096)
        tracer.install()
        try:
            classical.binomial_ump_test(200, 0.1, 0.05)
            classical.poisson_ump_test(3.0, 0.05)
            print(tracer.counts["classical.cdf_evals"] > 0, tracer.counts["classical.searches"])
        finally:
            tracer.uninstall()
        print(classical.stats is library_stats, "scipy.stats" in sys.modules)
    """)
    assert out.splitlines() == ["True 2.0", "True False"]
