"""The package imports numpy and the standard library only; scipy comes at first use.

Each check runs in a fresh interpreter, since the test process has long
since imported scipy.  ``perfbench/tracing.py`` rebinds ``classical.stats``
to a counting stand-in, so installing the tracer before any search must
still count the searches and put ``scipy.stats`` back afterwards.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import entbench

SRC = Path(entbench.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy_until_a_search():
    out = _run("""
        import sys
        import entbench.cli
        from entbench import classical
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        classical.binomial_ump_test(20, 0.1, 0.05)
        import scipy.stats
        print(classical.stats is scipy.stats)
    """)
    assert out.splitlines() == ["[]", "True"]


def test_tracer_installed_before_any_search_counts_and_restores():
    out = _run(f"""
        import importlib.util
        import sys
        import entbench.cli
        from entbench import classical
        assert "scipy.stats" not in sys.modules
        spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer(twirl_chunk=4096)
        tracer.install()
        try:
            classical.binomial_ump_test(200, 0.1, 0.05)
            print(tracer.counts["classical.cdf_evals"] > 0)
        finally:
            tracer.uninstall()
        import scipy.stats
        print(classical.stats is scipy.stats)
    """)
    assert out.splitlines() == ["True", "True"]
