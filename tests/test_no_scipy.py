"""Serving runs without SciPy; only the FID metric needs it.

Each check runs in a fresh interpreter, so modules other tests already
imported cannot hide an import-time dependency.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_IMPORTS = """
import repro
import repro.core.cluster_router
import repro.core.serving
import repro.metrics
import repro.workloads
"""


def _run(*parts: str) -> str:
    body = "\n".join(textwrap.dedent(part) for part in parts)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", body],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serving_runs_with_scipy_blocked():
    out = _run(
        """
        import sys
        sys.modules["scipy"] = None  # any scipy import now fails
        """,
        _IMPORTS,
        """
        import numpy as np
        from repro.core.config import ClusterConfig, MoDMConfig
        from repro.core.serving import MoDMSystem
        from repro.embedding import SemanticSpace
        from repro.metrics import frechet_distance
        from repro.workloads import DiffusionDBConfig, diffusiondb_trace

        space = SemanticSpace()
        trace = diffusiondb_trace(
            space, DiffusionDBConfig(n_requests=200, seed="no-scipy")
        )
        config = MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
            small_models=("sdxl",),
        )
        report = MoDMSystem(space, config).run(trace)
        assert report.n_completed == 200, report.n_completed
        eye = np.eye(3)
        try:
            frechet_distance(np.zeros(3), eye, np.zeros(3), eye)
        except ImportError:
            print("fid: ImportError")
        """
    )
    assert out.splitlines() == ["fid: ImportError"]


def test_serving_imports_load_no_scipy():
    pytest.importorskip("scipy")
    out = _run(
        _IMPORTS,
        """
        import sys

        import numpy as np
        from repro.metrics import frechet_distance

        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        eye = np.eye(3)
        print(frechet_distance(np.zeros(3), eye, np.ones(3), eye))
        """
    )
    loaded, distance = out.splitlines()
    assert loaded == "[]"
    assert float(distance) == pytest.approx(3.0)
