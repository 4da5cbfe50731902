"""The import path: scipy loads only for the commands and priors that need it,
and multiprocessing only for a run with more than one worker.

Each case runs in a fresh interpreter, because this test process has scipy
loaded already.
"""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

from scipy.special import zeta

SRC = Path(__file__).resolve().parents[1] / "src"

AR_GEOMETRIC_CONFIG = """\
[scenario]
kind = ar
streams = 2
sigma = 1.0
theta = 1.0
coeffs = 0.5, 0.2; 0.3

[prior]
kind = geometric
rho = 0.1

[change]
nu = 5
subset = 1

[grid]
theta_points = 0.5, 0.5; 1.0, 1.0
K = 2

[detector]
kind = shiryaev-mixture
alpha = 0.05

[mc]
replications = 16
master_seed = 3
horizon = 40
"""

LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
HAS_MULTIPROCESSING = "'multiprocessing' in sys.modules"


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter on this checkout; it prints one JSON line."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_geometric_ar_run_loads_no_scipy(tmp_path):
    (tmp_path / "run.ini").write_text(AR_GEOMETRIC_CONFIG)
    out = run_fresh(
        f"""
        import contextlib, io
        from qcdetect import cli

        after_import = {LOADED_SCIPY}
        pool_after_import = {HAS_MULTIPROCESSING}
        cli.build_detector(cli.load_config("run.ini"))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", "run.ini", "--out", "run", "--workers", "1"])
        print(json.dumps({{
            "code": code, "after_import": after_import, "after_run": {LOADED_SCIPY},
            "pool_after_import": pool_after_import, "pool_after_run": {HAS_MULTIPROCESSING},
        }}))
        """,
        tmp_path,
    )
    assert out == {
        "code": 0, "after_import": [], "after_run": [],
        "pool_after_import": False, "pool_after_run": False,
    }
    assert (tmp_path / "run.csv").is_file()


def test_polynomial_tail_prior_loads_zeta_lazily(tmp_path):
    out = run_fresh(
        f"""
        import numpy as np
        from qcdetect import cli
        from qcdetect.model import PolynomialTailPrior

        before = {LOADED_SCIPY}
        light, heavy = PolynomialTailPrior(1.5, q=0.1), PolynomialTailPrior(0.5, q=0.1)
        values = {{
            "mass": [light.mass(k) for k in (0, 1, 7)],
            "log_mass": [light.log_mass(k) for k in (0, 7)],
            "tail": [light.tail(n) for n in (0, 3, 50)],
            "tail_array": light.tail(np.arange(4)).tolist(),
            "log_tail": [light.log_tail(n) for n in (0, 50)],
            "mean": light.mean(),
            "sample": [int(heavy.change_points(np.random.default_rng(s).random((1, 1)))[0])
                       for s in range(12)],
        }}
        print(json.dumps({{"before": before, "after": {LOADED_SCIPY}, "values": values}}))
        """,
        tmp_path,
    )
    assert out["before"] == []
    assert "scipy.special" in out["after"]
    # the closed forms the prior evaluates, with scipy's zeta called directly
    scale, s, z0 = 1.0 - 0.1, 2.5, zeta(2.5, 1.0)
    assert out["values"] == {
        "mass": [scale * (k + 1.0) ** (-s) / z0 for k in (0, 1, 7)],
        "log_mass": [math.log1p(-0.1) - s * math.log(k + 1.0) - math.log(z0) for k in (0, 7)],
        "tail": [scale * zeta(s, n + 1.0) / z0 for n in (0, 3, 50)],
        "tail_array": [scale * zeta(s, n + 1.0) / z0 for n in (0.0, 1.0, 2.0, 3.0)],
        "log_tail": [
            math.log1p(-0.1) + math.log(zeta(s, n + 1.0)) - math.log(z0) for n in (0, 50)
        ],
        "mean": scale * (zeta(1.5, 1.0) - zeta(2.5, 1.0)) / zeta(2.5, 1.0),
        # inverse-CDF draws as the prior gave them with zeta imported at module load
        "sample": [3, 1, 0, -1, 145, 11, 1, 2, 0, 27, 244, 0],
    }
