"""What ``import stablelab`` loads: scipy is imported only by the code that
calls it, and a route whose scipy module is loaded at call time returns the
same numbers as one whose module was already loaded."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.integrate  # noqa: F401  loads every deferred module here, as the package once did

import stablelab as sl

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy.fft")


def _fresh(code: str) -> list[str]:
    """Output lines of ``code`` run in a fresh interpreter with ``src`` first on the path."""
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.splitlines()


def test_import_loads_no_deferred_scipy_module():
    loaded = _fresh(
        "import stablelab, stablelab.cli\n"
        f"print([m for m in {DEFERRED!r} if m in sys.modules])\n"
    )
    assert loaded == ["[]"]


# One call per deferred route; each prints whether its scipy module was
# loaded before the call, then the bytes of its result.  The order matters:
# scipy.fft loads scipy.special, and scipy.integrate loads all the others.
ROUTES = {
    "scipy.linalg": "sl.dirichlet_laplacian(sl.Grid1D(-2.0, 2.0, 0.05)).eigenvalues",
    "scipy.special": "sl.closedform.levy_half_cdf(np.array([0.0, 0.1, 1.0, 7.5]))",
    "scipy.fft": "sl.fractional_power(sl.Grid1D(-2.0, 2.0, 0.05), 1.2).matrix",
    "scipy.integrate": "sl.j_integral(sl.JParams(0.5, 1.0), 0.3)",
}


def _hex(value) -> str:
    return np.asarray(value, dtype=float).tobytes().hex()


def test_deferred_routes_match_loaded_ones_bitwise():
    code = "import numpy as np\nimport stablelab as sl\nimport stablelab.closedform\n"
    for module, call in ROUTES.items():
        code += (f"print({module!r} in sys.modules)\n"
                 f"print(np.asarray({call}, dtype=float).tobytes().hex())\n")
    lines = _fresh(code)
    assert lines[0::2] == ["False"] * len(ROUTES)
    assert all(m in sys.modules for m in DEFERRED)
    for (module, call), fresh in zip(ROUTES.items(), lines[1::2]):
        assert fresh == _hex(eval(call, {"sl": sl, "np": np})), module


def test_trace_study_loads_no_scipy(tmp_path):
    # the segment spectra are closed form, so the whole run needs no scipy
    loaded = _fresh(
        "from stablelab.config import default_config\n"
        "from stablelab.experiments import run\n"
        f"run(default_config('trace-study'), {str(tmp_path)!r})\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert loaded == ["[]"]


def test_beta_transition_loads_no_scipy_linalg(tmp_path):
    # the sine transforms need scipy.fft; the Krylov solve's small eigensolves are numpy's
    loaded = _fresh(
        "from stablelab.config import default_config\n"
        "from stablelab.experiments import run\n"
        f"run(default_config('beta-transition'), {str(tmp_path)!r})\n"
        "print([m for m in ('scipy.fft', 'scipy.linalg') if m in sys.modules])\n"
    )
    assert loaded == ["['scipy.fft']"]
