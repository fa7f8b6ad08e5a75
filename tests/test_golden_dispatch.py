"""The committed golden holds on numpy's baseline loops too.

numpy picks some float64 ufunc loops by CPU feature (AVX2, AVX-512, ...)
at import, and those loops do not all round alike: ``np.log2`` of 3242
is one ulp apart on the AVX-512 and the baseline path.  A CI runner may
lack features the developer's host has, so the golden comparison of
``golden_matrix.py`` is re-run in a child process with every dispatched
feature this host has switched off through ``NPY_DISABLE_CPU_FEATURES``:
no output may depend on which SIMD path ran.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

TESTS = Path(__file__).parent


def _dispatched_features() -> list[str]:
    """The dispatch targets above numpy's baseline that this host has."""
    return [name for name in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(name)]


def test_golden_holds_with_every_dispatched_cpu_feature_disabled():
    features = _dispatched_features()
    if not features:
        pytest.skip("this host has no CPU feature above numpy's baseline to disable")
    disabled = " ".join(features)
    # The child does not inherit pytest's pythonpath=src setting.
    env = dict(
        os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=str(TESTS.parent / "src")
    )
    # The child checks that numpy really switched them off, then compares.
    probe = (
        "import runpy, sys\n"
        "from test_golden_dispatch import _dispatched_features\n"
        "if _dispatched_features():\n"
        "    sys.exit(f'numpy left enabled: {_dispatched_features()}')\n"
        "runpy.run_path('golden_matrix.py', run_name='__main__')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=TESTS, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, (
        f"outputs moved from tests/golden_matrix.jsonl with "
        f"NPY_DISABLE_CPU_FEATURES={disabled!r}:\n{done.stdout}{done.stderr}"
    )
