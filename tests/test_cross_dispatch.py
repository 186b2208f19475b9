"""The seeded simulator bits on the code paths of lesser CPUs.

Seeded outputs must carry the same bits on every CPU.  Two environment
variables make one child process take the code paths that a lesser CPU
would take on this one:

* ``NPY_DISABLE_CPU_FEATURES`` turns off numpy's SIMD dispatch targets.
  The names come from numpy's own dispatch list: the AVX-512 targets
  (AVX2 dispatch) or every target (baseline dispatch).  Only targets
  that this CPU has are named, so the test runs on any CPU, and the
  child checks that numpy turned them off.
* ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-...`` turns off glibc's AVX2 and
  FMA variants of libm.  Nothing in the child can confirm that they
  were in use; on this x86-64 CPU they change the bits of ``math.exp``.

Under each setting a child pytest reruns the golden ``simulate``
records, the frozen inverse-normal and portable-log hashes, the
linear-axis sweep digests, the one-shot and material digests (in this
process and in a fresh interpreter) and the array calls that must equal
their point calls bit for bit.  Only the 18 log-axis sweep digests stay
out: ``np.geomspace`` builds those axes with numpy's SIMD ``log10`` and
``power``, so they are known to differ under AVX2 dispatch (ROADMAP item
2(c)).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from test_sweep_corpus import CASES, FORMATS

ROOT = Path(__file__).resolve().parent.parent
PINNED = [
    "tests/test_golden.py",
    "tests/test_kernels.py::test_inverse_normal_bits_frozen",
    "tests/test_kernels.py::test_portable_log_bits_frozen",
    *(f"tests/test_sweep_corpus.py::test_sweep_matches_recorded_digest[{case}-{fmt}]"
      for case, argv in sorted(CASES.items()) if "log" not in argv for fmt in FORMATS),
    "tests/test_sweep_corpus.py::test_one_shot_matches_recorded_digest",
    "tests/test_sweep_corpus.py::test_material_matches_recorded_digest",
    "tests/test_sweep_corpus.py::test_one_shot_digests_in_a_fresh_interpreter",
    "tests/test_devices.py::test_array_call_equals_point_calls_bit_for_bit",
]

_TARGETS = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
_AVX512 = [name for name in _TARGETS if name == "X86_V4" or name.startswith("AVX512")]
SETTINGS = {
    "numpy-avx2": ({"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)}, _AVX512),
    "numpy-baseline": ({"NPY_DISABLE_CPU_FEATURES": " ".join(_TARGETS)}, _TARGETS),
    "glibc-without-avx2-fma": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX512F,-AVX2,-FMA,-FMA4"},
                               []),
}

#: The child: confirm that numpy turned off the targets named in argv,
#: then run the pinned tests.
_CHILD = """\
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[1:] if __cpu_features__[name]]
if still_on:
    sys.exit(f"numpy still dispatches {still_on}")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *PINNED]))
"""


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_pinned_bits_under_other_dispatch(setting):
    variables, turned_off = SETTINGS[setting]
    src = str(ROOT / "src")
    env = {**os.environ, **variables,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = _CHILD.replace("*PINNED", ", ".join(map(repr, PINNED)))
    done = subprocess.run([sys.executable, "-c", child, *turned_off], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
