"""The numeric platform the `pins` tests were recorded under, beside the running one.

A `pins` test holds the last bits of numpy's SIMD kernels, so a failure
reads differently when the numpy version or the dispatched SIMD targets
differ from those below.
"""

import numpy as np

PINS_NUMPY = "2.4.6"
PINS_SIMD_BASELINE = ("X86_V2",)
PINS_SIMD_DISPATCH = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def _running_simd() -> tuple[list, list, list]:
    """(baseline, dispatch, dispatch targets this CPU enables) of the running numpy."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatch = list(umath.__cpu_dispatch__)
    features = umath.__cpu_features__
    return list(umath.__cpu_baseline__), dispatch, [target for target in dispatch if features.get(target)]


def pytest_report_header(config):
    baseline, dispatch, enabled = _running_simd()
    return [
        f"pins recorded under: numpy {PINS_NUMPY}; SIMD baseline {' '.join(PINS_SIMD_BASELINE)}; "
        f"dispatch {' '.join(PINS_SIMD_DISPATCH)}",
        f"running under: numpy {np.__version__}; SIMD baseline {' '.join(baseline)}; "
        f"dispatch {' '.join(dispatch)} (enabled here: {' '.join(enabled) or 'none'})",
    ]
