"""Test helpers: verifier parameters as one flat vector, for finite-difference
gradient checks, the cost bounds the latency model implies, one edit to a
trace file's summary, and the name of the BLAS kernel in use."""
import ctypes
import json
from pathlib import Path

import numpy as np

from specverify.core import ConfigurationError
from specverify.verifier import VerifierParams


def flat(params: VerifierParams) -> np.ndarray:
    return np.concatenate([params.w_fuse.ravel(), params.b_fuse,
                           params.w_head.ravel(), params.b_head])


def with_flat(params: VerifierParams, values: np.ndarray) -> VerifierParams:
    """A copy of ``params`` holding ``values``, laid out as ``flat`` lays them."""
    out = params.copy()
    i = 0
    for arr in (out.w_fuse, out.b_fuse, out.w_head, out.b_head):
        arr[...] = values[i:i + arr.size].reshape(arr.shape)
        i += arr.size
    return out


def cost_bounds(latency, chunk_size: int):
    """Best/worst-case amortized per-step inference cost for chunk size K."""
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be >= 1")
    return (latency.t_heavy / chunk_size + latency.t_verify,
            latency.t_heavy + latency.t_verify)


def edit_summary(lines: list, edit) -> int:
    """Apply ``edit`` to the first summary among the trace file ``lines``, in
    place, and set its simulated time to match its counters, so that only the
    edit itself can be rejected. Returns the summary's index."""
    end = next(i for i, line in enumerate(lines) if '"summary"' in line)
    summary = json.loads(lines[end])
    edit(summary)
    summary["simulated_inference_time"] = (summary["heavy_calls"] * summary["t_heavy"]
                                           + summary["verifier_calls"] * summary["t_verify"])
    lines[end] = json.dumps(summary, sort_keys=True) + "\n"
    return end


def blas_core_name():
    """The kernel OpenBLAS chose in this process (``SkylakeX``, ``Haswell``, ...),
    or None when numpy's OpenBLAS cannot name it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None
