"""Test helpers: verifier parameters as one flat vector, for finite-difference
gradient checks, the cost bounds the latency model implies, and one edit to a
trace file's summary."""
import json

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
