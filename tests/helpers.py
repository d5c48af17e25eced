"""Test helpers: verifier parameters as one flat vector, for finite-difference
gradient checks, and the cost bounds the latency model implies."""
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
