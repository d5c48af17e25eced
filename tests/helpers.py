"""Verifier parameters as one flat vector, for finite-difference gradient checks."""
import numpy as np

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
