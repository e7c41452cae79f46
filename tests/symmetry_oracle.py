"""The pair-symmetry kernels in their slow, direct form: the differential
references for :func:`curvlike.tensor_core.checked_components` and
:func:`curvlike.gauss_bounds.total_symmetry_residuals`.

- The mirror copies the forms and scatters the strict upper triangle onto
  the lower one.
- The pair-symmetry gate scans |zeta - zeta^T| in full before mirroring,
  form by form against 1e-12 times the form's largest |component|.
- The total-symmetry residual compares the cubic block with each of the five
  other permutations of its three indices.
"""

import math

import numpy as np

from curvlike.errors import ValidationError
from curvlike.tensor_core import INPUT_SYMMETRY_TOL, Dimensions


def scatter_mirror(components) -> np.ndarray:
    out = np.array(components, dtype=float)
    i_up, j_up = np.triu_indices(out.shape[-1], k=1)
    out[..., j_up, i_up] = out[..., i_up, j_up]
    return out


def reference_checked_components(components) -> np.ndarray:
    arr = np.asarray(components, dtype=float)
    if arr.ndim < 3 or arr.shape[-1] != arr.shape[-2]:
        raise ValidationError(
            f"expected components of shape (m', n, n), got {arr.shape}"
        )
    dims = Dimensions(n=arr.shape[-1], m_prime=arr.shape[-3])
    scale = np.abs(arr).max(axis=(-3, -2, -1))
    if not np.isfinite(scale).all():
        raise ValidationError("zeta components must be finite")
    asym = np.abs(arr - np.swapaxes(arr, -1, -2))
    for form in np.ndindex(scale.shape):
        if (asym[form] > INPUT_SYMMETRY_TOL * scale[form]).any():
            r, i, j = np.unravel_index(int(asym[form].argmax()), asym.shape[-3:])
            worst = arr[form]
            raise ValidationError(
                f"zeta[{r}][{i}][{j}] = {float(worst[r, i, j])!r} differs from "
                f"zeta[{r}][{j}][{i}] = {float(worst[r, j, i])!r}"
            )
    sym = scatter_mirror(arr)
    top = np.finfo(float).max
    forms, scales = sym.reshape(-1, *sym.shape[-3:]), scale.reshape(-1)
    for k in np.flatnonzero(scales > math.sqrt(top / (8 * dims.n**3 * dims.m_prime))):
        unit_norm_sq = float(np.square(forms[k] / scales[k]).sum())
        if scales[k] > math.sqrt(top / (8 * dims.n * unit_norm_sq)):
            raise ValidationError(
                f"zeta is too large: 8 n ||zeta||^2 overflows binary64 "
                f"(largest |component| {float(scales[k])!r})"
            )
    sym.setflags(write=False)
    return sym


def reference_total_symmetry_residuals(components) -> np.ndarray:
    comps = np.asarray(components)
    lead, n = comps.ndim - 3, comps.shape[-1]
    if comps.shape[-3] < n:
        return np.full(comps.shape[:-3], np.inf)
    cubic, tail = comps[..., :n, :, :], comps[..., n:, :, :]
    within = (-3, -2, -1)
    residual = np.zeros(comps.shape[:-3])
    for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        permuted = cubic.transpose(tuple(range(lead)) + tuple(lead + a for a in axes))
        residual = np.maximum(residual, np.abs(cubic - permuted).max(axis=within))
    if tail.size:
        residual = np.maximum(residual, np.abs(tail).max(axis=within))
    return residual
