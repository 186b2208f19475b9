"""Numeric kernels for the detection simulator, vectorized in numpy.

The per-trial work — Poisson sampling by CDF inversion, Gaussian noise
via an inverse-normal transform, and moment accumulation — runs one
block of trials at a time.  Seeded outputs must carry the same bits on
every CPU and numpy build, and that drives three choices:

* ``np.log`` takes SIMD paths that differ in the last ulp between CPUs
  and builds, so the inverse normal uses a hand-rolled frexp +
  atanh-series logarithm (accurate to ~2 ulp, plenty for the
  sqrt(-log(p)) tail argument it feeds).
* Per-block sums are reduced through an explicit balanced binary tree
  with zero padding, so numpy's pairwise-summation blocking cannot make
  the partial sums drift.
* Everything else is elementwise IEEE arithmetic (+, -, *, /, sqrt,
  frexp), which rounds each element the same way whatever the array
  length or alignment.  That is what lets each branch below run on its
  own subset of the elements without changing a bit.

The standard-normal quantile is the Wichura PPND16 rational
approximation (Applied Statistics algorithm AS 241), good to ~1e-16.
Each of its three branches is evaluated only on the elements it applies
to: the central polynomial on |u - 0.5| <= 0.425, the portable log on
the tails only, and the intermediate and far-tail polynomials on their
own split of the tails.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require_nonnegative

__all__ = [
    "LAMBDA_GAUSSIAN_CUTOFF",
    "poisson_cdf_table",
    "portable_log",
    "inverse_normal",
    "block_kernels",
]

#: Above this Poisson mean the simulator switches to Gaussian sampling.
LAMBDA_GAUSSIAN_CUTOFF = 1.0e7

#: Smallest uniform admitted to the quantile function (2**-54); a raw 0
#: would map to -inf and poison the moment sums.
_TINY_UNIFORM = 2.0**-54

# log(2) split high/low for exact exponent reconstruction (fdlibm split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = 0.7071067811865476

# Polynomial coefficients, lowest power first.
# atanh series 2/(2k+1) in w = z*z, for log((1+z)/(1-z)), z = (m-1)/(m+1)
_LOG_SERIES = tuple(2.0 / (2 * k + 1) for k in range(11))
# PPND16 central branch, |q| <= 0.425, in r = 0.180625 - q*q
_CENTRAL_NUM = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_CENTRAL_DEN = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
# intermediate tail, r = sqrt(-log(min(u, 1-u))) in (1.6, 5], in r - 1.6
_MID_NUM = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_MID_DEN = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
# far tail, r > 5, in r - 5
_FAR_NUM = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_FAR_DEN = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _horner(x, coeffs):
    """sum(coeffs[k] * x**k) by Horner's rule from the highest power down."""
    acc = coeffs[-1] * x
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def _log_vector(x):
    m, e = np.frexp(x)
    small = m < _SQRT_HALF
    m = np.where(small, m * 2.0, m)
    e = np.where(small, e - 1, e)
    z = (m - 1.0) / (m + 1.0)
    lm = z * _horner(z * z, _LOG_SERIES)
    ef = e.astype(np.float64)
    return ef * _LN2_HI + (lm + ef * _LN2_LO)


def _inverse_normal_vector(u):
    """AS 241 on a 1-D float64 array, each branch on its own elements.

    Subsets are gathered and scattered through integer indices, which
    numpy moves several times faster than boolean masks.
    """
    u = np.maximum(u, _TINY_UNIFORM)
    q = u - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    idx = np.flatnonzero(central)
    qc = q.take(idx)
    r = 0.180625 - qc * qc
    out[idx] = qc * _horner(r, _CENTRAL_NUM) / _horner(r, _CENTRAL_DEN)

    idx = np.flatnonzero(~central)
    ut = u.take(idx)
    lower = q.take(idx) < 0.0
    r = np.sqrt(-_log_vector(np.where(lower, ut, 1.0 - ut)))
    value = np.empty_like(r)
    mid = r <= 5.0
    for part, shift, num, den in (
        (np.flatnonzero(mid), 1.6, _MID_NUM, _MID_DEN),
        (np.flatnonzero(~mid), 5.0, _FAR_NUM, _FAR_DEN),
    ):
        rs = r.take(part) - shift
        value[part] = _horner(rs, num) / _horner(rs, den)
    np.negative(value, out=value, where=lower)
    out[idx] = value
    return out


def _tree_sum_vector(values, padded):
    if padded != values.shape[0]:
        buf = np.zeros(padded, dtype=np.float64)
        buf[: values.shape[0]] = values
    else:
        buf = values
    size = padded
    while size > 1:
        size >>= 1
        buf = buf[0 : 2 * size : 2] + buf[1 : 2 * size : 2]
    return float(buf[0])


def _open_block(
    u_count, u_thermal, cdf, k_lo, gaussian, lam, sqrt_shot, sigma, shift, threshold
):
    n = u_count.shape[0]
    padded = 1 << max(n - 1, 0).bit_length()
    if gaussian:
        q = lam + sqrt_shot * _inverse_normal_vector(u_count)
    else:
        idx = np.searchsorted(cdf, u_count, side="right")
        idx = np.minimum(idx, cdf.shape[0] - 1)
        q = (k_lo + idx).astype(np.float64)
    if sigma > 0.0:
        q = q + sigma * _inverse_normal_vector(u_thermal)
    below = int(np.count_nonzero(q < threshold))
    dq = q - shift
    d2 = dq * dq
    d3 = d2 * dq
    d4 = d2 * d2
    s1 = _tree_sum_vector(dq, padded)
    s2 = _tree_sum_vector(d2, padded)
    s3 = _tree_sum_vector(d3, padded)
    s4 = _tree_sum_vector(d4, padded)
    return s1, s2, s3, s4, below


def _blocked_block(u_thermal, sigma, threshold):
    return int(np.count_nonzero(sigma * _inverse_normal_vector(u_thermal) >= threshold))


# --------------------------------------------------------------------------
# Public interface
# --------------------------------------------------------------------------

def portable_log(x: np.ndarray) -> np.ndarray:
    """Natural log of positive float64 values, the same bits everywhere (~2 ulp)."""
    return _log_vector(np.asarray(x, dtype=np.float64))


def inverse_normal(u: np.ndarray) -> np.ndarray:
    """Standard-normal quantile of uniforms in (0, 1), vectorized.

    Inputs are clamped below at 2**-54 (the smallest value the uniform
    generator leaves unreachable anyway) so an exact 0 cannot return
    -inf.  The output has the shape of the input.
    """
    u = np.asarray(u, dtype=np.float64)
    return _inverse_normal_vector(u.ravel()).reshape(u.shape)


def poisson_cdf_table(lam: float) -> tuple[int, np.ndarray]:
    """Windowed Poisson CDF for sampling by inversion.

    Returns ``(k_lo, cdf)`` where ``cdf[j] = P(K <= k_lo + j)`` over a
    window lam +/- (40*sqrt(lam) + 30); the probability mass outside is
    below ~1e-300 and unreachable from 53-bit uniforms.  Built once per
    simulation.  scipy is imported here, on first use, because importing
    it costs a CLI call more than everything else together.
    """
    require_nonnegative(lam, "Poisson mean")
    if lam == 0.0:
        return 0, np.ones(1, dtype=np.float64)
    from scipy.special import gammaln

    half_width = 40.0 * math.sqrt(lam) + 30.0
    k_lo = max(0, int(math.floor(lam - half_width)))
    k_hi = int(math.ceil(lam + half_width))
    k = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    log_pmf = k * math.log(lam) - lam - gammaln(k + 1.0)
    return k_lo, np.cumsum(np.exp(log_pmf))


def block_kernels():
    """Return ``(open_block, blocked_block)``, the per-block simulator kernels.

    ``open_block(u_count, u_thermal, cdf, k_lo, gaussian, lam, sqrt_shot,
    sigma, shift, threshold)`` samples the open-state charge of one block
    and returns its shifted power sums ``s1..s4`` and the count below
    threshold; ``blocked_block(u_thermal, sigma, threshold)`` counts the
    blocked-state trials whose thermal charge reaches the threshold.
    """
    return _open_block, _blocked_block
