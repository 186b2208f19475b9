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
  the partial sums drift.  A noise-free Poisson run skips the tree on
  every block when its extent certifies the sums exact: its counts k
  are whole, and with W = max|k - shift| over the CDF table and
  n * W**4 < 2**53 for its longest block every term and every partial
  sum of (k - shift)**p, p <= 4, is an integer below 2**53, so the tree
  adds them without rounding and its result is the integer sum, which
  each block then takes from a histogram of its counts instead.  Runs
  of full blocks qualify up to lam of about 4 400.
* Everything else is elementwise IEEE arithmetic (+, -, *, /, sqrt,
  frexp, ldexp, minimum, copysign), which rounds each element the same
  way whatever the array length or alignment.  That is what lets each
  branch below run on its own subset of the elements without changing a
  bit.  No ufunc runs with a ``where=`` mask: a masked call costs 7-15 ns
  per element, its plain and exactly equal form (``ldexp`` by a 0/1
  exponent, ``minimum(u, 1 - u)``, ``copysign``) 0.3-1.4 ns.

The standard-normal quantile is the Wichura PPND16 rational
approximation (Applied Statistics algorithm AS 241), good to ~1e-16.
Each of its three branches is evaluated only on the elements it applies
to: the central polynomial on |u - 0.5| <= 0.425, the portable log on
the tails only, and the intermediate and far-tail polynomials on their
own split of the tails.

The blocked state only needs the count of ``sigma * z >= threshold``,
and the quantile is monotone to within its tested error of 5e-15
relative, so that count is taken by a cut in uniform space.  With
t = threshold / sigma (clamped to +/-40, past any uniform), every u at
or above Phi(t + delta) counts and no u below Phi(t - delta) does, for
delta = 1e-6 (1 + |t|) and the two cut points widened by a further
1e-9 relative and 2**-50 absolute.  That margin dwarfs the quantile's
own error, the error of ``math.erfc`` and the rounding of ``sigma * z``
and of t, so only the uniforms between the cut points (about one per
million, plus those within 1e-9 of 1 when t is far out) go through the
inverse normal and the exact comparison, and the count is the one the
full kernel gives, bit for bit.

The kernels take a block's raw Philox words x from
:func:`chargelimit.rng.uniform_block`, whose uniforms are
u = (x >> 11) * 2**-53, and read from the words what they can.  Since
u >= p exactly when x >= ceil(p * 2**53) << 11 (p * 2**53 is exact),
every cut in uniform space is an integer compare of words, and a
guide-table bucket floor(u * m), m = 2**b, is the word's top b bits.
Only the words that meet the inverse normal or a binary search are
turned into uniforms, in their own memory: a noise-free Poisson block
forms no float uniform outside the 1-2% of words it searches.

Poisson inversion uses a guide table (Chen & Asau 1974; Devroye 1986,
§III.2) built once per simulation: one lookup per uniform, and a binary
search only where a bucket spans several CDF entries, so every count
equals the clamped ``searchsorted(cdf, u, "right")``.  For a long
noise-free run whose blocks are certified, the table has about 16
buckets per CDF entry, so only 1-2% of the uniforms fall in a bucket
that holds an entry.  A noise-free block on the certified histogram
path shifts each word to its bucket, takes each count's offset from the
bucket's integer count index in one gather, searches only the words of
the buckets that hold an entry, and bins the offsets: five passes over
the block, and no float counts or uniforms.  Thermal and uncertified
blocks keep the per-trial lookup, a float base plus one when the word
exceeds the bucket's cut word.  The CDF is built from the mode
outward by the ratios p(k)/p(k-1) = lam/k (Devroye 1986, §X.3; Kemp &
Kemp, Appl. Statist. 40 (1991) 143), so it too is made of IEEE
operations and sequential sums only, and needs no log-gamma.

No kernel allocates a block-sized array: every temporary is written,
through ``out=`` ufuncs and ``take(out=)``, into the buffers of a
workspace that a running block holds (:func:`block_workspace`), and
uniforms are written over the words they come from.  A block's words
are its one block-sized allocation, since ``random_raw`` takes no
output buffer.  They still fault no pages once a run has drawn its
first block: glibc's malloc raises its mmap threshold past the size of
the first such array it frees, so the later draws come from the heap
that the freed words went back to, provided a block drops its words
before it draws the next ones.  Only the index sets of
``np.flatnonzero`` are still allocated per block; the allocator keeps
reusing their memory.  The CDF and guide tables are built once
per simulation, and a run builds only the table its one lookup reads:
a certified noise-free run the integer count index, 8 bytes a bucket,
and every other Poisson run ``base`` and ``cut``, 16 bytes a bucket.
At most that is 2**15 buckets (256 KiB) for a long noise-free run at
lam from about 3 100 to 4 400, so a repeated run faults in its pages
again (about 100 pages); a block allocates no table.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import require_nonnegative
from .rng import BLOCK

__all__ = [
    "LAMBDA_GAUSSIAN_CUTOFF",
    "poisson_cdf_table",
    "poisson_guide_table",
    "portable_log",
    "inverse_normal",
    "block_kernels",
    "block_workspace",
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


class _Workspace:
    """Preallocated buffers for the kernels on up to ``n`` elements.

    ``f`` holds seven float64 buffers: the open-state charge, the thermal
    charge and five inverse-normal temporaries, reused in turn by the
    Poisson lookup and the tree sums; the histogram path keeps its
    counts' offsets from ``k_lo`` in ``f[0]`` viewed as intp, and the
    blocked kernel gathers the words between its cut points into
    ``f[0]``, as uniforms, and their thermal charges into ``f[1]``.
    ``f[2]`` viewed as uint64 takes the cut words of the Poisson lookup.
    ``buckets`` holds the guide-table indices and ``b`` two bool masks
    (the blocked kernel's two cut comparisons).  The public
    :func:`portable_log` and :func:`inverse_normal` borrow a block
    workspace too, so they allocate only their output up to ``BLOCK``
    elements.
    """

    def __init__(self, n: int):
        self.f = [np.empty(n) for _ in range(7)]
        self.buckets = np.empty(n, dtype=np.intp)
        self.b = [np.empty(n, dtype=bool) for _ in range(2)]


#: Idle block-sized workspaces; each running block holds one of its own.
_FREE: list[_Workspace] = []


@contextlib.contextmanager
def block_workspace():
    """A workspace for one ``BLOCK``-trial block, taken from the free list
    (or made when it is empty) and given back to it on exit."""
    try:
        ws = _FREE.pop()
    except IndexError:  # every workspace is in use
        ws = _Workspace(BLOCK)
    yield ws
    _FREE.append(ws)  # not after an exception: that workspace is dropped


def _borrow_workspace(n):
    """A block workspace for ``n <= BLOCK`` elements, else a fresh one."""
    return block_workspace() if n <= BLOCK else contextlib.nullcontext(_Workspace(n))


def _horner(x, coeffs, out):
    """sum(coeffs[k] * x**k) into ``out`` by Horner's rule from the highest power down."""
    np.multiply(x, coeffs[-1], out=out)
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _log_vector(x, out, ws):
    """portable_log of ``x`` into ``out`` (which may be ``x``), using
    ``ws.f[2]``, ``f[3]``, ``f[5]`` and ``b[0]``."""
    k = x.shape[0]
    m, t, acc = ws.f[2][:k], ws.f[3][:k], ws.f[5][:k]
    np.frexp(x, out=(m, out))  # the int exponent lands in out as a float
    small = np.less(m, _SQRT_HALF, out=ws.b[0][:k])
    np.ldexp(m, small, out=m)  # m * 2 where small, exactly
    np.subtract(out, small, out=out)
    z = np.divide(np.subtract(m, 1.0, out=acc), np.add(m, 1.0, out=t), out=m)
    lm = np.multiply(z, _horner(np.multiply(z, z, out=t), _LOG_SERIES, acc), out=acc)
    lo = np.add(lm, np.multiply(out, _LN2_LO, out=t), out=t)
    return np.add(np.multiply(out, _LN2_HI, out=out), lo, out=out)


def _inverse_normal_vector(u, out, ws):
    """AS 241 of a 1-D float64 array into ``out``, each branch on its own
    elements, using ``ws.f[2:7]`` and ``ws.b``.

    Subsets are gathered and scattered through integer indices, which
    numpy moves several times faster than boolean masks.
    """
    n = u.shape[0]
    s0, s1, s2, s3, s4 = (buf[:n] for buf in ws.f[2:7])
    q = np.subtract(u, 0.5, out=s0)
    central = np.less_equal(np.abs(q, out=s1), 0.425, out=ws.b[0][:n])
    idx = np.flatnonzero(central)
    kc = idx.shape[0]
    qc = np.take(q, idx, out=s1[:kc], mode="clip")
    r = np.subtract(0.180625, np.multiply(qc, qc, out=s2[:kc]), out=s2[:kc])
    num = np.multiply(qc, _horner(r, _CENTRAL_NUM, s3[:kc]), out=s3[:kc])
    out[idx] = np.divide(num, _horner(r, _CENTRAL_DEN, s1[:kc]), out=num)  # qc is spent

    idx = np.flatnonzero(np.logical_not(central, out=central))
    kt = idx.shape[0]
    ut = np.maximum(np.take(u, idx, out=s1[:kt], mode="clip"), _TINY_UNIFORM, out=s1[:kt])
    lower = np.less(np.take(q, idx, out=s2[:kt], mode="clip"), 0.0, out=ws.b[1][:kt])
    x = np.minimum(ut, np.subtract(1.0, ut, out=s2[:kt]), out=s2[:kt])
    r = np.sqrt(np.negative(_log_vector(x, x, ws), out=x), out=x)
    value = s0[:kt]
    mid = np.less_equal(r, 5.0, out=ws.b[0][:kt])
    for shift, num_coeffs, den_coeffs in ((1.6, _MID_NUM, _MID_DEN), (5.0, _FAR_NUM, _FAR_DEN)):
        part = np.flatnonzero(mid)
        k = part.shape[0]
        rs = np.subtract(np.take(r, part, out=s1[:k], mode="clip"), shift, out=s1[:k])
        value[part] = np.divide(_horner(rs, num_coeffs, s3[:k]), _horner(rs, den_coeffs, s4[:k]),
                                out=s3[:k])
        np.logical_not(mid, out=mid)
    out[idx] = np.copysign(value, np.subtract(0.5, lower, out=s2[:kt]), out=value)
    return out


def _tree_sum_vector(values, scratch):
    """Sum of ``values`` by a balanced binary tree over their zero padding
    to a power of two.  The levels ping-pong between the two halves of
    ``scratch``, at least as long as ``values``; a padding zero is added
    only where it meets a value, so no zeros are stored."""
    src, live = values, values.shape[0]
    half = (live + 1) // 2
    dst, spare = scratch[:half], scratch[half:]
    while live > 1:
        pairs = live >> 1
        np.add(src[0 : 2 * pairs : 2], src[1 : 2 * pairs : 2], out=dst[:pairs])
        if live & 1:
            dst[pairs] = src[live - 1] + 0.0
        src, dst, spare, live = dst, spare, dst, pairs + (live & 1)
    return float(src[0])


def _as_uniforms(x):
    """The uniforms ``(x >> 11) * 2**-53`` of raw words ``x``, written over
    them; returns them as ``x``'s memory viewed as float64.  (An
    assignment converts in place; a ufunc with ``out=`` the view would
    copy the overlapping input first.)"""
    u = x.view(np.float64)
    u[...] = np.right_shift(x, 11, out=x)
    u *= 2.0**-53
    return u


def _uniform_index(p):
    """``ceil(p * 2**53)`` over p clipped to [0, 1], as float64: the index
    j of the first uniform ``j * 2**-53`` at or above p, 2**53 where no
    uniform reaches p.  p * 2**53 is exact, so the words whose uniform
    is at least p are exactly those from ``j << 11`` on."""
    return np.ceil(np.multiply(np.clip(p, 0.0, 1.0), 2.0**53))


def _buckets(x, m, ws):
    """Bucket ``floor(u * m)`` of each word's uniform, m = 2**b: the top
    b bits ``x >> (64 - b)``, into ``ws.buckets``."""
    n = x.shape[0]
    np.right_shift(x, 65 - m.bit_length(), out=ws.buckets[:n].view(np.uint64))
    return ws.buckets[:n]


def _poisson_counts(x, cdf, k_lo, guide, ws):
    """``k_lo + min(searchsorted(cdf, u, "right"), len(cdf) - 1)`` of the
    words' uniforms u, as float64 in ``ws.f[0]``, through the ``(2, m)``
    guide table of :func:`poisson_guide_table`, using ``ws.buckets``,
    ``f[2]`` and ``b[0]``."""
    n = x.shape[0]
    base, cut = guide[0], guide[1].view(np.uint64)
    bucket = _buckets(x, base.shape[0], ws)
    q = np.take(base, bucket, out=ws.f[0][:n], mode="clip")
    q += np.greater(x, np.take(cut, bucket, out=ws.f[2][:n].view(np.uint64), mode="clip"),
                    out=ws.b[0][:n])
    wide = np.flatnonzero(np.isnan(q, out=ws.b[0][:n]))
    idx = np.searchsorted(cdf, _as_uniforms(x.take(wide)), side="right")
    q[wide] = k_lo + np.minimum(idx, cdf.shape[0] - 1)
    return q


def _certified(n, k_lo, size, shift):
    """Whether n * max|k - shift|**4 < 2**53 over the counts k of a
    ``size``-entry CDF table from ``k_lo``, with shift an integer: the
    certificate that a noise-free block's tree sums are exact."""
    lo = k_lo - int(shift)
    return float(shift).is_integer() and n * max(-lo, lo + size - 1) ** 4 < 2**53


def _histogram_sums(x, cdf, k_lo, index, shift, threshold, ws):
    """``(s1, s2, s3, s4, below)`` of the counts that the words ``x``
    sample, from their histogram.  The count ``index`` is built only for
    a run whose blocks n * max|k - shift|**4 < 2**53 certifies (a block
    is never longer than the one certified), so these integer sums are
    the tree's.

    Each word takes its count's offset from ``k_lo`` straight from
    ``index`` (an intp gather into ``ws.f[0]``), which is exact in every
    bucket that holds no CDF entry; only the words of the other buckets,
    marked by the sentinel ``len(cdf)``, are turned into uniforms for the
    clamped binary search.  With about 16 buckets per CDF entry on a long
    run (see :func:`poisson_guide_table`) that is 1-2% of them.
    ``bincount`` bins the offsets."""
    n, size = x.shape[0], cdf.shape[0]
    k = np.take(index, _buckets(x, index.shape[0], ws), out=ws.f[0][:n].view(np.intp),
                mode="clip")
    mixed = np.flatnonzero(np.equal(k, size, out=ws.b[0][:n]))
    k[mixed] = np.minimum(np.searchsorted(cdf, _as_uniforms(x.take(mixed)), side="right"),
                          size - 1)
    counts = np.bincount(k, minlength=size)
    v = np.arange(size) + (k_lo - int(shift))
    sums, term = [], counts
    for _ in range(4):
        term = term * v
        sums.append(float(term.sum()))
    return (*sums, int(counts[np.arange(k_lo, k_lo + size) < threshold].sum()))


def _open_block(
    x_count, x_thermal, cdf, k_lo, guide, gaussian, lam, sqrt_shot, sigma, shift, threshold, ws
):
    n = x_count.shape[0]
    if gaussian:
        z = _inverse_normal_vector(_as_uniforms(x_count), ws.f[0][:n], ws)
        q = np.add(lam, np.multiply(sqrt_shot, z, out=z), out=z)
    elif guide.ndim == 1:  # the count index of a certified noise-free run
        return _histogram_sums(x_count, cdf, k_lo, guide, shift, threshold, ws)
    else:
        q = _poisson_counts(x_count, cdf, k_lo, guide, ws)
    d2 = ws.f[1][:n]
    if sigma > 0.0:
        q += np.multiply(sigma, _inverse_normal_vector(_as_uniforms(x_thermal), d2, ws), out=d2)
    below = int(np.count_nonzero(np.less(q, threshold, out=ws.b[0][:n])))
    scratch = ws.f[2]
    dq = np.subtract(q, shift, out=q)
    np.multiply(dq, dq, out=d2)
    s1 = _tree_sum_vector(dq, scratch)
    s2 = _tree_sum_vector(d2, scratch)
    s3 = _tree_sum_vector(np.multiply(d2, dq, out=dq), scratch)
    s4 = _tree_sum_vector(np.multiply(d2, d2, out=d2), scratch)
    return s1, s2, s3, s4, below


def _blocked_block(x_thermal, sigma, threshold, ws):
    n = x_thermal.shape[0]
    t = min(max(threshold / sigma, -40.0), 40.0)
    delta = 1e-6 * (1.0 + abs(t))
    lo = 0.5 * math.erfc((delta - t) * _SQRT_HALF) * (1.0 - 1e-9) - 2.0**-50
    hi = 0.5 * math.erfc((-delta - t) * _SQRT_HALF) * (1.0 + 1e-9) + 2.0**-50
    # the first words whose uniform reaches each cut point: hi's is 2**64
    # where no uniform reaches it, lo (below 1 - 1e-9) always has one
    lo, hi = (int(j) << 11 for j in _uniform_index([lo, hi]))
    below_hi = np.less_equal(x_thermal, hi - 1, out=ws.b[1][:n])
    near = np.flatnonzero(np.logical_and(np.greater_equal(x_thermal, lo, out=ws.b[0][:n]),
                                         below_hi, out=ws.b[0][:n]))
    above = n - int(np.count_nonzero(below_hi))
    k = near.shape[0]
    u = _as_uniforms(np.take(x_thermal, near, out=ws.f[0][:k].view(np.uint64), mode="clip"))
    z = np.multiply(sigma, _inverse_normal_vector(u, ws.f[1][:k], ws), out=ws.f[1][:k])
    return above + int(np.count_nonzero(np.greater_equal(z, threshold, out=ws.b[0][:k])))


# --------------------------------------------------------------------------
# Public interface
# --------------------------------------------------------------------------

def portable_log(x: np.ndarray) -> np.ndarray:
    """Natural log of positive float64 values, the same bits everywhere (~2 ulp)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    with _borrow_workspace(flat.size) as ws:
        return _log_vector(flat, np.empty_like(flat), ws).reshape(x.shape)


def inverse_normal(u: np.ndarray) -> np.ndarray:
    """Standard-normal quantile of uniforms in (0, 1), vectorized.

    Inputs are clamped below at 2**-54 (the smallest value the uniform
    generator leaves unreachable anyway) so an exact 0 cannot return
    -inf.  The output has the shape of the input.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    with _borrow_workspace(flat.size) as ws:
        return _inverse_normal_vector(flat, np.empty_like(flat), ws).reshape(u.shape)


def poisson_cdf_table(lam: float) -> tuple[int, np.ndarray]:
    """Windowed Poisson CDF for sampling by inversion.

    Returns ``(k_lo, cdf)`` where ``cdf[j] = P(K <= k_lo + j)`` over a
    window lam +/- (9*sqrt(lam) + 12); the mass outside is below 2**-54
    on each side, finer than a 53-bit uniform resolves.  The pmf is built
    relative to the mode floor(lam) from the ratios p(k)/p(k-1) = lam/k,
    ``cumprod(lam/k)`` upward and ``cumprod(k/lam)`` downward (Devroye
    1986, §X.3), normalised by its tree sum and cumulated.  Each step is
    an IEEE ``*`` or ``/`` or a sequential sum, so the table carries the
    same bits on every machine.  Built once per simulation.
    """
    require_nonnegative(lam, "Poisson mean")
    if lam == 0.0:
        return 0, np.ones(1, dtype=np.float64)
    half_width = 9.0 * math.sqrt(lam) + 12.0
    k_lo = max(0, int(math.floor(lam - half_width)))
    k_hi = int(math.ceil(lam + half_width))
    mode = int(math.floor(lam))
    down = np.cumprod(np.arange(mode, k_lo, -1, dtype=np.float64) / lam)
    up = np.cumprod(lam / np.arange(mode + 1, k_hi + 1, dtype=np.float64))
    pmf = np.concatenate((down[::-1], [1.0], up))
    pmf /= _tree_sum_vector(pmf, np.empty_like(pmf))
    return k_lo, np.cumsum(pmf)


def poisson_guide_table(k_lo: int, cdf: np.ndarray, trials: int,
                        shift: float | None) -> np.ndarray:
    """Guide table of m buckets: the count ``index`` of a certified
    noise-free run, else ``base`` and ``cut`` as the rows of a ``(2, m)``
    float64 array, whose ``cut`` row holds uint64 words.  Each run's
    blocks read only the table built for it.

    m is a power of two (so ``u*m`` and ``j/m`` are exact, and the bucket
    of a word is its top bits), the smallest
    at least ``min(len(cdf), trials)``.  ``shift`` is the integer a
    noise-free run shifts its counts by, None for a run with thermal
    noise.  A noise-free run whose blocks of ``min(trials, BLOCK)``
    trials pass the certificate n * max|k - shift|**4 < 2**53 of the
    histogram path is certified; every shorter block passes it too.  For
    it m is also at least ``min(16 * len(cdf), trials // 2)``: about 16
    buckets per CDF entry on a long run, never more than one bucket per two trials, so
    the build costs at most about one binary search per trial.  A full
    block is certified up to lam of about 4 400, so the table reaches
    2**15 buckets from lam of about 3 100 on.  Of 4, 8, 16 and 32 buckets
    per entry, 16 gave the shortest total time of noise-free 1e6-trial
    simulations at lam 0.5, 10, 1 000 and 4 000: 32 was up to 1 ms a run
    faster at lam <= 10 but 0.5 to 1 ms slower at 1 000 and 4 000, and
    builds twice the table.

    Bucket j covers ``[j/m, (j+1)/m)`` and starts at
    ``g = min(searchsorted(cdf, j/m, "right"), len(cdf) - 1)``, and its
    cut is ``cdf[g]``, or inf where g is the last entry and the clamp
    alone decides.  ``base`` and ``cut`` serve the per-trial lookup:
    where the next bucket starts at most one entry later, the word x of
    u in bucket j samples ``base[j] + (x > cut[j])``, with
    ``base[j] = k_lo + g`` and ``cut[j]`` the last word whose uniform
    lies below ``cdf[g]``, so that ``x > cut[j]`` exactly when
    ``u >= cdf[g]``.  An infinite cut gives 2**64 - 1, which no word
    exceeds.  Wider buckets get a NaN base (searched instead).

    ``index[j]``, the histogram path's count offset, is g where the cut
    is at least ``(j+1)/m`` and the sentinel ``len(cdf)`` elsewhere.
    Where g is the last entry the clamp gives g; otherwise every u in the
    bucket lies at or above the entries before g (they are at most j/m)
    and below ``cdf[g]``, so the search gives g.  Either way the offset
    is exact for every float64 in the bucket, not only for the uniforms'
    grid, and only the sentinel's buckets need the search.
    """
    size = cdf.shape[0]
    exact = shift is not None and _certified(min(trials, BLOCK), k_lo, size, shift)
    fine = min(16 * size, trials // 2) if exact else 0
    m = 1 << (max(fine, min(size, trials)) - 1).bit_length()
    edges = np.arange(m + 1) / m
    start = np.minimum(np.searchsorted(cdf, edges, side="right"), size - 1)
    g = start[:-1]
    cuts = np.append(cdf[:-1], np.inf)
    if exact:
        return np.where(cuts.take(g) >= edges[1:], g, size)
    table = np.empty((2, m))
    np.add(k_lo, g, out=table[0])
    table[0][np.diff(start) > 1] = np.nan
    first = _uniform_index(cuts.take(g)).astype(np.uint64)  # >= 1: every cut is above 0
    np.bitwise_or((first - 1) << 11, 2047, out=table[1].view(np.uint64))
    return table


def block_kernels():
    """Return ``(open_block, blocked_block)``, the per-block simulator kernels.

    ``open_block(x_count, x_thermal, cdf, k_lo, guide, gaussian, lam,
    sqrt_shot, sigma, shift, threshold, ws)`` samples the open-state charge
    of one block and returns its shifted power sums ``s1..s4`` and the
    count below threshold, from the histogram exactly when ``guide`` is
    a count index (see :func:`poisson_guide_table`);
    ``blocked_block(x_thermal, sigma, threshold, ws)`` counts the
    blocked-state trials whose thermal charge reaches the threshold, by
    the uniform cut of the module docstring taken on the words: the same
    count as ``sigma * inverse_normal(u_thermal) >= threshold``, with the
    inverse normal run only on the uniforms next to the cut.  The x are
    raw uint64 words from :func:`chargelimit.rng.uniform_block` (the
    thermal ones may be empty without noise), which the kernels may
    overwrite; ``ws`` is a workspace from :func:`block_workspace`.
    """
    return _open_block, _blocked_block
