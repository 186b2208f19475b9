"""Numeric kernels: accuracy against scipy and frozen output bits."""

import hashlib
import math
import resource

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.special import ndtri
from scipy.stats import chi2
from scipy.stats import poisson as scipy_poisson

from chargelimit import ParameterError, kernels
from chargelimit.kernels import (
    LAMBDA_GAUSSIAN_CUTOFF,
    _poisson_counts,
    _Workspace,
    block_kernels,
    inverse_normal,
    poisson_cdf_table,
    poisson_guide_table,
    portable_log,
)
from chargelimit.montecarlo import Ci95, SimConfig, SimOutcome, simulate_detection
from chargelimit.rng import BLOCK, GENERATOR_ID, uniform_block


def _uniforms(x):
    """The uniforms ``(x >> 11) * 2**-53`` of raw words, as ``Generator.random``
    forms them from the same words."""
    return (x >> 11) * 2.0**-53


# ----------------------------------------------------------- basic pieces


def test_module_constants():
    assert LAMBDA_GAUSSIAN_CUTOFF == 1.0e7
    assert BLOCK == 65536
    assert GENERATOR_ID == "philox4x64-seedseq-v1"


def _log_inputs():
    """20 000 positive values spread over exp(-700)..exp(700), built by
    ldexp so that they carry the same bits on every machine."""
    rng = np.random.default_rng(7)
    return np.ldexp(rng.uniform(1.0, 2.0, size=20000), rng.integers(-1010, 1010, size=20000))


def test_portable_log_accuracy():
    x = _log_inputs()
    ours = portable_log(x)
    reference = np.array([math.log(v) for v in x])
    scale = np.maximum(1.0, np.abs(reference))
    assert np.max(np.abs(ours - reference) / scale) < 1e-15


def test_portable_log_exact_points():
    assert portable_log(np.array([1.0]))[0] == 0.0


def test_inverse_normal_accuracy():
    rng = np.random.default_rng(11)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=20000)
    u = np.concatenate([u, [1e-300, 1e-16, 0.025, 0.5 - 1e-17, 0.975, 1.0 - 1e-16]])
    ours = inverse_normal(u)
    reference = ndtri(np.maximum(u, 2.0**-54))
    mask = reference != 0.0
    assert np.max(np.abs(ours[mask] - reference[mask]) / np.abs(reference[mask])) < 5e-15
    assert abs(ours[~mask]).max(initial=0.0) < 1e-15


def test_inverse_normal_clamps_zero():
    lo = inverse_normal(np.array([0.0]))[0]
    tiny = inverse_normal(np.array([2.0**-54]))[0]
    assert lo == tiny
    assert math.isfinite(lo)


def test_inverse_normal_center_and_monotonic():
    assert inverse_normal(np.array([0.5]))[0] == 0.0
    u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    z = inverse_normal(u)
    assert np.all(np.diff(z) > 0.0)


def _around(x, k=2):
    """x and its k float64 neighbours on each side, ascending."""
    lo = hi = x
    out = [x]
    for _ in range(k):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
        out = [lo, *out, hi]
    return out


def _edge_uniforms():
    edges = [0.0, 5e-324, 1e-300, 2.0**-54, 0.5, 1.0 - 2.0**-53]
    # Branch switches: |u - 0.5| <= 0.425 (central), exp(-25) (mid/far by
    # the real log) and 0x1.e8a37a45fc300p-37, the smallest u that is
    # still "mid" through portable_log, 46 ulp below exp(-25).
    for x in (0.075, 0.925, math.exp(-25.0), float.fromhex("0x1.e8a37a45fc300p-37"),
              1.0 - math.exp(-25.0)):
        edges += _around(x)
    return np.array(edges, dtype=np.float64)


#: sha256 of inverse_normal(u).view(np.int64), frozen from the all-branch
#: implementation; any rewrite of the kernel must reproduce every bit.
FROZEN_INVERSE_NORMAL = {
    "block": "2bb32e80ba747474576be09e379d17443f69404e3046c922e757bffb66659e99",
    "edges": "0938233caf260dfe8360d3f31ba608376d8d6c968630b20573d21ed63c6b9ec1",
}


@pytest.mark.parametrize("name", sorted(FROZEN_INVERSE_NORMAL))
def test_inverse_normal_bits_frozen(name):
    u = _uniforms(uniform_block(2024, 0, 0, BLOCK)) if name == "block" else _edge_uniforms()
    digest = hashlib.sha256(inverse_normal(u).view(np.int64).tobytes()).hexdigest()
    assert digest == FROZEN_INVERSE_NORMAL[name]


def _log_edges():
    edges = [5e-324, 2.0**-1022, 2.0**-54, 1.0, 1e308, *_around(math.sqrt(0.5)), *_around(1.0)]
    return np.array(edges, dtype=np.float64)


#: sha256 of portable_log(x).view(np.int64) over _log_inputs() followed by
#: _log_edges(): subnormal, the mantissa fold at sqrt(1/2) and the exact
#: zero at 1.  FROZEN_INVERSE_NORMAL reaches the log only on tail uniforms.
FROZEN_PORTABLE_LOG = "2bb8003bb393dd3decfb9a3891060d07e9a692f3957d650aeabd061e40795d75"


def test_portable_log_bits_frozen():
    x = np.concatenate([_log_inputs(), _log_edges()])
    digest = hashlib.sha256(portable_log(x).view(np.int64).tobytes()).hexdigest()
    assert digest == FROZEN_PORTABLE_LOG


def test_repeated_portable_log_reuses_its_buffers():
    # Up to BLOCK values the public kernels borrow a block workspace from
    # the free list instead of building their own, so once one call has
    # run, the same one again touches no new pages.
    x = _uniforms(uniform_block(8, 0, 0, BLOCK))
    portable_log(x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    portable_log(x)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 64


@pytest.mark.parametrize("kernel", [portable_log, inverse_normal])
@pytest.mark.parametrize("n", [5, BLOCK, BLOCK + 1])
def test_public_kernels_give_back_the_workspace_they_borrow(kernel, n):
    kernel(np.full(n, 0.25))
    idle = list(kernels._FREE)
    x = _uniforms(uniform_block(9, 0, 0, n))
    assert np.array_equal(kernel(x), kernel(x.copy()))
    assert [id(ws) for ws in kernels._FREE] == [id(ws) for ws in idle]


@pytest.mark.parametrize("shape", [(0,), (3, 4)])
def test_inverse_normal_keeps_shape(shape):
    u = np.linspace(0.01, 0.99, math.prod(shape)).reshape(shape)
    z = inverse_normal(u)
    assert z.shape == shape
    assert np.array_equal(z.ravel(), inverse_normal(u.ravel()))


@pytest.mark.parametrize("lam", [0.5, 10.0, 1000.0, 12345.6])
def test_poisson_cdf_table_matches_scipy(lam):
    k_lo, cdf = poisson_cdf_table(lam)
    k = np.arange(k_lo, k_lo + cdf.size)
    reference = scipy_poisson.cdf(k, lam)
    # Inversion sampling cares about absolute CDF placement: a uniform is
    # compared against these values directly.  The windowed cumsum is good
    # to ~1e-11 even for a 9000-entry window.
    assert np.max(np.abs(cdf - reference)) < 1e-10
    # Around the bulk the relative error is tight too.
    bulk = reference > 1e-6
    assert np.max(np.abs(cdf[bulk] - reference[bulk]) / reference[bulk]) < 1e-9
    # The window must cover essentially all the mass on both sides: what
    # it truncates on each side is below 2**-54, finer than a uniform.
    assert cdf[-1] > 1.0 - 1e-10
    assert scipy_poisson.cdf(k_lo - 1, lam) < 2.0**-54
    assert scipy_poisson.sf(k_lo + cdf.size - 1, lam) < 2.0**-54


def _mpmath_cdf(lam, k_lo, size):
    """P(K <= k_lo + j) for j < size at 40 digits, rounded to float64."""
    with mp.workdps(40):
        lam = mpf(lam)
        acc = mpmath.gammainc(k_lo, lam, mpmath.inf, regularized=True) if k_lo else mpf(0)
        pmf = mpmath.exp(k_lo * mpmath.log(lam) - lam - mpmath.loggamma(k_lo + 1))
        out = []
        for k in range(k_lo + 1, k_lo + size + 1):
            acc += pmf
            out.append(float(acc))
            pmf = pmf * lam / k
    return np.array(out)


@pytest.mark.parametrize("lam", [0.5, 10.0, 1e3, 1e6, 9e6])
def test_poisson_cdf_table_matches_mpmath(lam):
    k_lo, cdf = poisson_cdf_table(lam)
    assert np.max(np.abs(cdf - _mpmath_cdf(lam, k_lo, cdf.size))) < 1e-13


def _python_cdf_table(lam):
    """The table's recipe in Python floats, one IEEE operation at a time."""
    half_width = 9.0 * math.sqrt(lam) + 12.0
    k_lo = max(0, math.floor(lam - half_width))
    k_hi = math.ceil(lam + half_width)
    mode = math.floor(lam)
    down, up, p = [], [], 1.0
    for k in range(mode, k_lo, -1):
        p *= k / lam
        down.append(p)
    p = 1.0
    for k in range(mode + 1, k_hi + 1):
        p *= lam / k
        up.append(p)
    pmf = [*down[::-1], 1.0, *up]
    level = pmf + [0.0] * ((1 << (len(pmf) - 1).bit_length()) - len(pmf))
    while len(level) > 1:
        level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
    cdf, acc = [], 0.0
    for p in pmf:
        acc += p / level[0]
        cdf.append(acc)
    return k_lo, cdf


@pytest.mark.parametrize("lam", [0.5, 10.0, 1e3, 12345.6, 1e6, 9e6])
def test_poisson_cdf_table_is_reproduced_by_python_floats(lam):
    k_lo, cdf = poisson_cdf_table(lam)
    expected_lo, expected = _python_cdf_table(lam)
    assert k_lo == expected_lo
    assert cdf.tolist() == expected


@pytest.mark.parametrize("lam", [0.5, 10.0, 1e3])
def test_seeded_poisson_counts_pass_chi_square(lam):
    k_lo, cdf = poisson_cdf_table(lam)
    trials = 4 * BLOCK
    guide = poisson_guide_table(k_lo, cdf, trials, None)
    counts = np.concatenate([
        _poisson_counts(uniform_block(55, 0, block, BLOCK), cdf, k_lo, guide,
                        _Workspace(BLOCK)).astype(np.int64)
        for block in range(4)
    ])
    # Bins of consecutive counts, each expecting >= 50, the two ends open.
    edges = [0]
    mass = 0.0
    for k in range(k_lo, k_lo + cdf.size):
        mass += scipy_poisson.pmf(k, lam)
        if mass * trials >= 50.0:
            edges.append(k + 1)
            mass = 0.0
    edges[-1] = k_lo + cdf.size + 1
    expected = trials * np.diff(scipy_poisson.cdf(np.array(edges) - 1, lam))
    expected[-1] += trials * scipy_poisson.sf(edges[-1] - 1, lam)
    observed = np.histogram(counts, bins=edges)[0]
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(statistic, len(expected) - 1) > 1e-3


def test_poisson_cdf_table_small_lambda_zero_bin():
    k_lo, cdf = poisson_cdf_table(10.0)
    assert k_lo == 0
    assert abs(cdf[0] - math.exp(-10.0)) / math.exp(-10.0) < 1e-13


def test_poisson_cdf_table_lambda_zero():
    k_lo, cdf = poisson_cdf_table(0.0)
    assert k_lo == 0
    assert cdf.tolist() == [1.0]


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_poisson_cdf_table_rejects_bad_mean(bad):
    with pytest.raises(ParameterError):
        poisson_cdf_table(bad)


def _guide_edge_words(cdf, m):
    """The words on both sides of every CDF value below 1 and of every
    bucket edge j/m, 0 < j <= m: for each such point p, the first and the
    last word of the first uniform at or above p and of the uniform just
    below it."""
    points = np.concatenate([cdf[cdf < 1.0], np.arange(m + 1) / m])
    j = np.ceil(points * 2.0**53).astype(np.uint64)
    grid = np.concatenate([j[j < 2**53], j[j > 0] - 1])
    return np.concatenate([grid << 11, (grid << 11) | 2047])


def test_guide_cases_cover_both_cdf_ends():
    # The hand-built [0.5, 1.0, 1.5] case below ends above 1 too.
    assert poisson_cdf_table(7.0)[1][-1] > 1.0
    assert poisson_cdf_table(10.0)[1][-1] < 1.0
    assert poisson_cdf_table(9e6)[1][-1] < 1.0


def _check_guide(k_lo, cdf, trials, shift, blocks):
    """The lookup of the table the run gets equals the clamped binary
    search on every uniform: the ``(2, m)`` table's per-trial lookup, or
    every count index short of the sentinel; returns the table and
    whether the seeded ``blocks[0]`` reach the search."""
    guide = poisson_guide_table(k_lo, cdf, trials, shift)
    m = guide.shape[-1]
    assert m & (m - 1) == 0 and m >= min(cdf.size, trials)
    assert guide.shape == (m,) if guide.dtype == np.intp else guide.shape == (2, m)
    for x in [*blocks, _guide_edge_words(cdf, m)]:
        u = _uniforms(x)
        expected = k_lo + np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        if guide.ndim == 1:
            k = guide.take((u * m).astype(np.intp))
            pure = k < cdf.size
            assert np.array_equal(k_lo + k[pure], expected[pure])
        else:
            counts = _poisson_counts(x, cdf, k_lo, guide, _Workspace(x.size))
            assert counts.dtype == np.float64
            assert np.array_equal(counts, expected.astype(np.float64))
    bucket = (_uniforms(blocks[0]) * m).astype(np.intp)
    searched = guide.take(bucket) == cdf.size if guide.ndim == 1 else np.isnan(guide[0][bucket])
    return guide, searched.any()


@pytest.mark.parametrize("lam", [0.5, 7.0, 10.0, 1e3, 9e6])
@pytest.mark.parametrize("trials", [3, 1000, 10**6])
def test_guide_lookup_equals_clamped_searchsorted(lam, trials):
    # The table of a thermal run, and of a noise-free one.
    k_lo, cdf = poisson_cdf_table(lam)
    blocks = [uniform_block(seed, 0, 0, BLOCK) for seed in (31, 32, 33)]
    for shift in (None, float(math.floor(lam))):
        _, searched = _check_guide(k_lo, cdf, trials, shift, blocks)
        assert searched  # some of the seeded uniforms take the binary-search fallback


@pytest.mark.parametrize(
    "cdf",
    [
        [1.0],
        [0.1, 0.3, 0.6, 0.8],  # distinct top entries; the clamp maps u >= 0.8 to 3
        [0.1, 0.3, 0.6],  # cdf[-1] < 3/4: the last bucket lies wholly past it
        [0.0, 0.0, 0.5, 0.5, 1.0, 1.0],  # ties, and entries on bucket edges
        [0.5, 1.0, 1.5],  # last entries above 1
    ],
)
@pytest.mark.parametrize("trials", [1, 2, 5, 1000])
def test_guide_lookup_on_hand_built_tables(cdf, trials):
    for shift in (None, 7.0):
        _check_guide(7, np.array(cdf), trials, shift, [uniform_block(34, 0, 0, 4096)])


# ----------------------------------------------------------- RNG streams


def test_uniform_block_deterministic():
    a = uniform_block(42, 0, 0, 1000)
    b = uniform_block(42, 0, 0, 1000)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint64


def test_uniform_block_streams_are_distinct():
    base = uniform_block(42, 0, 0, 1000)
    assert not np.array_equal(base, uniform_block(42, 1, 0, 1000))
    assert not np.array_equal(base, uniform_block(42, 0, 1, 1000))
    assert not np.array_equal(base, uniform_block(43, 0, 0, 1000))


def test_uniform_block_empty():
    assert uniform_block(1, 0, 0, 0).size == 0


#: 20 (seed, stream, block) keys: both simulator streams, early and far
#: blocks, and the seed range's ends.
_RAW_KEYS = [(seed, stream, block) for seed in (0, 1, 101, 2**32 + 5, 2**63, 2**64 - 1)
             for stream, block in ((0, 0), (1, 0), (0, 9))] + [(7, 1, 2**31), (2**64 - 1, 1, 15)]


@pytest.mark.parametrize("count", [BLOCK, 2 * BLOCK, 70_000 - BLOCK],
                         ids=["block", "thermal-block", "partial"])
def test_uniforms_are_the_philox_raw_stream(count):
    # A seed fixes a bit generator's raw stream and SeedSequence, and the
    # simulator reads only those words.  NumPy's policy leaves
    # ``Generator.random`` free to change between releases; the canary
    # below fails if it does, while no seeded output moves.
    for key in _RAW_KEYS:
        raw = np.random.Philox(np.random.SeedSequence(key)).random_raw(count)
        assert np.array_equal(uniform_block(*key, count), raw), key
        canary = np.random.Generator(np.random.Philox(np.random.SeedSequence(key))).random(count)
        assert np.array_equal(_uniforms(raw).view(np.uint64), canary.view(np.uint64)), key


@pytest.mark.parametrize(
    "seed,stream,block,count",
    [(-1, 0, 0, 1), (2**64, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 0, -1)],
)
def test_uniform_block_validation(seed, stream, block, count):
    with pytest.raises(ParameterError):
        uniform_block(seed, stream, block, count)


# ------------------------------------------------- open/blocked kernels


def _case(gaussian, with_thermal, n=4096, lam=100.0, seed=9):
    """Inputs for one open-block call."""
    sigma = 3.7 if with_thermal else 0.0
    if gaussian:
        k_lo, cdf, guide = 0, np.empty(0, dtype=np.float64), None
    else:
        k_lo, cdf = poisson_cdf_table(lam)
        guide = poisson_guide_table(k_lo, cdf, n, None if with_thermal else lam)
    x_count = uniform_block(seed, 0, 0, n)
    x_thermal = uniform_block(seed, 1, 0, n) if with_thermal else np.empty(0, dtype=np.uint64)
    return (
        x_count,
        x_thermal,
        cdf,
        k_lo,
        guide,
        gaussian,
        lam,
        math.sqrt(lam),
        sigma,
        lam,
        0.5,
    )


def _reference_charges(args):
    """Recompute the per-trial charges with plain numpy + public helpers."""
    x_count, x_thermal, cdf, k_lo, _, gaussian, lam, sqrt_shot, sigma, _, _ = args
    u_count, u_thermal = _uniforms(x_count), _uniforms(x_thermal)
    if gaussian:
        q = lam + sqrt_shot * inverse_normal(u_count)
    else:
        idx = np.minimum(np.searchsorted(cdf, u_count, side="right"), cdf.size - 1)
        q = (k_lo + idx).astype(np.float64)
    if sigma > 0.0:
        q = q + sigma * inverse_normal(u_thermal)
    return q


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("with_thermal", [False, True])
def test_open_block_against_reference(gaussian, with_thermal):
    args = _case(gaussian, with_thermal)
    open_block, _ = block_kernels()
    # the kernel may write uniforms over its words, so it gets copies
    s1, s2, s3, s4, below = open_block(args[0].copy(), args[1].copy(), *args[2:],
                                       _Workspace(args[0].size))
    q = _reference_charges(args)
    d = q - args[9]  # shifted by lam
    assert abs(s1 - math.fsum(d)) <= 1e-9 * max(1.0, abs(math.fsum(d)))
    assert abs(s2 - math.fsum(d * d)) <= 1e-9 * math.fsum(d * d)
    assert abs(s3 - math.fsum(d**3)) <= 1e-8 * max(1.0, abs(math.fsum(d**3)))
    assert abs(s4 - math.fsum(d**4)) <= 1e-9 * math.fsum(d**4)
    assert below == int(np.count_nonzero(q < args[10]))


def test_blocked_block_against_reference():
    u = uniform_block(21, 1, 0, 8192)
    sigma, threshold = 0.4, 0.5
    _, blocked_block = block_kernels()
    count = blocked_block(u, sigma, threshold, _Workspace(u.size))
    expected = int(np.count_nonzero(sigma * inverse_normal(_uniforms(u)) >= threshold))
    assert count == expected
    assert 0 < count < u.size  # threshold at 1.25 sigma: both outcomes occur


def _check_blocked(u, sigma, threshold):
    """The cut count of the words ``u`` equals the full-kernel count;
    returns it."""
    _, blocked_block = block_kernels()
    count = blocked_block(u, sigma, threshold, _Workspace(BLOCK))
    assert count == int(np.count_nonzero(sigma * inverse_normal(_uniforms(u)) >= threshold))
    return count


def test_blocked_block_at_sampled_thresholds_and_their_neighbours():
    # A threshold of exactly sigma * z[j] puts u[j] on the cut; without
    # the cut's margins about one such count in ten comes out wrong.
    u = uniform_block(22, 1, 0, BLOCK)
    z = inverse_normal(_uniforms(u))
    _, blocked_block = block_kernels()
    ws = _Workspace(BLOCK)
    for sigma in (0.4, 3.0):
        charge = sigma * z
        for j in range(0, BLOCK, 64):
            exact = float(charge[j])
            near = (np.nextafter(exact, -np.inf), exact, np.nextafter(exact, np.inf))
            for threshold in near if j % 1024 == 0 else (exact,):
                threshold = max(float(threshold), 0.0)
                expected = int(np.count_nonzero(charge >= threshold))
                assert blocked_block(u, sigma, threshold, ws) == expected


@pytest.mark.parametrize("threshold", [-1e308, -3.4, 0.0, 3.4, 1e308])
def test_blocked_block_at_zero_and_beyond_every_uniform(threshold):
    # t = threshold / sigma is -inf and inf, which the cut clamps to
    # -40 and 40, +-8.5 (past the +-8.3 that the uniform 0, clamped to
    # 2**-54, and 1 - 2**-53 map to) and 0.  The words are the first
    # and last of the uniforms 0, 2**-53, 0.5 and 1 - 2**-53.
    ends = [0, 2047, 2048, 2**63, 2**63 + 2047, 2**64 - 2048, 2**64 - 1]
    u = np.concatenate([uniform_block(23, 1, 0, BLOCK - len(ends)),
                        np.array(ends, dtype=np.uint64)])
    assert (_check_blocked(u, 0.4, threshold) == 0) == (threshold > 0.0)


def test_blocked_block_on_a_partial_block():
    u = uniform_block(24, 1, 3, 1001)
    assert 0 < _check_blocked(u, 0.4, 0.1) < u.size


@pytest.mark.parametrize("sigma", [1e-3, 0.05, 1.0, 37.0, 1e3])
def test_blocked_block_over_sigma(sigma):
    u = uniform_block(25, 1, 0, BLOCK)
    for ratio in (0.0, 0.25, 1.0, 2.5, 4.0, 6.0):
        _check_blocked(u, sigma, ratio * sigma)


# ------------------------------------------------------- word-domain cuts


_K = 5 * 2.0**-53


@pytest.mark.parametrize("p, first", [
    (-1.0, 0), (-0.0, 0), (0.0, 0), (2.0**-54, 2048),
    (np.nextafter(_K, 0.0), 5 << 11), (_K, 5 << 11), (np.nextafter(_K, 1.0), 6 << 11),
    (np.nextafter(0.5, 0.0), 2**63), (0.5, 2**63), (np.nextafter(0.5, 1.0), 2**63 + 2048),
    (1.0 - 2.0**-53, 2**64 - 2048), (1.0, 2**64), (1.5, 2**64), (math.inf, 2**64),
])
def test_word_thresholds_at_their_edges(p, first):
    # The first word whose uniform reaches p, 2**64 where none does: the
    # cut of the blocked kernel, and one past the guide table's cut word.
    assert int(kernels._uniform_index(p)) << 11 == first
    if first < 2**64:
        assert _uniforms(np.array([first], dtype=np.uint64))[0] >= p
    if first > 0:
        assert _uniforms(np.array([first - 1], dtype=np.uint64))[0] < p


def test_guide_cut_words_at_their_edges():
    # The cut of bucket 0 of [0, 1/4) is 2**-54, which only the uniforms
    # from 2**-53 on reach; bucket 1's lies one float below 3/8, between
    # two uniforms, so 3/8 is the first to reach it; bucket 2's is 3/4,
    # itself a uniform; and the last bucket's is the clamp's inf.
    cdf = np.array([2.0**-54, np.nextafter(0.375, 0.0), 0.75, 1.0])
    cut = poisson_guide_table(0, cdf, 4, None)[1].view(np.uint64)
    assert cut.tolist() == [2047, (3 << 61) - 1, (3 << 62) - 1, 2**64 - 1]


#: (lam, shift, sigma) of each path of the open kernel: a noise-free
#: run's histogram, the base/cut lookup without and with wide buckets,
#: thermal noise and the Gaussian counts.
_OPEN_PATHS = {"histogram": (10.0, 10.0, 0.0), "base-cut": (10.0, None, 0.0),
               "base-cut-wide": (9e6, None, 0.0), "thermal": (10.0, None, 3.7),
               "gaussian": (1e8, None, 0.0)}


@pytest.mark.parametrize("path", [*_OPEN_PATHS, "blocked"])
def test_the_low_11_bits_of_a_word_change_no_result(path):
    # A word's uniform is its top 53 bits, so the kernels must give the
    # same result whether its low 11 bits are all clear or random.
    top = uniform_block(71, 0, 0, 2 * BLOCK) & ~np.uint64(2047)
    words = {"clear": top, "random": top | (uniform_block(72, 0, 0, 2 * BLOCK) & 2047)}
    open_block, blocked_block = block_kernels()
    if path == "blocked":
        # thresholds at sampled charges, so that words lie on the cut
        z = inverse_normal(_uniforms(top[:BLOCK]))
        results = {key: [blocked_block(x[:BLOCK], 0.4, max(0.4 * float(z[j]), 0.0),
                                       _Workspace(BLOCK)) for j in range(0, BLOCK, 4096)]
                   for key, x in words.items()}
    else:
        lam, shift, sigma = _OPEN_PATHS[path]
        gaussian = lam > LAMBDA_GAUSSIAN_CUTOFF
        k_lo, cdf = (0, np.empty(0)) if gaussian else poisson_cdf_table(lam)
        guide = None if gaussian else poisson_guide_table(k_lo, cdf, BLOCK, shift)
        results = {key: open_block(x[:BLOCK].copy(), x[BLOCK:].copy() if sigma else x[:0], cdf,
                                   k_lo, guide, gaussian, lam, math.sqrt(lam), sigma,
                                   math.floor(lam), 0.5, _Workspace(BLOCK))
                   for key, x in words.items()}
    assert results["clear"] == results["random"]


# ------------------------------------------- exact moment sums at T = 0


def _exact_open_block(u, k_lo, cdf, shift, threshold):
    """Python-int power sums of (k - shift), converted to float once, and
    the count of k below threshold, for the counts k of uniforms u."""
    counts = (k_lo + np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)).tolist()
    v = [k - int(shift) for k in counts]
    sums = tuple(float(sum(x**p for x in v)) for p in (1, 2, 3, 4))
    return (*sums, sum(k < threshold for k in counts))


@pytest.mark.parametrize("n", [1, 3, 4464, BLOCK])
@pytest.mark.parametrize("lam", [0.0, 0.5, 7.0, 10.0, 1e3, 4e3])
def test_noise_free_poisson_sums_are_exact(lam, n):
    # With every count an integer k and n * max|k - shift|**4 < 2**53 (up
    # to lam = 4e3 at a full block), every partial sum of (k - shift)**p
    # is an integer below 2**53, so the sums must be the exact integers,
    # bit for bit, whatever order they are added in.
    k_lo, cdf = poisson_cdf_table(lam)
    shift = float(math.floor(lam))  # as simulate_detection shifts a Poisson run
    width = max(abs(k_lo - shift), abs(k_lo + cdf.size - 1 - shift))
    assert n * width**4 < 2**53
    guide = poisson_guide_table(k_lo, cdf, n, shift)
    u = uniform_block(31, 0, int(lam), n)
    open_block, _ = block_kernels()
    for threshold in (0.0, 0.5, 3.5, 1e4):
        with kernels.block_workspace() as ws:
            got = open_block(u, np.empty(0, dtype=np.uint64), cdf, k_lo, guide, False, lam,
                             math.sqrt(lam), 0.0, shift, threshold, ws)
        expected = _exact_open_block(_uniforms(u), k_lo, cdf, shift, threshold)
        assert [x.hex() for x in got[:4]] == [x.hex() for x in expected[:4]]
        assert got[4] == expected[4]


def _histogram_path_is_exact(lam, trials, index=None):
    """Whether the histogram path gives, on seeded blocks, a partial block
    and the count index's edge uniforms, the exact integer sums of the
    clamped binary search's counts."""
    k_lo, cdf = poisson_cdf_table(lam)
    shift = math.floor(lam)
    if index is None:
        index = poisson_guide_table(k_lo, cdf, trials, float(shift))
    assert index.shape == (index.size,)  # the certificate holds for every case here
    n = min(trials, BLOCK)
    blocks = [uniform_block(seed, 0, 3, n) for seed in (41, 42, 43)]
    blocks.append(uniform_block(44, 0, 0, 4464))
    blocks += np.array_split(_guide_edge_words(cdf, index.size), 8)
    v = [k_lo + j - shift for j in range(cdf.size)]
    for u in blocks:
        counts = np.bincount(np.minimum(np.searchsorted(cdf, _uniforms(u), side="right"),
                                        cdf.size - 1), minlength=cdf.size).tolist()
        sums = [float(sum(c * x**p for c, x in zip(counts, v))) for p in (1, 2, 3, 4)]
        for threshold in (0.5, lam):
            below = sum(c for j, c in enumerate(counts) if k_lo + j < threshold)
            with kernels.block_workspace() as ws:
                got = kernels._histogram_sums(u, cdf, k_lo, index, float(shift), threshold, ws)
            if got != (*sums, below) or not all(isinstance(x, float) for x in got[:4]):
                return False
    return True


@pytest.mark.parametrize("trials", [1000, 70_000, 10**6])
@pytest.mark.parametrize("lam", [0.01, 0.5, 3.7, 7.0, 10.0, 100.0, 1e3, 4e3])
def test_histogram_path_equals_clamped_searchsorted(lam, trials):
    assert _histogram_path_is_exact(lam, trials)


@pytest.mark.parametrize("lam", [0.5, 10.0, 1e3])
def test_histogram_check_catches_a_wrong_count_index(lam):
    # A bucket that holds a CDF entry, given that bucket's first count
    # instead of the sentinel, miscounts the uniforms at and above the entry.
    k_lo, cdf = poisson_cdf_table(lam)
    index = poisson_guide_table(k_lo, cdf, 10**6, float(math.floor(lam)))
    j = int(np.flatnonzero(index == cdf.size)[0])
    index[j] = np.searchsorted(cdf, j / index.size, side="right")
    assert not _histogram_path_is_exact(lam, 10**6, index)


#: The noise-free runs of the size table whose full blocks are past the
#: certificate.
_UNCERTIFIED = {(5e3, 10**6), (1e4, 10**6), (1e5, 10**6), (9e6, 70_000), (9e6, 10**6)}


@pytest.mark.parametrize("lam, trials, noise_free, buckets", [
    (10.0, 10**6, True, 1024), (10.0, 10**6, False, 64), (1e3, 10**6, True, 16384),
    (1e3, 10**6, False, 1024), (1e3, 1000, True, 1024), (4e3, 10**6, True, 32768),
    # A full block at lam = 5e3 is past the certificate; a 30 000-trial run is not.
    (5e3, 10**6, True, 2048), (5e3, 30_000, True, 16384), (1e4, 10**6, True, 2048),
    (1e5, 10**6, True, 8192), (9e6, 70_000, True, 65536), (9e6, 10**6, True, 65536),
])
def test_guide_table_size(lam, trials, noise_free, buckets):
    # A certified noise-free run gets the count index, 8 bytes a bucket;
    # a thermal or uncertified run gets base and cut, 16 bytes a bucket.
    k_lo, cdf = poisson_cdf_table(lam)
    shift = float(math.floor(lam)) if noise_free else None
    table = poisson_guide_table(k_lo, cdf, trials, shift)
    if noise_free and (lam, trials) not in _UNCERTIFIED:
        assert table.shape == (buckets,) and table.dtype == np.intp
    else:
        assert table.shape == (2, buckets) and table.dtype == np.float64


def _count_tree_sums(monkeypatch):
    """A list that gets one entry per ``_tree_sum_vector`` call."""
    calls, tree = [], kernels._tree_sum_vector
    monkeypatch.setattr(kernels, "_tree_sum_vector",
                        lambda values, scratch: calls.append(values.size) or tree(values, scratch))
    return calls


@pytest.mark.parametrize("lam, sigma, tree_sums", [(10.0, 0.0, 0), (9e6, 0.0, 4), (10.0, 3.7, 4)])
def test_which_blocks_take_the_histogram(monkeypatch, lam, sigma, tree_sums):
    # Noise-free blocks whose sums are certified exact take the histogram;
    # lam = 9e6 is past the certificate and thermal charges are not whole,
    # so both keep the four tree sums.
    k_lo, cdf = poisson_cdf_table(lam)
    guide = poisson_guide_table(k_lo, cdf, BLOCK, None if sigma else float(math.floor(lam)))
    u_thermal = uniform_block(32, 1, 0, BLOCK) if sigma else np.empty(0)
    open_block, _ = block_kernels()
    calls = _count_tree_sums(monkeypatch)
    with kernels.block_workspace() as ws:
        open_block(uniform_block(32, 0, 0, BLOCK), u_thermal, cdf, k_lo, guide, False, lam,
                   math.sqrt(lam), sigma, float(math.floor(lam)), 0.5, ws)
    assert len(calls) == tree_sums


def test_an_uncertified_run_takes_the_tree_sums_on_every_block(monkeypatch):
    # At lam = 5e3, n * max|k - shift|**4 passes 2**53 on a full block, so
    # the run gets base and cut, and each of its four blocks takes four
    # tree sums: also the 3 392-trial last block of 200 000 trials, which
    # alone would pass the certificate.  Its tree sums are then exact, so
    # the outcome is the one a histogram of that block gave.
    calls = _count_tree_sums(monkeypatch)
    cfg = SimConfig(on_current=5e3 * 1.602176634e-19 * 1e5, bandwidth=5e4, trials=200_000,
                    seed=33)
    outcome = simulate_detection(cfg)
    cdf_size = calls[0]  # poisson_cdf_table normalises its pmf by a tree sum
    assert calls == [cdf_size] + [BLOCK] * 12 + [200_000 - 3 * BLOCK] * 4
    assert simulate_detection(cfg, workers=2) == outcome == SimOutcome(
        empirical_snr=70.71659105560003, analytic_snr=70.71067811865476, err_open=0.0,
        err_blocked=0.0, balanced_err=0.0, snr_stderr=0.11185718313089263,
        ci95=Ci95(snr=0.21923605034865085, err_open=0.0, err_blocked=0.0),
        mean_charge=4999.91115, std_charge=70.70350925243105, expected_count=5000.0,
        trials=200000, threshold=0.5, gaussian_fallback=False, seed_used=33,
        generator="philox4x64-seedseq-v1")
