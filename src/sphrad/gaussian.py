"""Gaussian model, chi radial law, and deterministic unit-sphere sampling.

A Gaussian vector is decomposed around its mean as ``mean + r * L @ v`` with
``L`` the lower Cholesky factor of the covariance, ``v`` uniform on the unit
sphere and ``r`` following the chi law with ``m`` degrees of freedom.  The
radial weight is the chi density; interval-valued weights that arise for
discontinuous densities are out of scope (all densities supported here are
continuous, which collapses that interval to a single value).
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import special

from .errors import NotPositiveDefinite, NumericalError

#: Default scramble seed for direction sets.  Fixed once for the package:
#: quasi Monte Carlo error is deterministic per scramble, and this seed was
#: measured to give comfortable margin on the analytic reference fixtures.
DEFAULT_SEED = 12

#: Radial mass ignored beyond the ray cutoff, per direction.
TAIL_MASS = 1e-12

# The chi cdf of dimension m <= _SUM_MAX_DIM is a finite sum of about m/2
# terms.  Its cost grows with m and gammainc's does not, so its edge shrinks
# (BENCH_13.json: 7-9x at m = 8, 1.4-2x at 256), and from m = 296 up
# y^(m/2) in the lower sum overflows.
_SUM_MAX_DIM = 256
# The sum caps radii (inf and NaN too) here.  The upper tail is below 1e-150
# there for every m <= _SUM_MAX_DIM, so the cdf is 1 exactly, and e^(-r^2/2)
# is still a normal double: subnormal results take a slow path in exp.
_R_CAP = 37.0
# Below this quantile 1 - (upper tail) loses relative accuracy, and the
# lower tail is summed directly.
_P_LOW = 1e-2
# The inverse's root already meets the cdf bound for every m from 1 to 300.
# Near r_max one ulp moves the cdf by about 1e-26, so a mismatch is an
# error, not a loop of 1e10 ulp steps.
_MAX_NUDGES = 8

# Scrambled Sobol points as scipy.stats.qmc.Sobol(d, scramble=True, seed=s)
# draws them, bit for bit: 30-bit digits, Joe & Kuo's direction numbers for
# up to 21,201 dimensions, read from the table scipy ships.
_SOBOL_BITS = 30
_SOBOL_MAX_DIM = 21201
_SOBOL_TABLE = os.path.join(os.path.dirname(scipy.__file__), "stats",
                            "_sobol_direction_numbers.npz")


class SphereMethod(str, enum.Enum):
    MONTE_CARLO = "mc"
    QMC = "qmc"


@dataclass(frozen=True)
class GaussianModel:
    """A nondegenerate Gaussian law on R^m.

    ``factor_L`` is lower triangular with ``L @ L.T == covariance`` up to
    1e-10 * (1 + max|covariance|).
    """

    mean: np.ndarray
    covariance: np.ndarray
    factor_L: np.ndarray
    dim: int


def build_model(mean, covariance) -> GaussianModel:
    """Validate and factor a Gaussian model.

    Raises ``ValueError`` on a non-finite entry and :class:`NotPositiveDefinite`
    when the Cholesky factorization fails (a pivot is not strictly positive),
    which signals an invalid covariance assembly.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(covariance, dtype=float)
    m = mean.shape[0]
    if cov.shape != (m, m):
        raise ValueError(f"covariance shape {cov.shape} does not match mean length {m}")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("mean and covariance must be finite")
    scale = 1.0 + np.abs(cov).max()
    if np.abs(cov - cov.T).max() > 1e-10 * scale:
        raise ValueError("covariance is not symmetric within 1e-10")
    cov = 0.5 * (cov + cov.T)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc
    if np.abs(L @ L.T - cov).max() > 1e-10 * scale:
        raise NotPositiveDefinite("Cholesky reconstruction error exceeds tolerance")
    return GaussianModel(mean=mean, covariance=cov, factor_L=L, dim=m)


@functools.cache
def chi_cutoff(m):
    """The ray cutoff of the chi law with ``m`` degrees of freedom: its
    quantile of ``1 - TAIL_MASS``, nudged up until :func:`chi_cdf` itself
    reaches ``1 - TAIL_MASS`` there."""
    if m < 1:
        raise ValueError("m must be >= 1")
    q = 1.0 - TAIL_MASS
    r = float(np.sqrt(2.0 * special.gammaincinv(m / 2.0, q)))
    for _ in range(_MAX_NUDGES):
        if _chi_cdf(m, np.array([r]))[0] >= q:
            return r
        r = float(np.nextafter(r, np.inf))
    raise NumericalError(f"chi law of dim {m}: the cdf stays below 1 - {TAIL_MASS} "
                         f"{_MAX_NUDGES} ulps above the quantile")


@functools.cache
def _tail_sums(m):
    """Horner coefficients, highest degree first, of the two chi cdf sums of
    dimension ``m``, with the lower sum's range ``y < y_low`` and prefactor."""
    a, n = m / 2.0, m // 2
    upper = np.cumprod([1.0] + [1.0 / (k + a - n) for k in range(1, n)])[:n]
    y_low = float(special.gammaincinv(a, _P_LOW))
    lower, term = [1.0], 1.0
    while term > 1e-17:                 # terms fall geometrically: the rest is smaller
        term *= y_low / (a + len(lower))
        lower.append(lower[-1] / (a + len(lower)))
    return upper[::-1], np.array(lower[::-1]), y_low, 1.0 / math.gamma(a + 1.0)


def _horner(coef, y):
    """``sum_k coef[-1 - k] * y^k`` as a new array."""
    s = np.full(y.shape, coef[0])
    for c in coef[1:]:
        s *= y
        s += c
    return s


def _chi_cdf(m, r):
    """The chi cdf of dimension ``m`` at the radii ``r``, a 1-d array with no
    negative entry; NaN and inf give 1."""
    if m > _SUM_MAX_DIM:
        finite = np.isfinite(r)
        rr = np.where(finite, r, 0.0)
        return np.where(finite, special.gammainc(m / 2.0, rr * rr / 2.0), 1.0)
    upper, lower, y_low, scale = _tail_sums(m)
    y = np.fmin(r, _R_CAP)
    y *= y
    y *= 0.5
    # Upper tail Q = 1 - cdf (DLMF 8.4): e^-y sum_{k<n} y^k / k! for m = 2n,
    # and erfc(sqrt y) + e^-y sqrt(y) sum_{k<n} y^k / Gamma(k + 3/2) for
    # m = 2n + 1.  Every term is positive.
    q = _horner(upper, y) if upper.size else np.zeros(y.shape)
    t = np.negative(y)
    q *= np.exp(t, out=t)
    if m % 2:
        q *= np.sqrt(y, out=t)
        q *= 2.0 / math.sqrt(math.pi)
        q += special.erfc(t, out=t)
    del t
    cdf = np.subtract(1.0, q, out=q)
    # Lower tail (DLMF 8.7): e^-y y^a / Gamma(a + 1) sum_k y^k / ((a+1)...(a+k)).
    low = np.flatnonzero(y < y_low)
    if low.size:
        y = y[low]
        p = _horner(lower, y)
        p *= np.exp(-y)
        p *= y ** (m / 2.0)
        p *= scale
        cdf[low] = p
    return cdf


def chi_cdf(m, r):
    """P[R <= r] for the chi law with ``m`` degrees of freedom, the radial
    part of a standard Gaussian vector in R^m; accepts scalars or arrays,
    with cdf(inf) = 1.  A negative or NaN radius raises ``ValueError``.

    The cdf is the regularized incomplete gamma ``P(m/2, r^2/2)``, whose
    shape is an integer or a half-integer.  Up to dimension 256 it is a sum
    of positive terms in ``y = r^2/2``: 1 minus the upper tail, which has
    m // 2 terms (plus ``erfc`` for odd m), and below the cdf's 1e-2
    quantile the lower tail's power series, which keeps the relative error
    small there.  Against ``scipy.special.gammainc`` the absolute error is
    below 1e-14, and the relative error below 1e-12 where the cdf is below
    1/2.  Above dimension 256 the sum's edge over ``gammainc`` shrinks
    towards none, and from 296 up it overflows, so the cdf is ``gammainc``
    itself.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():                          # NaN >= 0 is False: NaN raises too
        raise ValueError("r must be nonnegative, not NaN")
    out = _chi_cdf(m, r.reshape(-1))
    return out.reshape(r.shape) if r.ndim else float(out[0])


def chi_pdf(m, r):
    """Density 2^(1-m/2) r^(m-1) exp(-r^2/2) / Gamma(m/2), zero at infinity;
    a negative or NaN radius raises ``ValueError``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():                          # NaN >= 0 is False: NaN raises too
        raise ValueError("r must be nonnegative, not NaN")
    pos = np.isfinite(r) & (r > 0)
    rr = np.where(pos, r, 1.0)
    log_pdf = (
        (1.0 - m / 2.0) * np.log(2.0)
        - special.gammaln(m / 2.0)
        + (m - 1.0) * np.log(rr)
        - rr * rr / 2.0
    )
    out = np.where(pos, np.exp(log_pdf), 0.0)
    if m == 1:
        out = np.where(np.isfinite(r) & (r == 0), np.sqrt(2.0 / np.pi), out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DirectionSet:
    """Unit vectors on S^(m-1) with a reproducible construction; each
    direction weighs 1/n.

    Identical ``(seed, method, n, m)`` reproduce bit-identical directions.
    """

    directions: np.ndarray
    seed: int
    method: SphereMethod

    @property
    def n(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def _normalize_rows(g: np.ndarray, out=None) -> np.ndarray:
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("degenerate zero draw while sampling the sphere")
    return np.divide(g, norms, out=out)


def _gaussian_block_mc(m: int, k: int, seed: int) -> np.ndarray:
    # Philox is counter based, so the stream is reproducible and can be
    # split deterministically if sampling is ever parallelized.
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((k, m))


@functools.cache
def _sobol_directions(m):
    """The Sobol direction numbers of the first ``m`` dimensions, (m, 30)
    uint32 and read-only: row d, column j is ``v_dj 2^(29 - j)``.

    Row 0 is all ones; row d >= 1 starts with the table's initial numbers
    and follows the recurrence of its primitive polynomial of degree ``s``:
    ``v_j = v_(j-s) ^ (v_(j-s) << s) ^ XOR_k a_k (v_(j-k) << k)``, the
    ``a_k`` its inner coefficients (Joe & Kuo 2008)."""
    with np.load(_SOBOL_TABLE) as table:     # copies of m rows; the table is not kept
        poly, vinit = table["poly"][:m].copy(), table["vinit"][:m].copy()
    deg = np.frexp(poly)[1] - 1                          # 2^deg <= poly < 2^(deg + 1)
    v = np.zeros((m, _SOBOL_BITS), dtype=np.int64)
    v[:, :vinit.shape[1]] = vinit                        # zero beyond each row's degree
    v[0] = 1
    k = np.arange(1, deg.max() + 1)
    coef = (k <= deg[:, None]) & ((poly[:, None] >> np.maximum(deg[:, None] - k, 0)) % 2 == 1)
    rows = np.arange(m)
    for j in range(1, _SOBOL_BITS):
        grow = (deg > 0) & (deg <= j)                    # row 0 has degree 0
        new = v[rows, np.where(grow, j - deg, 0)]
        for kk in k[k <= j]:
            new ^= np.where(coef[:, kk - 1], v[:, j - kk] << kk, 0)
        v[:, j] = np.where(grow, new, v[:, j])
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1)
    v = v.astype(np.uint32)
    v.flags.writeable = False
    return v


def _sobol(m, k, seed):
    """The first ``k`` points of a scrambled Sobol sequence in [0, 1)^m.

    The scramble is Matousek's linear matrix scramble plus a digital shift,
    drawn from ``np.random.default_rng(seed)``: per dimension a random lower
    triangular GF(2) matrix with unit diagonal multiplies the bits of every
    direction number.  Point 0 is the shift; point i XORs into point i - 1
    the direction number at the lowest zero bit of i - 1 (Gray code order).
    """
    if m > _SOBOL_MAX_DIM:
        raise ValueError(f"QMC sampling supports at most {_SOBOL_MAX_DIM} dimensions, got {m}")
    if k > 2 ** _SOBOL_BITS:
        raise ValueError(f"QMC sampling draws at most 2**{_SOBOL_BITS} points, got {k}")
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(m, bits), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(bits, dtype=np.uint32))
    lower = np.tril(rng.integers(2, size=(m, bits, bits), dtype=np.uint32)).astype(float)
    lower[:, range(bits), range(bits)] = 1.0
    # Bit 29 - i of each direction number, times the matrix: the sums are at
    # most 30, so float products are exact, and their parities are the bits
    # 29 - p of the scrambled number.
    desc = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    digits = (_sobol_directions(m)[:, :, None] >> desc) & 1
    parity = np.matmul(digits.astype(float), lower.transpose(0, 2, 1)).astype(np.uint32) & 1
    scrambled = (parity << desc).sum(axis=2, dtype=np.uint32)
    # In Gray code order point 2^j + t is point 2^j - 1 - t with direction
    # number j XORed in, so each pass doubles the points drawn.
    q = np.empty((k, m), dtype=np.uint32)
    q[0] = shift
    size, j = 1, 0
    while size < k:
        step = min(size, k - size)
        np.bitwise_xor(q[size - 1::-1][:step], scrambled[:, j], out=q[size:size + step])
        size, j = size + step, j + 1
    return q * 2.0 ** -bits


def _gaussian_block_qmc(m: int, k: int, seed: int) -> np.ndarray:
    u = _sobol(m, k, seed)              # at most 1 - 2^-30: only 0 is clipped
    np.maximum(u, 1e-16, out=u)
    return special.ndtri(u, out=u)


def sample_sphere(m: int, n: int, seed: int = DEFAULT_SEED,
                  method: SphereMethod = SphereMethod.QMC) -> DirectionSet:
    """Sample ``n`` unit directions in R^m.

    Monte Carlo normalizes standard Gaussian draws from a counter-based
    generator.  QMC maps scrambled Sobol points through the inverse normal
    transform and normalizes; the points are those of
    ``scipy.stats.qmc.Sobol(d=m, scramble=True, seed=seed)``, bit for bit,
    generated here in numpy (see ``_sobol``), so QMC allows m <= 21,201.
    When ``n`` is even the directions come in antithetic pairs ``(v, -v)``,
    from ``n / 2`` points.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    method = SphereMethod(method)
    block = _gaussian_block_mc if method is SphereMethod.MONTE_CARLO else _gaussian_block_qmc
    if n % 2 == 0:
        dirs = np.empty((n, m))
        np.negative(_normalize_rows(block(m, n // 2, seed), out=dirs[0::2]), out=dirs[1::2])
    else:
        dirs = _normalize_rows(block(m, n, seed))
    return DirectionSet(directions=dirs, seed=int(seed), method=method)
