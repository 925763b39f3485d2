"""Power/time prediction for unobserved configurations.

The model treats each application as one row of an applications x
configurations matrix generated by a latent-factor Gaussian:

    y_i = W z_i + mu + eps,   z_i ~ N(0, I_K),   eps ~ N(0, sigma^2 I)

Offline rows (the training set) are fully observed; the target application
contributes only its sampled cells.  Power and time are both positive and
span decades, so each is completed the same way on its logarithm and
mapped back through ``exp``.  Fitting proceeds in two stages per quantity:

1. a minimum-norm least-squares fit of the sampled cells on a full
   quadratic basis of the unified coordinates fills in a dense initial row;
2. parameter-expanded expectation-maximization (PX-EM) refines W, mu and
   sigma^2 over the training rows plus the target row, with the latent
   vectors as the only missing data: the target row enters through its
   sampled cells alone, and its unsampled cells are never imputed.
   Parameters are initialized from the stage-1 completion: the PPCA fit of
   the training rows stacked with that row's projection onto their
   principal subspace, computed in the coordinates of the training rows'
   own span.  The E-step conditions the target's latent vector on its
   sampled cells only, so exact low-rank structure is recovered exactly.

On the prediction path the rank K of each quantity's fit is chosen from
the training rows by held-out-row completion error (``select_latent_dim``),
with ``MAX_LATENT_DIM`` as its upper bound.  Columns are centred on the
training rows' mean before EM and restored after, not scaled: a change of
units shifts a log column, which centring absorbs.  Sampled cells always
pass through unchanged.  The log power and log time training rows are
centred and factored together, as one stacked block (``_block``): one
centring, one thin QR and one SVD of the row-space coordinates serve both
quantities.  That
SVD is the spectrum of both the rank choice and EM's start: each held-out
fit of the rank choice is a rank-one downdate of it, so the choice for both
quantities adds one batched ``eigvalsh`` of the held-out spectra and no
eigendecomposition of its own, and both quantities' EM starts are taken
from their slices of the block by one stacked call.  The rank choice also
takes each stacked set's own sampled cells, so ``evaluation.evaluate``
prepares the blocks of several applications' training views at once and
picks all their ranks in one call, every set with the bits of its own
call.

``em_fit`` takes leading axes too: ``evaluation.evaluate`` runs every EM
fit of one trial's pool in one call, as stacks of the fits that share a
rank, each fit leaving its stack when it converges.  A stacked fit runs
only in the columns its iterates can reach: its p sampled cells and an
orthonormal basis of the unsampled part of its training rows' span, at
most p + r columns instead of D.  EM starts in that span, and the M-step
regresses each unsampled column on the training rows alone, so the mean
and loadings never leave it; D still counts in sigma^2 and in the
log-likelihood, and the fit is mapped back to the D columns once.  Each
prediction then takes its finished fits (``Prepared``).  A 2-D call, as
on the single-request path, fits in the D columns themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .dataset import (
    SamplePlan,
    SampleSet,
    TrainingMatrix,
    mask_application,
    require_measured,
    target_samples,
)
from .energy import total_energy_row
from .errors import DataFormatError, EstimatorError, InsufficientSamplesError
from .platforms import PlatformKind, PlatformSpec

SIGMA2_FLOOR = 1e-12
MAX_LATENT_DIM = 5   # upper bound on the rank select_latent_dim picks
_LOG_2PI = float(np.log(2.0 * np.pi))
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_LOG_MAX = float(np.log(np.finfo(float).max))   # the largest log exp maps to a float
_QR_SETS = 3   # stacked fits per QR call when em_fit compresses their columns


@dataclass(frozen=True)
class EstimatorParams:
    """The rank K of one fit by ``em_fit`` or ``complete_row``.

    ``latent_dim`` is the one setting.  Every fit shares the constants
    ``max_iters``, a safety bound on EM iterations, and ``tol``, the
    relative log-likelihood change that stops them.  The prediction path
    takes no settings: ``predict_new_app`` fits each quantity at the rank
    ``select_latent_dim`` picks, at most ``MAX_LATENT_DIM``.
    """

    latent_dim: int = MAX_LATENT_DIM
    max_iters: ClassVar[int] = 500
    tol: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")


@dataclass
class EstimatorState:
    """Fitted factor-model parameters, in the training rows' centred columns."""

    loadings: np.ndarray          # (n_configs, K)
    mean: np.ndarray              # (n_configs,)
    noise_var: float
    ll_history: np.ndarray
    n_iters: int
    converged: bool
    sigma2_floored: bool


@dataclass(frozen=True)
class PredictionResult:
    """Per-configuration estimates and the selected configuration."""

    power: np.ndarray
    time: np.ndarray
    energy: np.ndarray
    chosen: int
    provenance: tuple[str, ...]   # 'observed-sample' | 'predicted' per config
    clamped: tuple[int, ...] = ()
    converged: bool = True


def quadratic_features(predictors: Sequence) -> np.ndarray:
    """Full quadratic basis of a predictor vector, or of each row of a
    predictor matrix.

    For (c, f, m) the basis is [1, c, f, m, c*f, c*m, f*m, c^2, f^2, m^2];
    for a single predictor w it degenerates to [1, w, w^2].
    """
    x = np.asarray(predictors, dtype=float)
    i, j = np.triu_indices(x.shape[-1], k=1)
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x, x[..., i] * x[..., j], x**2], axis=-1)


def feature_matrix(matrix: TrainingMatrix) -> np.ndarray:
    """Stack the quadratic basis of every configuration of a matrix.

    Configurations that all sit on one GPU platform vary only in workgroup
    size, so they get [1, w, w^2]; any other set gets the 10-function basis
    of the unified (cores, frequency index, memory) coordinates.  The basis
    size is also the fewest samples a prediction can fit.
    """
    configs = matrix.configs
    if len({c.platform for c in configs}) == 1 and configs[0].kind is PlatformKind.GPU:
        return quadratic_features([(float(c.cores),) for c in configs])
    return quadratic_features(matrix.unified)


def init_regression(
    observed_idx: Sequence[int] | np.ndarray,
    observed_values: Sequence[float] | np.ndarray,
    features: np.ndarray,
) -> np.ndarray:
    """Fill rows by least squares on the quadratic basis.

    Fits the observed cells, evaluates at every configuration, then puts the
    measured values back at the observed cells.  A rank-deficient design
    (e.g. every sample on one memory setting) gets the minimum-norm
    solution: singular values of the standardized design at or below
    lstsq's default cutoff, eps max(p, F) s_max for p cells and F
    non-constant basis functions, count as zero.

    ``observed_idx`` (p,) is one design, and a stack (..., p) is one design
    per set, such as every application of an ``evaluation.evaluate`` pool.
    ``observed_values`` (..., p) carry the leading axes of ``observed_idx``
    and then any of their own, value rows that share their set's design:
    (p,) values give one row (n_configs,), (q, p) give q rows, and
    ``evaluate`` passes (apps, 2, p) values at (apps, p) cells for
    (apps, 2, n_configs) rows.  Every design is standardized and factored
    by one batched SVD, and every value row is solved by vector-matrix
    products of its own, so each row has the bits of its own call.
    Raises InsufficientSamplesError when there are fewer observations than
    basis functions.
    """
    idx = np.asarray(observed_idx, dtype=int)
    y = np.asarray(observed_values, dtype=float)
    n_feat, p = features.shape[1], idx.shape[-1]
    if p < n_feat:
        raise InsufficientSamplesError(
            f"insufficient samples: regression basis has {n_feat} functions, got {p}"
        )
    sets = math.prod(idx.shape[:-1])
    idx = idx.reshape(sets, p)
    ys = y.reshape(sets, -1, 1, p)                     # (sets, rows, 1, p)
    X = features[idx, 1:]
    # Center/scale the non-constant columns so that the minimum-norm fill of
    # a rank-deficient design does not depend on the coordinates' units; the
    # intercept is carried by the mean of y.
    mu = X.mean(axis=-2, keepdims=True)
    sd = X.std(axis=-2, keepdims=True)
    sd = np.where(sd > 1e-12, sd, 1.0)
    U, s, Vt = np.linalg.svd((X - mu) / sd, full_matrices=False)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > _EPS * max(X.shape[-2:]) * s[:, :1])
    y_mean = ys.mean(axis=-1, keepdims=True)
    # the coefficients, divided by the scales, act on the basis columns as
    # they are, so no standardized copy of every configuration's basis is
    # made: (basis - mu) / sd @ beta is basis @ (beta / sd) - mu @ (beta / sd)
    beta = ((ys - y_mean) @ U[:, None]) * inv[:, None, None, :] @ Vt[:, None] / sd[:, None]
    rows = (y_mean - beta @ mu.mT[:, None] + beta @ features[:, 1:].T)[..., 0, :]
    np.put_along_axis(rows, idx[:, None, :], ys[..., 0, :], axis=-1)
    return rows.reshape(y.shape[:-1] + (features.shape[0],))


class _Block(NamedTuple):
    """Fully observed training rows, prepared once for both the rank choice
    and EM: their column ``mean``, which ``em_fit`` restores; an
    orthonormal ``basis`` (..., D, r) of the span of the centred rows;
    their coordinates ``coords`` (..., n, r) in it, so that the centred
    rows are ``coords @ basis.T``; and the coordinates' singular values
    ``sv`` (..., r) and right singular vectors ``vt`` (..., r, r), so that
    the rows' scatter in the basis is vt^T diag(sv^2) vt.  That one SVD is
    the spectrum both of the rank choice's held-out fits and of EM's
    starting point.  Every field may carry leading axes, one entry per row
    set (``predict_new_app`` stacks log power and log time)."""

    mean: np.ndarray
    basis: np.ndarray
    coords: np.ndarray
    sv: np.ndarray
    vt: np.ndarray


def _block(rows: np.ndarray | _Block) -> _Block:
    """``rows`` (..., n, D) prepared as a ``_Block``, every stacked row set
    by one centring, one batched thin QR and one batched SVD; a block
    passes through.

    The centred rows sum to zero, so all but the last of them span their
    space (r = min(D, n - 1)), and the basis comes from the thin QR of
    their transpose; a single row, zero once centred, gets a basis of one
    column."""
    if isinstance(rows, _Block):
        return rows
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=-2)
    centred = rows - mean[..., None, :]
    spanning = centred[..., :-1, :] if centred.shape[-2] > 1 else centred
    basis, _ = np.linalg.qr(np.swapaxes(spanning, -1, -2))
    coords = centred @ basis
    _, sv, vt = np.linalg.svd(coords, full_matrices=False)
    return _Block(mean, basis, coords, sv, vt)


def _per_set_cells(observed_idx: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled-cell indices (..., p), or one list (p,) every set shares, as
    indices into the rows of ``basis`` (..., D, r) flattened to (-1, r): for
    each set (the leading axes of both, broadcast), its distinct sampled
    cells (..., p) and the others (..., D - p), each in ascending order.
    Raises ValueError when the sets sample different numbers of cells."""
    D = basis.shape[-2]
    sampled = np.zeros(observed_idx.shape[:-1] + (D,), dtype=bool)
    np.put_along_axis(sampled, observed_idx, True, axis=-1)
    counts = sampled.sum(axis=-1)
    p = int(counts.flat[0])
    if (counts != p).any():
        raise ValueError("every stacked set must sample the same number of distinct cells")
    # a stable sort puts each set's unsampled cells first, then its sampled
    # ones, each run ascending
    lead = np.broadcast_shapes(observed_idx.shape[:-1], basis.shape[:-2])
    rows = sampled.argsort(axis=-1, kind="stable") + D * np.arange(math.prod(lead)).reshape(
        lead + (1,))
    return rows[..., D - p:], rows[..., :D - p]


def _gram(basis: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """basis^T basis over the rows ``cells`` (from ``_per_set_cells``) picks
    from ``basis`` (..., D, r).  Each factor is its own indexed copy: matmul
    then runs gemm, where one shared copy would take syrk, whose bits
    differ, and every set gets the bits of its own call."""
    flat = basis.reshape(-1, basis.shape[-1])
    return np.take(flat, cells, axis=0).swapaxes(-1, -2) @ np.take(flat, cells, axis=0)


def held_out_errors(
    rows: np.ndarray | _Block, observed_idx: Sequence[int], k_max: int
) -> np.ndarray:
    """Held-out-row completion error of the PPCA model at each rank.

    ``rows`` are fully observed: raw rows, prepared by ``_block``, or
    their ``_Block``, as ``select_latent_dim`` passes them.  Entry (i, K-1)
    is the squared error at the cells outside ``observed_idx`` when row i
    is completed from its cells at ``observed_idx`` under the
    maximum-likelihood rank-K PPCA fit of the other rows: top eigenpairs
    (lam, V) of their covariance, sigma^2 the mean discarded eigenvalue,
    loadings V (lam - sigma^2)^1/2, and the posterior mean of the latent
    vector given the observed cells.  Leading axes of ``rows``
    (..., n, D) are stacks of independent row sets, which give errors
    (..., n, k_max).  ``observed_idx`` is one list of cells (p,)
    that every set shares, or each set's own cells (..., p), whose leading
    axes broadcast against the sets' (``evaluation.evaluate`` passes
    (apps, 1, p) for a stack of both quantities of several applications).
    Either way each set's cells are taken in ascending order, so every set
    of a stack gets the bits of its own call on its own cells.

    Every held-out fit lives in the block's row space, where centred row i
    is ``coords[i]`` in the orthonormal ``basis``.  The scatter of the other
    rows is the full scatter less a rank-one term, S - n/(n-1) c_i c_i^T,
    and the SVD gives the full one's eigenpairs (sv^2, vt), so each
    held-out spectrum is a rank-one downdate (Bunch, Nielsen & Sorensen,
    Numer. Math. 31, 1978): in S's eigenbasis it is diag(sv^2) - rho u u^T,
    u = vt c_i, rho = n/(n-1).  One batched eigvalsh gives the eigenvalues
    of every held-out row of every stacked set, and the eigenvector at a
    root mu is y = (diag(sv^2) - mu)^-1 u, normalized.  The downdate is
    first deflated as LAPACK's rank-one update (dlaed2) deflates it, with
    tol = 8 eps sv_1^2.  A run of poles sv_j^2 each within 8 tol of the
    next is a tied group: for each row, the group's eigenvectors are
    reflected so that the row's coordinate lies on the group's first one,
    and the group's others are then eigenpairs of the held-out scatter at
    their own pole.  A first one whose coordinate moves the scatter by at
    most tol (rho |u_G| |u| <= tol) is an eigenpair at its pole too.
    Deflated poles are kept out of the eigvalsh by a diagonal entry below
    the spectrum (-sv_1^2), so its top entries are exactly the roots, and
    the top k_max of roots and deflated poles make the fit.  eigvalsh
    places a root only to about eps sv_1^2, while a pole with a small
    coordinate u_j holds its root within rho u_j^2 / h of it, so the
    component along the root's nearest pole is taken from the secular
    equation rho u^T y = 1, where that pole's term stands alone
    (y_j = h / (rho u_j), h = 1 - rho sum_{k != j} u_k y_k), whenever
    mu's distance d to that pole has d^2 < rho sv_1^2 u_j^2: there the
    equation's error, about eps / h, is the smaller one.  That is the
    accuracy LAPACK's dlaed4 keeps by working relative to the nearest pole.

    The Gram products of the sampled cells are taken once per row, in the
    top k_max eigenvectors Q: P = Q^T G_o Q and Q^T G_o c_i.  Rank K is
    solved as rank k_max with loading columns K.. zero, so its K x K system
    is P scaled by that rank's loading scales plus sigma^2 I, and every
    rank's solve is one batched call.  Residuals are formed as vectors in
    the basis and squared under the Gram matrix of the unsampled cells
    alone: expanding them into Gram entries of the rows, or taking the
    unsampled part as the whole minus the sampled part, cancels
    catastrophically when the rows are exactly low-rank or nearly every
    cell is sampled.
    """
    block = _block(rows)
    basis, coords, sv, vt = block.basis, block.coords, block.sv, block.vt
    D, n, r = basis.shape[-2], coords.shape[-2], sv.shape[-1]
    cells, others = _per_set_cells(np.asarray(observed_idx, dtype=int), basis)
    shrink = n / (n - 1)
    d = sv**2                                               # poles, descending
    tol = 8 * _EPS * d[..., None, :1]
    u = coords @ vt.swapaxes(-1, -2)                        # (..., n, r)
    u2 = u**2
    norm2 = u2.sum(axis=-1, keepdims=True)
    # tied groups of poles, each starting at a lead; ``same`` pairs members
    lead = np.ones(d.shape, dtype=bool)
    lead[..., 1:] = d[..., :-1] - d[..., 1:] > 8 * tol[..., 0, :]
    group = lead.cumsum(axis=-1)
    same = (group[..., :, None] == group[..., None, :]).astype(float)
    # Householder reflection of each group onto its lead: the row's
    # coordinates become ``ut`` (nonzero at leads only), and ``w`` (unit
    # within each group) reflects eigenvectors into that basis
    ut = lead[..., None, :] * -np.copysign(np.sqrt(u2 @ same), u)
    w = u - ut
    w /= np.sqrt(np.maximum(w**2 @ same, _TINY))
    live = shrink * np.abs(ut) * np.sqrt(norm2) > tol      # poles not deflated
    ul = live * ut
    # the held-out scatters in that basis, deflated poles set below the
    # spectrum; diagonals are written through a flat view
    A = (-shrink * ul)[..., :, None] * ul[..., None, :]
    A.reshape(A.shape[:-2] + (r * r,))[..., ::r + 1] += np.where(live, d[..., None, :],
                                                                 -d[..., None, :1])
    # candidates: deflated poles (indices < r), then the roots
    cand = np.concatenate([np.where(live, -np.inf, d[..., None, :]), np.linalg.eigvalsh(A)],
                          axis=-1)
    order = (-cand).argsort(axis=-1, kind="stable")[..., :k_max, None]
    lam = np.sort(cand, axis=-1)[..., :-k_max - 1:-1]       # top k_max, descending
    # eigenvectors in the reflected basis: a unit vector at a deflated pole,
    # (diag(sv^2) - mu)^-1 u at a root mu, its nearest pole's component
    # from the secular equation when that is the more accurate; then
    # reflected back
    dist = d[..., None, None, :] - lam[..., :, None]
    at_root = live[..., None, :] & (order >= r)
    reach = np.where(at_root, np.abs(dist), np.inf)
    near = np.arange(r) == reach.argmin(axis=-1)[..., None]
    u_near = (ul[..., None, :] * near).sum(axis=-1, keepdims=True)
    refine = near & (reach.min(axis=-1, keepdims=True)**2
                     < shrink * d[..., None, None, :1] * u_near**2)
    y = np.divide(ul[..., None, :], dist, out=(order == np.arange(r)).astype(float),
                  where=at_root & ~refine)
    h = 1 - shrink * (ul[..., None, :] * y).sum(axis=-1, keepdims=True)
    y = np.divide(h, shrink * u_near, out=y, where=refine)
    # normalized after scaling by a power of two, which changes no bit but
    # keeps y * y finite when the poles are near underflow (sv^2 subnormal)
    y = np.ldexp(y, -np.frexp(np.abs(y).max(axis=-1, keepdims=True))[1])
    y /= np.sqrt((y * y).sum(axis=-1, keepdims=True))
    y -= 2 * w[..., None, :] * ((w[..., None, :] * y) @ same[..., None, :, :])
    Qt = y @ vt[..., None, :, :]                            # (..., n, k_max, r)
    Q = Qt.swapaxes(-1, -2)
    lam = lam / (n - 1)
    total = (d.sum(axis=-1)[..., None] - shrink * norm2[..., 0]) / (n - 1)
    ranks = np.arange(1, k_max + 1)
    s2 = np.maximum((total[..., None] - lam.cumsum(axis=-1)) / (D - ranks), SIGMA2_FLOOR)
    # loading scales (..., n, rank, k_max), zero past each rank
    scale = np.sqrt(np.maximum(lam[..., None, :] - s2[..., None], 0.0)) * (ranks[:, None] >= ranks)
    gram_o = _gram(basis, cells)
    P = Qt @ gram_o[..., None, :, :] @ Q
    g = shrink * ((coords @ gram_o)[..., None, :] @ Q)
    M = scale[..., :, None] * P[..., None, :, :] * scale[..., None, :]    # + sigma^2 I
    M.reshape(M.shape[:-2] + (k_max * k_max,))[..., ::k_max + 1] += s2[..., None]
    z = np.linalg.solve(M, (scale * g)[..., None])[..., 0]
    resid = shrink * coords[..., None, :] - (scale * z) @ Qt   # whole row, in the basis
    gram_u = _gram(basis, others)
    return ((resid @ gram_u[..., None, :, :]) * resid).sum(axis=-1)


def select_latent_dim(
    rows: np.ndarray | _Block, observed_idx: Sequence[int], k_max: int
) -> int | np.ndarray:
    """Latent rank for completing a row sampled at ``observed_idx`` from
    fully observed ``rows``.

    Each row is held out in turn and completed from its cells at
    ``observed_idx`` by the PPCA fit of the others (``held_out_errors``,
    which takes those fits from the block's SVD as rank-one downdates);
    the rank is the smallest K whose summed error is within one standard
    error (the held-out rows' standard deviation times sqrt(n_rows)) of the
    minimum.  Columns are centred as in ``em_fit``: ``rows`` are raw rows,
    or their ``_Block``; ``predict_new_app`` passes the stacked block of
    both quantities and hands each quantity's slice of it to ``em_fit``.
    ``k_max`` is an upper bound, further capped at n_rows - 2 (the rank a
    held-out fit of n_rows - 1 centred rows supports) and n_configs - 1.
    Rows (n_rows, n_configs) give an int; a stack of row sets
    (..., n_rows, n_configs) gives an int array (...), one rank per set.
    ``observed_idx`` is shared by every set, or per set (..., p), as in
    ``held_out_errors``; each set's rank is the one its own call gives.
    """
    block = _block(rows)
    n, D = block.coords.shape[-2], block.basis.shape[-2]
    k_max = min(k_max, n - 2, D - 1)
    if k_max < 2:
        ks = np.ones(block.basis.shape[:-2], dtype=int)
    else:
        errors = held_out_errors(block, observed_idx, k_max)
        summed = errors.sum(axis=-2, keepdims=True)         # (..., 1, k_max)
        best = summed.argmin(axis=-1, keepdims=True)
        at_best = np.take_along_axis(errors, best, axis=-1)
        cut = np.take_along_axis(summed, best, axis=-1) + (
            at_best.std(axis=-2, ddof=1, keepdims=True) * np.sqrt(n))
        ks = np.argmax(summed <= cut, axis=-1)[..., 0] + 1
    return int(ks) if ks.ndim == 0 else ks


class _Start(NamedTuple):
    """EM's starting point, as ``_initial_parameters`` makes it: the
    coordinates ``alpha`` (..., r) of the mean and ``beta`` (..., r, k) of
    the loadings in the block's basis, padded with zero columns past each
    fit's K, the noise variance (...) and the rank K (...).  The leading
    axes, one entry per fit, are those of the block; a 2-D block's start
    has 0-d ``noise_var`` and ``rank``."""

    alpha: np.ndarray
    beta: np.ndarray
    noise_var: np.ndarray
    rank: np.ndarray


def _initial_parameters(
    block: _Block, init_s: np.ndarray, latent_dim: int | np.ndarray
) -> _Start:
    """``em_fit``'s starting point (alpha, beta, sigma^2, K): the
    maximum-likelihood PPCA fit (Tipping & Bishop, JRSS-B 61(3), 1999) of
    the centred training rows of ``block`` stacked with the regression row
    ``init_s``, its mean ``basis @ alpha`` and loadings ``basis @ beta``
    given by their coordinates in the block's ``basis``.

    The raw regression row carries misfit in directions no training row
    supports; stacking it as-is plants spurious components in the initial
    loadings that EM does not unlearn: exact rank-3 rows of 393 cells were
    then completed with relative errors up to 66, not below 1e-6.  Only its
    projection onto the training block's top-k principal subspace is
    stacked (k = K, or fewer when the block has lower rank).

    Every row stacked then lies in the span of the centred training rows,
    so the fit runs in their coordinates in the block's ``basis``, which
    the block holds with their SVD (``sv``, ``vt``): the singular values
    of the n_train x r coordinate matrix give the block's spectrum.  With
    the training rows C (summing to zero) and the projected row a, the
    stacked scatter is C^T C + (n_train / N) a a^T, and a lies in the
    block's top k right singular vectors, so one k x k eigendecomposition
    gives the new top of the spectrum and the rest is the block's.  The
    spectrum is padded with zeros to min(N, D) entries, the eigenvalues of
    the N x D stacked rows.  sigma^2 is the maximum-likelihood value, the
    mean of the D - K smallest eigenvalues of the D x D covariance: the
    spectrum past K summed and divided by D - K, so the zero eigenvalues
    past min(N, D) count in the mean, as in ``held_out_errors``.  K then
    drops directions the spectrum cannot support: loading columns born at
    (near) zero norm otherwise collapse through |w|^2 ~ sigma^2, where the
    latent posterior of the partially observed row blows up.  Only the
    block's ``basis``, ``coords``, ``sv`` and ``vt`` are read.

    Leading axes of the block (and of ``init_s`` (..., D) and
    ``latent_dim``, which broadcast against them) are a stack of fits,
    such as every fit of ``em_fit``'s stacked path or both quantities of
    ``predict_new_app``.  The fits are grouped by their projection rank k,
    and each group takes one batched k x k eigendecomposition; K enters
    only as a mask, so every fit gets the bits of its own call.  Every
    block, a 2-D one too, gives a ``_Start`` with the block's leading
    axes, its loadings padded to the largest k.
    """
    lead = block.basis.shape[:-2]
    (n_train, r), D = block.coords.shape[-2:], block.basis.shape[-2]
    N = n_train + 1
    S, L = math.prod(lead), min(N, D)
    sv, vt = block.sv.reshape(S, r), block.vt.reshape(S, r, r)
    K = (np.maximum(1, np.minimum(latent_dim, min(D - 1, N - 1)))
         + np.zeros(lead, dtype=int)).reshape(S, 1)
    # the spectrum, its top k to be replaced by the stacked rows' own
    lam = np.zeros((S, L))
    lam[:, :r] = sv**2
    lam_tr = lam[:, :r] / n_train
    k_proj = (lam_tr > np.maximum(1e-9 * lam_tr[:, :1], 1e-12)).sum(axis=-1, keepdims=True)
    k = np.maximum(1, np.minimum(K, k_proj))
    k_max = int(k.max())
    cols = np.arange(L)
    # The regression row in the right singular vectors, zero past each
    # fit's k: its projection onto the block's top-k principal subspace.
    # Every product below has the same shape for every fit, or sums over
    # an outer axis, where padding with zeros changes no bit.
    a = (np.asarray(init_s)[..., None, :] @ block.basis @ block.vt.mT).reshape(S, r)[:, :k_max]
    a *= cols[:k_max] < k
    Q = np.zeros((S, k_max, k_max))
    for k_g in sorted(set(k[:, 0].tolist())):
        g = (k[:, 0] == k_g).nonzero()[0]
        a_g = a[g, :k_g]
        M = (n_train / N) * (a_g[:, :, None] * a_g[:, None, :])
        M.reshape(g.size, k_g * k_g)[:, ::k_g + 1] += lam[g, :k_g]
        nu, V = np.linalg.eigh(M)
        # a rank-one raise of the top k eigenvalues interlaces with the
        # rest, so the spectrum stays in descending order
        lam[g, :k_g] = nu[:, ::-1]
        Q[g, :k_g, :k_g] = V[..., ::-1]
    lam /= N
    s2 = np.maximum((lam * (cols >= K)).sum(axis=-1, keepdims=True) / (D - K), SIGMA2_FLOOR)
    # every direction past k is below the support threshold, so K <= k
    supported = (lam - s2 > np.maximum(1e-9 * lam[:, :1], 1e-10)) & (cols < K)
    K = np.maximum(1, supported.sum(axis=-1, keepdims=True))
    scale = np.sqrt(np.maximum(lam[:, :k_max] - s2, SIGMA2_FLOOR)) * (cols[:k_max] < K)
    top = vt[:, :k_max]             # the top right singular vectors, as rows
    beta = (top[..., None] * Q[:, :, None]).sum(axis=1) * scale[:, None]
    alpha = (a[..., None] * top).sum(axis=1) / N
    return _Start(alpha.reshape(lead + (r,)), beta.reshape(lead + beta.shape[1:]),
                  s2.reshape(lead), K.reshape(lead))


def _em(Ys: np.ndarray, obs: np.ndarray, y_obs: np.ndarray, mu: np.ndarray, W: np.ndarray,
        s2, D: int):
    """PX-EM from (mu, W, s2) to convergence: ``em_fit``'s iterations.

    ``Ys`` (..., n_train, C) are the centred training rows in C columns that
    stand for D configurations, ``obs`` (p,) the columns of the target's
    sampled cells, ``y_obs`` (..., 1, p) its centred values there, and
    mu (..., 1, C), W (..., C, K) and s2 (a float, or one per set) the
    starting point.  Row vectors are 1-row matrices; a stacked set's
    scalars are 1 x 1 ones, while a 2-D fit keeps its scalars as numbers.
    Leading axes are a stack of sets that share n_train, C, D, p and K;
    each set leaves the stack at the iteration it converges and is not
    iterated again.
    Returns (W, mu, s2, m_t, ll_history, n_iters, converged, floored), m_t
    the target's latent posterior mean under the final parameters; for a
    stack each is an array over its sets, and row i of ``ll_history``
    (sets, the stack's iterations + 1) holds set i's in its first
    n_iters + 1 entries.
    """
    max_iters, tol = EstimatorParams.max_iters, EstimatorParams.tol
    lead = Ys.shape[:-2]
    stack = bool(lead)
    n_train, C = Ys.shape[-2:]
    K, p = W.shape[-1], obs.size
    N = n_train + 1
    n_cells = n_train * D + p   # cells the likelihood sees
    # W_o^T W_o has no more than min(K, p) nonzero eigenvalues (eigh sorts
    # them ascending): the eigenvalues it can have are those above ``low``
    low = np.zeros(K)
    low[:K - min(K, p)] = np.inf
    # a set's sum over its rows and columns, and the larger of two of its
    # numbers; a 2-D fit's are plain numbers, taken by the plain calls
    if stack:
        s2 = s2[:, None, None]
        total, larger = (lambda a: a.sum(axis=(-2, -1), keepdims=True)), np.maximum
    else:
        total, larger = np.ndarray.sum, max
    floored = s2 <= SIGMA2_FLOOR
    # The M-step's two normal matrices, of the intercept-augmented [1, z]
    # over the training rows and over them plus the target, share one stack
    # and one batched inverse; the moments of the intercept, and the
    # regression targets' intercept columns, stay fixed.
    G = np.empty(lead + (2, K + 1, K + 1))
    G[..., 0, 0, 0], G[..., 1, 0, 0] = n_train, N
    B = np.empty(lead + (C, K + 1))
    B[..., 0] = Ys.sum(axis=-2)
    B_o = np.empty(lead + (p, K + 1))
    B_o[..., 0] = B[..., obs, 0] + y_obs[..., 0, :]

    def statistics(W, mu, s2):
        """Observed-data log-likelihood and E-step posteriors at (W, mu, s2).

        The stop test at these parameters and the next iteration's E-step
        share them.  Both come from the K x K eigendecompositions (lam, V)
        of W^T W and W_o^T W_o, so no SVD or inverse is needed: a row's
        coordinates along the loadings' eigenvectors, P = r W V, give its
        quadratic form in the loadings' span, P^2 / (lam (lam + s2)), and
        its latent posterior mean (P / (lam + s2)) V^T.  The residual off
        that span is formed explicitly, not as |r|^2 - P^2 / lam, which
        cancels catastrophically as sigma^2 collapses."""
        Dc = Ys - mu
        lam, V = np.linalg.eigh(W.mT @ W)
        WV = W @ V
        P = Dc @ WV                                  # (..., n_train, K)
        Wo = W.take(obs, axis=-2)
        r_o = y_obs - mu.take(obs, axis=-1)
        lam_o, V_o = np.linalg.eigh(Wo.mT @ Wo)
        WoV = Wo @ V_o
        P_o = r_o @ WoV                              # (..., 1, K)
        if stack:
            lam, lam_o = lam[:, None], lam_o[:, None]
        # W_o can have lower rank than min(K, p) (it is zero when the
        # sampled columns carry no loading, as with one training row): its
        # span, in the likelihood, has only the eigenpairs that do not
        # vanish: the target's covariance is s2 along the others
        span = lam_o > low
        ls, ls_o = lam + s2, lam_o + s2
        c_o = np.divide(P_o, lam_o, out=np.zeros(P_o.shape), where=span)
        perp = Dc - (P / lam) @ WV.mT
        perp_o = r_o - c_o @ WoV.mT
        quad = (total(P**2 / (lam * ls)) + total(c_o * P_o / ls_o)
                + (total(perp**2) + total(perp_o**2)) / s2)
        logdet = (total(n_train * np.log(ls) + np.log(np.where(span, ls_o, s2)))
                  + (n_train * (D - K) + p - K) * np.log(s2))
        Vs, Vs_o = V / ls, V_o / ls_o
        # posterior means, and latent covariances summed over the training
        # rows and the target's
        return -0.5 * (n_cells * _LOG_2PI + logdet + quad), (
            P @ Vs.mT, P_o @ Vs_o.mT, n_train * s2 * (Vs @ V.mT), s2 * (Vs_o @ V_o.mT))

    ll, post = statistics(W, mu, s2)
    history = [ll]
    if stack:
        # the stack's sets by their place in it; each leaves with its results,
        # which hold the start until then (all of them at max_iters 0)
        active = np.arange(lead[0])
        actives = [active]
        out = [W.copy(), mu.copy(), s2.copy(), post[1].copy(), None, np.full(lead, max_iters),
               np.zeros(lead, dtype=bool), floored.copy()]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        m_dense, m_t, sz_train, sz_t = post

        # Joint M-step over (mu, W) via the intercept-augmented latent
        # vector [1, z]; decoupled conditional updates of mean and loadings
        # zig-zag badly when one factor dominates the spectrum.  Each column
        # is regressed on the rows that observe it: training rows everywhere,
        # the target only at its sampled cells.  Imputing the target's
        # unsampled cells would add them to the missing data, and when a
        # factor is carried by the target alone its unsampled loadings would
        # then grow only ~3 % per iteration (120-170 iterations on `ci`).
        sum_train = m_dense.sum(axis=-2, keepdims=True, out=G[..., 0, :1, 1:])
        sum_m = np.add(sum_train, m_t, out=G[..., 1, :1, 1:])
        G[..., 1:, 0] = G[..., 0, 1:]
        A_train = np.add(sz_train, m_dense.mT @ m_dense, out=G[..., 0, 1:, 1:])
        A = np.add(A_train + sz_t, m_t.mT @ m_t, out=G[..., 1, 1:, 1:])
        inv = np.linalg.inv(G)
        B[..., 1:] = Ys.mT @ m_dense
        sol = B @ inv[..., 0, :, :]
        np.add(B[..., 1:].take(obs, axis=-2), y_obs.mT * m_t, out=B_o[..., 1:])
        sol[..., obs, :] = B_o @ inv[..., 1, :, :]
        mu_new, W_new = sol[..., None, :, 0], sol[..., 1:]

        # CM step for the isotropic noise variance over the observed cells;
        # the latent covariances enter through the loadings' K x K Gram
        # matrices
        Wo_new = W_new.take(obs, axis=-2)
        R = Ys - mu_new - m_dense @ W_new.mT
        r_t = y_obs - mu_new.take(obs, axis=-1) - m_t @ Wo_new.mT
        s2_new = (total(R**2) + total((W_new.mT @ W_new) * sz_train)
                  + total(r_t**2) + total((Wo_new.mT @ Wo_new) * sz_t)) / n_cells
        floored = floored | (s2_new <= SIGMA2_FLOOR)
        s2_new = larger(s2_new, SIGMA2_FLOOR)

        # PX-EM reduction: fold the latent mean and covariance the E-step
        # implies into (mu, W).  The folded model gives rows the same
        # distribution as the expanded one, so s2 needs no update.
        m_bar = sum_m / N
        L = np.linalg.cholesky(A / N - m_bar.mT * m_bar)
        mu = mu_new + m_bar @ W_new.mT
        W, s2 = W_new @ L, s2_new
        prev = ll
        ll, post = statistics(W, mu, s2)
        history.append(ll)
        done = abs(ll - prev) / larger(abs(prev), 1.0) < tol
        if not stack:
            if done:
                converged = True
                break
            continue
        actives.append(active)
        done = done[:, 0, 0]
        if done.any() or it == max_iters:
            # sets that converged (or reached the cap) leave the stack
            leave = done | (it == max_iters)
            gone = active[leave]
            for field, value in zip(out, (W, mu, s2, post[1])):
                field[gone] = value[leave]
            out[5][gone], out[6][gone], out[7][gone] = it, done[leave], floored[leave]
            stay = ~leave
            if not stay.any():
                break
            Ys, y_obs, W, mu, s2, ll, floored, G, B, B_o, active = (
                a[stay] for a in (Ys, y_obs, W, mu, s2, ll, floored, G, B, B_o, active))
            post = tuple(a[stay] for a in post)
    if stack:
        out[4] = np.empty((lead[0], len(history)))
        for i, (sets, values) in enumerate(zip(actives, history)):
            out[4][sets, i] = values[:, 0, 0]
        return (out[0], out[1][:, 0], out[2][:, 0, 0], out[3][:, 0], out[4], out[5], out[6],
                out[7][:, 0, 0])
    return W, mu[0], float(s2), post[1][0], np.array(history), it, converged, bool(floored)


def em_fit(
    training_rows: np.ndarray | _Block,
    observed_idx: Sequence[int],
    observed_values: Sequence[float],
    initial_row: np.ndarray | _Start,
    params: EstimatorParams | np.ndarray | None = None,
) -> tuple[EstimatorState | list[EstimatorState], np.ndarray]:
    """Fit the factor model and complete the target row.

    ``training_rows`` are fully observed: raw rows, or their ``_Block``,
    which then carries the centring, thin QR and coordinate SVD already
    done for the rank choice; raw rows are prepared by the same ``_block``,
    so both give the same fit bit for bit.  The target application enters with its
    sampled cells (``observed_idx``/``observed_values``) plus the dense
    regression row used only to initialize parameters: they start at the
    PPCA fit of the training rows stacked with that row's projection onto
    their principal subspace (``_initial_parameters``).  It is taken in the
    orthonormal basis of the centred training rows that ``held_out_errors``
    also uses, so past the block, which holds the SVD of the n_train x r
    coordinate matrix, it costs a k x k eigendecomposition, and no SVD of a
    D-column matrix.  ``initial_row`` may also be that start itself, a
    ``_Start``, which carries its rank, so ``params`` is then not read:
    ``predict_new_app`` makes both quantities' starts in one stacked
    ``_initial_parameters`` call and hands each 2-D fit its own.  Each
    iteration runs the E-step under the current
    parameters and conditional maximizations of mean, loadings and noise
    variance, so the observed-data log-likelihood never decreases.  The
    latent vectors are the only missing data: each column's mean and
    loadings are regressed on the rows that observe it, and sigma^2 is
    fitted on the observed cells.

    The M-step is parameter-expanded (PX-EM; Liu, Rubin & Wu, Biometrika
    85(4), 1998): it also fits the latent vector's mean m and covariance S,
    from the same E-step sums, and reduces the expanded model z ~ N(m, S)
    to the equivalent one with z ~ N(0, I) by mu <- mu + W m and
    W <- W chol(S).  That is still an EM step, so the log-likelihood stays
    non-decreasing, but it rescales each latent factor at once instead of
    creeping toward its scale: plain EM ran to hundreds of iterations on
    sparse rows, PX-EM stops in 2 (full) or 3 (``ci``) at the median.
    ``max_iters`` is a safety bound; reaching it is flagged on the returned
    state, not raised.  A collapsing noise variance is clamped at
    SIGMA2_FLOOR (and flagged), which keeps the noiseless case well-posed.

    At these sizes (K <= 5, D <= 393) an iteration costs its count of numpy
    calls more than its arithmetic, so each is taken once: the E-step and
    the stop test's log-likelihood share every row's coordinates along the
    loadings' eigenvectors, the M-step's two normal matrices are written
    into one preallocated stack and inverted by one batched call, and the
    noise variance's latent-covariance terms come from the loadings' K x K
    Gram matrices.

    Leading axes of ``training_rows`` (..., n_train, D) are a stack of
    independent fits that share n_train, D and the sample count, such as
    every fit of one ``evaluation.evaluate`` trial: ``observed_idx``,
    ``observed_values`` (..., p) and ``initial_row`` (..., D) broadcast
    against them, and ``params`` is an EstimatorParams every fit shares or
    an int array (...) of each fit's rank.  Every fit's start comes from
    one stacked ``_initial_parameters`` call, and the fits are run as
    stacks of equal K, the rank it settles on; each leaves its stack at
    its own convergence.  Each stacked fit runs only in the
    columns its iterates can reach: its sampled cells and an orthonormal
    basis of the unsampled part of its training rows' span.  That is
    exact: the start lies in the span, and the M-step regresses every
    unsampled column on the training rows alone, so mu and W never leave
    span(basis) + span(e_obs); every other step is a per-column linear map
    or an inner product over columns, which the orthonormal basis keeps.
    D still counts in sigma^2 and in the log-likelihood, and mean, loadings
    and completion are mapped back to the D columns once.  On full that is
    p + r = 15 + 16 columns instead of 393; where p + r >= D (the 9-column
    GPU-only pool) the columns are the configurations themselves.  Returns
    one state per fit, in the stack's C order, and the completions
    (..., D).  A 2-D call runs one fit in the D columns, with no stack, on
    its block's centred rows ``coords @ basis.T``.
    """
    block = _block(training_rows)
    if isinstance(initial_row, _Start):
        start = initial_row
    else:
        params = EstimatorParams() if params is None else params
        start = _initial_parameters(
            block, np.asarray(initial_row, dtype=float) - block.mean,
            params.latent_dim if isinstance(params, EstimatorParams) else params)
    obs = np.asarray(observed_idx, dtype=int)
    y_raw = np.asarray(observed_values, dtype=float)
    lead = block.basis.shape[:-2]
    D, r = block.basis.shape[-2:]
    if not lead:
        alpha, beta, s2, K = start
        W, mu, s2, m_t, history, it, converged, floored = _em(
            block.coords @ block.basis.T, obs, (y_raw - block.mean[obs])[None],
            (block.basis @ alpha)[None], block.basis @ beta[:, :K], float(s2), D)
        # the posterior under the final parameters gives the completion
        completed = W @ m_t + mu + block.mean
        completed[obs] = y_raw
        return EstimatorState(W, mu, s2, history, it, converged, floored), completed

    # every stacked fit along one leading axis
    S, p = math.prod(lead), obs.shape[-1]
    basis, coords, mean = (f.reshape((S,) + f.shape[len(lead):])
                           for f in (block.basis, block.coords, block.mean))
    obs = np.broadcast_to(obs, lead + (p,)).reshape(S, p)
    y_raw = np.broadcast_to(y_raw, lead + (p,)).reshape(S, p)
    alpha, beta, s2, Ks = (f.reshape((S,) + f.shape[len(lead):]) for f in start)
    # The compressed columns: each fit's sampled cells, then its unsampled
    # cells' part of the basis, b_u = Q_u R, in the orthonormal basis Q_u of
    # its span, C = p + min(r, D - p) columns in all.  A few fits per QR
    # call bound the copies it makes, and Q_u is not kept but taken again,
    # by the same QR, where the fits are mapped back.
    flat = basis.reshape(-1, r)
    _, others = _per_set_cells(obs, basis)      # rows of ``flat``
    compress = p + r < D

    def unsampled(fits):
        return np.take(flat, others[fits], axis=0)

    basis_c = np.empty((S, p + min(r, D - p), r))
    basis_c[:, :p] = np.take(flat, obs + D * np.arange(S)[:, None], axis=0)
    if compress:
        for part in range(0, S, _QR_SETS):
            fits = slice(part, part + _QR_SETS)
            basis_c[fits, p:] = np.linalg.qr(unsampled(fits), mode="r")
    else:
        basis_c[:, p:] = unsampled(slice(None))
    rows_c = coords @ basis_c.swapaxes(-1, -2)
    y_obs = y_raw - np.take_along_axis(mean, obs, axis=-1)
    states: list = [None] * S
    completed = np.empty((S, D))
    for K in sorted(set(Ks.tolist())):   # np.unique would import numpy.ma, 1 MB
        g = np.flatnonzero(Ks == K)
        W, mu, s2_g, m_t, history, iters, converged, floored = _em(
            rows_c[g], np.arange(p), y_obs[g, None], (basis_c[g] @ alpha[g, :, None]).mT,
            basis_c[g] @ beta[g, :, :K], s2[g], D)
        # mean, loadings and completion, mapped back to the D columns
        fit = np.concatenate([mu[..., None], W, (W @ m_t[..., None]) + mu[..., None]], axis=-1)
        full = np.empty((g.size, D, K + 2))
        np.put_along_axis(full, obs[g, :, None], fit[:, :p], axis=1)
        for part in range(0, g.size, _QR_SETS):
            fits, some = slice(part, part + _QR_SETS), g[part:part + _QR_SETS]
            fit_u = fit[fits, p:]
            np.put_along_axis(full[fits], (others[some] - D * some[:, None])[..., None],
                              np.linalg.qr(unsampled(some))[0] @ fit_u if compress else fit_u,
                              axis=1)
        completed[g] = full[..., -1] + mean[g]
        for j, i in enumerate(g):
            states[i] = EstimatorState(full[j, :, 1:-1], full[j, :, 0], float(s2_g[j]),
                                       history[j, :iters[j] + 1], int(iters[j]),
                                       bool(converged[j]), bool(floored[j]))
    np.put_along_axis(completed, obs, y_raw, axis=-1)
    return states, completed.reshape(lead + (D,))


def complete_row(
    training_rows: np.ndarray | _Block,
    observed_idx: Sequence[int],
    observed_values: Sequence[float],
    features: np.ndarray,
    params: EstimatorParams | None = None,
) -> tuple[EstimatorState, np.ndarray]:
    """Regression-initialized EM completion of one row."""
    initial = init_regression(observed_idx, observed_values, features)
    return em_fit(training_rows, observed_idx, observed_values, initial, params)


def predict_energy(
    power_row: np.ndarray,
    time_row: np.ndarray,
    system: Sequence[PlatformSpec],
    observed_idx: Sequence[int] = (),
    converged: bool = True,
) -> PredictionResult:
    """Score every configuration's whole-system energy and pick the minimum.

    Non-positive times, which come back from ``exp`` only on underflow, are
    clamped to 1e-3 of the row's smallest positive time (1e-3 when none is
    positive) and flagged rather than aborting the pipeline.  Ties resolve
    to the lowest configuration index.
    """
    power_row = np.asarray(power_row, dtype=float).copy()
    time_row = np.asarray(time_row, dtype=float).copy()
    bad = time_row <= 0
    if bad.any():
        positive = time_row[time_row > 0]
        time_row[bad] = (positive.min() if positive.size else 1.0) * 1e-3
    energy = total_energy_row(power_row, time_row, system)
    chosen = int(np.argmin(energy))
    provenance = ["predicted"] * energy.size
    for j in observed_idx:
        provenance[j] = "observed-sample"
    return PredictionResult(
        power=power_row,
        time=time_row,
        energy=energy,
        chosen=chosen,
        provenance=tuple(provenance),
        clamped=tuple(int(i) for i in np.flatnonzero(bad)),
        converged=converged,
    )


class Prepared(NamedTuple):
    """The finished fits of one prediction, for a caller that fits many
    predictions at once (``evaluation.evaluate`` runs each trial's fits as
    ``em_fit`` stacks): ``completed`` (2, n_configs), the log power and log
    time rows as ``em_fit`` completes them at the ranks
    ``select_latent_dim`` picks, and ``converged``, whether both fits
    converged."""

    completed: np.ndarray
    converged: bool


def predict_best_config(
    matrix: TrainingMatrix,
    app_id: int,
    plan: SamplePlan,
    prepared: Prepared | None = None,
) -> PredictionResult:
    """End-to-end holistic prediction for one application of the matrix.

    Leave-one-application-out masking, then ``predict_new_app`` on the
    masked view; masking keeps every configuration, so the features and
    the scored system are the matrix's own.  Finished fits (``prepared``)
    read no training grid, so no view is built for them: only the
    target's sampled cells are taken (``dataset.target_samples``), and the
    view's checks are made on the matrix less the target's row, each
    refusal with the view's message.
    """
    if prepared is None:
        return predict_new_app(*mask_application(matrix, app_id, plan))
    row = matrix.app_index(app_id)
    samples = target_samples(matrix, row, plan)
    return _score(matrix, _training_rows(matrix, samples, row), samples, prepared)


def _training_rows(
    matrix: TrainingMatrix, samples: SampleSet, held_out: int | None = None
) -> int:
    """``predict_new_app``'s checks of the training rows for ``samples``'
    application: the rows of ``matrix`` less its row ``held_out`` (None:
    every row).  Returns their number.  No such row, or an unmeasured cell
    in one (``dataset.require_measured``), leaves nothing to train on and
    is refused with a DataFormatError, in the words the CLI prints."""
    n_train = matrix.n_apps - (held_out is not None)
    if n_train == 0:
        raise DataFormatError(f"no training row besides the target application {samples.app_id}")
    require_measured(matrix, held_out)
    if any(a.app_id == samples.app_id for i, a in enumerate(matrix.apps) if i != held_out):
        raise ValueError(f"app_id {samples.app_id} is a training row of the matrix")
    return n_train


def predict_new_app(
    matrix: TrainingMatrix, samples: SampleSet, prepared: Prepared | None = None
) -> PredictionResult:
    """Prediction for an application whose row is not in ``matrix``.

    Every training row participates: regression-initialized EM completion
    of the log power and log time rows, each at the latent rank that
    ``select_latent_dim`` picks for it (at most ``MAX_LATENT_DIM``), then
    whole-system energy minimization over every configuration of every
    platform.  The two quantities are carried as one stack wherever their
    steps are independent of each other: their training rows are prepared
    as one ``_block``, both ranks come from one ``select_latent_dim`` call
    on it, both regression rows from one ``init_regression`` call, both EM
    starts from one ``_initial_parameters`` call, and both completions are
    mapped back through one ``exp``, the sampled cells passed through.
    Each quantity's ``em_fit`` takes its slices of the block and of the
    start, a 2-D fit of its own.  ``prepared`` carries both finished fits
    when the caller has them already (see ``Prepared``); they are trusted
    to be this view's and these cells', and only their shape is checked.

    Raises DataFormatError (a ValueError) when ``matrix`` has no row or an
    unmeasured cell; ValueError when it holds the sampled application, whose
    own measured row it would train on, or when ``prepared`` does not fit
    the view's shape; and EstimatorError when a completed log lies beyond
    ``exp``'s range (the training rows then support no finite estimate from
    these samples) or an energy overflows.
    """
    n_train = _training_rows(matrix, samples)
    if prepared is None:
        idx = samples.config_indices
        logs = _block(np.log([matrix.power, matrix.time]))
        ks = select_latent_dim(logs, idx, MAX_LATENT_DIM)
        log_sampled = np.log([samples.power, samples.time])
        initial = init_regression(idx, log_sampled, feature_matrix(matrix))
        starts = _initial_parameters(logs, initial - logs.mean, ks)
        completed = np.empty_like(initial)
        converged = True
        for q in range(2):
            state, completed[q] = em_fit(_Block(*(field[q] for field in logs)), idx,
                                         log_sampled[q], _Start(*(field[q] for field in starts)))
            converged = converged and state.converged
        prepared = Prepared(completed, converged)
    return _score(matrix, n_train, samples, prepared)


def _score(
    matrix: TrainingMatrix, n_train: int, samples: SampleSet, prepared: Prepared
) -> PredictionResult:
    """``predict_new_app``'s scoring of finished fits: their shape checked
    against a view of ``n_train`` rows and ``matrix``'s configurations,
    each log mapped back through ``exp`` with the sampled cells passed
    through, and the energy argmin over ``matrix``'s system."""
    if np.shape(prepared.completed) != (2, matrix.n_configs):
        raise ValueError(f"prepared completions of shape {np.shape(prepared.completed)} do not "
                         f"fit a view of {n_train} x {matrix.n_configs}")
    completed, converged = prepared
    beyond = np.argwhere(~(completed <= _LOG_MAX))
    if beyond.size:
        q, j = beyond[0]
        raise EstimatorError(
            f"log {('power', 'time')[q]} completed to {completed[q, j]:.4g} at configuration "
            f"{matrix.configs[j].config_id}, beyond exp's range: the training rows "
            "support no finite estimate from these samples"
        )
    idx = samples.config_indices
    rows = np.exp(completed)
    rows[:, idx] = samples.power, samples.time
    with np.errstate(over="ignore"):
        result = predict_energy(*rows, matrix.system, observed_idx=idx, converged=converged)
    if np.isinf(result.energy).any():
        j = int(np.isinf(result.energy).argmax())
        raise EstimatorError(f"energy at configuration {matrix.configs[j].config_id} overflows: "
                             f"time {result.time[j]:.4g} s at power {result.power[j]:.4g} mW")
    return result
