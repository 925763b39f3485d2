import dataclasses
import functools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from heterotune import estimator
from heterotune.dataset import (
    DEFAULT_APPLICATIONS,
    build_training_matrix,
    mask_application,
    select_samples,
)
from heterotune.errors import EstimatorError, InsufficientSamplesError
from heterotune.evaluation import brute_force_best
from heterotune.estimator import (
    SIGMA2_FLOOR,
    EstimatorParams,
    complete_row,
    em_fit,
    feature_matrix,
    held_out_errors,
    init_regression,
    predict_best_config,
    predict_energy,
    predict_new_app,
    quadratic_features,
    select_latent_dim,
)
from heterotune.platforms import DEFAULT_SYSTEM, unify_system
from heterotune.synthetic import CI_SYSTEM, PROFILES, SyntheticSpec, generate_system

from conftest import tiny_system


@functools.lru_cache(maxsize=None)
def _system_and_features(profile):
    m = generate_system(PROFILES[profile]).matrix
    return m, feature_matrix(m)


def _panel_predictions(profile, plans_per_app=1):
    """(app id, prediction) for every application of a profile, each from
    15 samples drawn with seed 1000 k + app id, k = 1..plans_per_app."""
    m, _ = _system_and_features(profile)
    for k in range(1, plans_per_app + 1):
        for app in m.apps:
            plan = select_samples(m.n_configs, 15, 1000 * k + app.app_id, app.app_id)
            yield app.app_id, predict_best_config(m, app.app_id, plan)


def _count_em_iterations(monkeypatch):
    """Record the iterations of every ``em_fit`` the pipeline runs."""
    iters = []

    def counting_em_fit(*args, **kwargs):
        state, completed = em_fit(*args, **kwargs)
        iters.append(state.n_iters)
        return state, completed

    monkeypatch.setattr(estimator, "em_fit", counting_em_fit)
    return iters


def rank_k_matrix(n_rows, n_cols, k, seed, noise_sd=0.0):
    """Exact rank-k (affine) matrix plus optional relative-scale noise."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n_cols, k))
    mu = rng.standard_normal(n_cols)
    Z = rng.standard_normal((n_rows, k))
    Y = Z @ W.T + mu
    if noise_sd:
        Y = Y + noise_sd * rng.standard_normal(Y.shape)
    return Y


class TestQuadraticFeatures:
    def test_origin_keeps_constant_term_only(self):
        np.testing.assert_array_equal(
            quadratic_features((0.0, 0.0, 0.0)), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        )

    def test_all_ones(self):
        np.testing.assert_array_equal(quadratic_features((1.0, 1.0, 1.0)), np.ones(10))

    def test_hand_expansion(self):
        # [1, c, f, m, c*f, c*m, f*m, c^2, f^2, m^2] at (2, 3, 1)
        np.testing.assert_array_equal(
            quadratic_features((2.0, 3.0, 1.0)), [1, 2, 3, 1, 6, 2, 3, 4, 9, 1]
        )

    def test_single_predictor_basis(self):
        np.testing.assert_array_equal(quadratic_features((4.0,)), [1, 4, 16])


class TestInitRegression:
    def _features(self):
        _, unified = unify_system(DEFAULT_SYSTEM)
        return np.asarray([quadratic_features(u) for u in unified])

    def test_plant_and_recover_exact_quadratic(self):
        feats = self._features()
        rng = np.random.default_rng(1)
        beta = rng.uniform(-2, 2, size=10)
        row = feats @ beta
        # the draw must identify the basis: with both controller settings and
        # no GPU sample the m^2 column is exactly collinear, so redraw until
        # the design has full rank (deterministic given the seed)
        while True:
            obs = np.sort(rng.choice(len(row), 10, replace=False))
            if np.linalg.matrix_rank(feats[obs]) == 10:
                break
        fitted = init_regression(obs, row[obs], feats)
        err = np.abs(fitted - row) / np.maximum(np.abs(row), 1e-12)
        assert err.max() < 1e-8

    def test_constant_row_predicts_constant(self):
        feats = self._features()
        obs = np.arange(12)
        fitted = init_regression(obs, np.full(12, 7.5), feats)
        np.testing.assert_allclose(fitted, 7.5, rtol=1e-9)

    def test_nine_samples_with_three_predictors_rejected(self):
        feats = self._features()
        with pytest.raises(InsufficientSamplesError, match="insufficient samples"):
            init_regression(np.arange(9), np.ones(9), feats)

    def _deficient_obs(self, feats):
        # all samples share one memory-controller setting: the m column is
        # constant, hence collinear with the intercept, and c*m, f*m repeat
        # c, f.  Spreading them over that setting's configurations keeps
        # three or more levels of cores and frequency.
        same = np.flatnonzero(feats[:, 3] == feats[0, 3])
        return same[:: len(same) // 10][:10]

    def test_deficient_design_recovers_quadratic_without_memory_terms(self):
        feats = self._features()
        obs = self._deficient_obs(feats)
        assert np.linalg.matrix_rank(feats[obs]) < feats.shape[1]
        beta = np.random.default_rng(2).uniform(-2, 2, size=10)
        beta[[3, 5, 6, 9]] = 0.0           # m, c*m, f*m, m^2
        row = feats @ beta
        fitted = init_regression(obs, row[obs], feats)
        same = feats[:, 3] == feats[0, 3]
        err = np.abs(fitted - row)[same] / np.maximum(np.abs(row[same]), 1e-12)
        assert err.max() < 1e-8

    def test_deficient_fill_ignores_basis_column_units(self):
        # the minimum-norm split between the collinear c and c*m columns
        # decides the fill at the other memory settings; z-scoring the
        # columns makes that split independent of their units
        feats = self._features()
        obs = self._deficient_obs(feats)
        values = np.random.default_rng(3).uniform(1.0, 5.0, size=obs.size)
        fitted = init_regression(obs, values, feats)
        for col, factor in ((5, 1e3), (1, 1e-2), (6, 7.0)):
            rescaled = feats.copy()
            rescaled[:, col] *= factor
            np.testing.assert_allclose(init_regression(obs, values, rescaled), fitted, rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(profile=st.sampled_from(sorted(PROFILES)), app_index=st.integers(0, 5),
           quantity=st.sampled_from(["power", "time"]), extra=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_fill_finite_and_passes_samples_through(self, profile, app_index, quantity,
                                                    extra, seed):
        m, feats = _system_and_features(profile)
        n = min(feats.shape[1] + extra, m.n_configs)
        obs = np.sort(np.random.default_rng(seed).choice(m.n_configs, n, replace=False))
        values = np.log(getattr(m, quantity)[app_index, obs])
        fitted = init_regression(obs, values, feats)
        assert np.isfinite(fitted).all()
        np.testing.assert_array_equal(fitted[obs], values)

    @settings(max_examples=100, deadline=None)
    @given(profile=st.sampled_from(["ci", "full", "gpu"]), deficient=st.booleans(),
           extra=st.integers(-2, 20), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_stack_equals_per_row_calls(self, profile, deficient, extra, seed, data):
        # a (2, p) stack of values gives each row the bits of its own call,
        # and below the basis size both refuse it alike.  Counts from two
        # under the basis size up, the basis size itself included; a
        # deficient draw takes every sample from one memory setting of the
        # 10-function basis (rank 6)
        m, feats = _system_and_features("ci" if profile == "ci" else "full")
        if profile == "gpu":
            feats = feature_matrix(m.select_configs(m.platform_config_indices("quadro-k620")))
        pool = np.arange(feats.shape[0])
        if deficient and profile != "gpu":
            pool = np.flatnonzero(feats[:, 3] == feats[0, 3])
        n = min(feats.shape[1] + extra, pool.size)
        obs = np.sort(np.random.default_rng(seed).choice(pool, n, replace=False))
        values = data.draw(hnp.arrays(float, (2, n), elements=st.floats(-50.0, 50.0)))
        if n < feats.shape[1]:
            messages = set()
            for v in (values, values[0], values[1]):
                with pytest.raises(InsufficientSamplesError) as refused:
                    init_regression(obs, v, feats)
                messages.add(str(refused.value))
            assert len(messages) == 1, messages
            return
        stacked = init_regression(obs, values, feats)
        assert stacked.shape == (2, feats.shape[0])
        for q in range(2):
            assert stacked[q].tobytes() == init_regression(obs, values[q], feats).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(profile=st.sampled_from(["ci", "full", "gpu"]), n_sets=st.integers(1, 4),
           n_rows=st.sampled_from([None, 1, 2]), extra=st.integers(0, 20), data=st.data())
    def test_stacked_designs_equal_their_own_calls(self, profile, n_sets, n_rows, extra, data):
        # a stack of designs, each with its own sampled cells, as evaluate
        # passes a pool's applications: cells (sets, p) and values
        # (sets, p) or (sets, rows, p).  p is the basis size itself or
        # more, and a deficient set takes every sample from one memory
        # setting of the 10-function basis
        m, feats = _system_and_features("ci" if profile == "ci" else "full")
        if profile == "gpu":
            feats = feature_matrix(m.select_configs(m.platform_config_indices("quadro-k620")))
        n = min(feats.shape[1] + extra, feats.shape[0])
        cells = []
        for _ in range(n_sets):
            pool = np.arange(feats.shape[0])
            if profile != "gpu" and data.draw(st.booleans()):
                pool = np.flatnonzero(feats[:, 3] == feats[data.draw(st.sampled_from([0, -1])), 3])
            seed = data.draw(st.integers(0, 2**32 - 1))
            cells.append(np.sort(np.random.default_rng(seed).choice(pool, min(n, pool.size),
                                                                    replace=False)))
        if len({c.size for c in cells}) > 1:   # a deficient pool holds fewer than n cells
            cells = [c[:min(c.size for c in cells)] for c in cells]
        cells = np.array(cells)
        if cells.shape[1] < feats.shape[1]:
            return
        shape = (n_sets,) + (() if n_rows is None else (n_rows,)) + cells.shape[1:]
        values = data.draw(hnp.arrays(float, shape, elements=st.floats(-50.0, 50.0)))
        stacked = init_regression(cells, values, feats)
        assert stacked.shape == shape[:-1] + (feats.shape[0],)
        for i in range(n_sets):
            own = init_regression(cells[i], values[i], feats)
            scale = max(np.abs(own).max(), 1e-300)
            np.testing.assert_allclose(stacked[i], own, rtol=0, atol=1e-12 * scale)
            np.testing.assert_array_equal(stacked[i][..., cells[i]], values[i])


def direct_loglik(state, training_rows, obs, observed_values):
    """Observed-data Gaussian log-likelihood at a fit's (W, mu, sigma^2),
    from the dense covariance C = W W^T + sigma^2 I in columns centred on
    the training rows' mean, as em_fit scores them."""
    W, mu = state.loadings, state.mean
    C = W @ W.T + state.noise_var * np.eye(mu.size)
    col_mean = training_rows.mean(axis=0)
    rows = training_rows - col_mean - mu
    y = observed_values - col_mean[obs] - mu[obs]
    total = 0.0
    for r, c in ((rows, C), (y[None, :], C[np.ix_(obs, obs)])):
        _, logdet = np.linalg.slogdet(c)
        quad = (r * np.linalg.solve(c, r.T).T).sum()
        total -= 0.5 * (r.shape[0] * (r.shape[1] * np.log(2 * np.pi) + logdet) + quad)
    return total


def exact_loglik(state, training_rows, obs, observed_values):
    """``direct_loglik`` with C = W W^T + sigma^2 I formed and eliminated in
    exact rational arithmetic (Gaussian elimination, C = L D L^T): its log
    determinant is the sum of the pivots' logs and each row's quadratic
    form sum_k (L^-1 r)_k^2 / d_k, so only the final logs and the sum
    round.  It holds where sigma^2 is floored and float64's C is
    near-singular."""
    W, mu = state.loadings, state.mean
    col_mean = training_rows.mean(axis=0)
    rows = training_rows - col_mean - mu
    y = observed_values - col_mean[obs] - mu[obs]
    Wf = [[Fraction(v) for v in row] for row in W.tolist()]
    s2 = Fraction(state.noise_var)
    total = 0.0
    for r, cells in ((rows, range(mu.size)), (y[None, :], obs)):
        cells = [int(i) for i in cells]
        C = [[sum((a * b for a, b in zip(Wf[i], Wf[j])), s2 if i == j else Fraction(0))
              for j in cells] for i in cells]
        R = [[Fraction(v) for v in row] for row in r.tolist()]
        logdet, quad = 0.0, Fraction(0)
        for k in range(len(cells)):
            pivot = C[k][k]
            logdet += math.log(pivot)
            for i in range(k + 1, len(cells)):
                f = C[i][k] / pivot
                C[i] = [a - f * b for a, b in zip(C[i], C[k])]
                for row in R:
                    row[i] -= f * row[k]
            quad += sum(row[k] ** 2 for row in R) / pivot
        total -= 0.5 * (len(R) * (len(cells) * math.log(2 * math.pi) + logdet) + float(quad))
    return total


class TestEmFit:
    def test_loglik_matches_direct_evaluation(self):
        # a noisy ci-size fit (K=3: at K=5 over 5 rows sigma^2 collapses), and
        # a GPU-only fit with fewer samples (3) than latent dimensions (5),
        # where W_o^T W_o is singular
        Y = rank_k_matrix(6, 40, 3, seed=2, noise_sd=0.1)
        obs = np.sort(np.random.default_rng(3).choice(40, 15, replace=False))
        full = generate_system(PROFILES["full"]).matrix
        gpu = full.select_configs(full.platform_config_indices("quadro-k620")).power
        gpu_obs = np.array([1, 4, 7])
        cases = (
            (Y[:-1], obs, Y[-1][obs], EstimatorParams(latent_dim=3), 3),
            (gpu[1:], gpu_obs, gpu[0][gpu_obs], EstimatorParams(), 5),
        )
        for rows, idx, values, params, k in cases:
            init = np.tile(values.mean(), rows.shape[1])
            state, _ = em_fit(rows, idx, values, init, params)
            assert state.n_iters > 1 and not state.sigma2_floored
            assert state.loadings.shape[1] == k
            assert np.isfinite(state.ll_history).all()
            assert state.ll_history[-1] == pytest.approx(
                direct_loglik(state, rows, idx, values), rel=1e-9
            )

    def test_loglik_history_matches_dense_gaussian(self, monkeypatch):
        # every entry of ll_history, each against the dense covariance at
        # that iteration's parameters, which a fit capped at that iteration
        # returns.  Four fits of 12 columns: noisy; exact rank 2 at K = 2,
        # where sigma^2 floors; one training row (K = 1, floored too); and 2
        # sampled cells under 3 latent factors, where W_o^T W_o is singular.
        # At a floored sigma^2 float64's C is itself off (by up to 2e-6 in
        # the log-likelihood here), so there only the exact reference binds
        Y = rank_k_matrix(7, 12, 2, seed=4, noise_sd=0.1)
        exact = rank_k_matrix(7, 12, 2, seed=5)
        obs = np.array([0, 3, 5, 8, 11])
        cases = (
            ("noisy", Y[:-1], obs, Y[-1][obs], 3, False),
            ("floored", exact[:-1], obs, exact[-1][obs], 2, True),
            ("one row", Y[:1], obs, Y[-1][obs], 1, True),
            ("singular W_o", Y[:-1], obs[:2], Y[-1][obs[:2]], 3, False),
        )
        for name, rows, idx, values, k, floored in cases:
            init = np.tile(values.mean(), rows.shape[1])
            fit, _ = em_fit(rows, idx, values, init, EstimatorParams(latent_dim=k))
            assert fit.n_iters > 1 and fit.sigma2_floored == floored, name
            assert fit.loadings.shape[1] == k, name
            for cap in range(fit.n_iters + 1):
                monkeypatch.setattr(EstimatorParams, "max_iters", cap)
                state, _ = em_fit(rows, idx, values, init, EstimatorParams(latent_dim=k))
                assert np.array_equal(state.ll_history, fit.ll_history[:cap + 1]), name
                ll = state.ll_history[-1]
                assert ll == pytest.approx(exact_loglik(state, rows, idx, values),
                                           rel=1e-10, abs=0), (name, cap)
                if not floored:
                    assert ll == pytest.approx(direct_loglik(state, rows, idx, values),
                                               rel=1e-10, abs=0), (name, cap)

    def test_floored_loglik_finite_and_non_decreasing(self, ci_noiseless):
        # noiseless log powers and times floor sigma^2, where a dense C is
        # near-singular
        m = ci_noiseless.matrix
        app = m.apps[0].app_id
        view, samples = mask_application(m, app, select_samples(m.n_configs, 15, 2, app))
        for quantity in ("power", "time"):
            state, _ = complete_row(np.log(getattr(view, quantity)), samples.config_indices,
                                    np.log(getattr(samples, quantity)), feature_matrix(m))
            assert state.sigma2_floored and state.n_iters > 1
            assert np.isfinite(state.ll_history).all()
            assert (np.diff(state.ll_history) >= 0).all()

    def test_exact_low_rank_recovery(self):
        Y = rank_k_matrix(18, 393, 3, seed=5)
        rng = np.random.default_rng(6)
        obs = np.sort(rng.choice(393, 15, replace=False))
        init = np.tile(Y[-1][obs].mean(), 393)
        state, completed = em_fit(Y[:-1], obs, Y[-1][obs], init, EstimatorParams(latent_dim=3))
        rmse = np.sqrt(np.mean((completed - Y[-1]) ** 2)) / np.sqrt(np.mean(Y[-1] ** 2))
        assert rmse < 1e-6

    def test_fully_observed_row_passes_through(self):
        Y = rank_k_matrix(6, 40, 2, seed=2, noise_sd=0.1)
        obs = np.arange(40)
        state, completed = em_fit(
            Y[:-1], obs, Y[-1], Y[-1].copy(), EstimatorParams(latent_dim=6)
        )
        np.testing.assert_array_equal(completed, Y[-1])

    def test_loglik_monotone_on_noisy_input(self):
        Y = rank_k_matrix(12, 60, 3, seed=8, noise_sd=0.3)
        rng = np.random.default_rng(9)
        obs = np.sort(rng.choice(60, 12, replace=False))
        init = np.tile(Y[-1][obs].mean(), 60)
        state, _ = em_fit(Y[:-1], obs, Y[-1][obs], init, EstimatorParams(latent_dim=4))
        assert np.all(np.diff(state.ll_history) >= -1e-9)

    @settings(max_examples=30, deadline=None)
    @given(n_apps=st.integers(2, 6), noise_sd=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
           rank=st.integers(1, 4), latent_dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           app_index=st.integers(0, 5), plan_seed=st.integers(0, 2**32 - 1))
    def test_loglik_monotone_over_generated_systems(self, n_apps, noise_sd, rank, latent_dim,
                                                    seed, app_index, plan_seed):
        # noiseless draws floor sigma^2 and latent_dim above the planted rank
        # leaves latent directions the data barely support: the two places
        # where the latent covariance folded into W is closest to singular.
        # Two applications leave one training row, where the sampled columns
        # can carry no loading at all.
        spec = SyntheticSpec(n_apps=n_apps, platforms=CI_SYSTEM, rank=min(rank, n_apps),
                             noise_sd=noise_sd, seed=seed)
        m = generate_system(spec).matrix
        app = m.apps[app_index % n_apps].app_id
        view, samples = mask_application(m, app, select_samples(m.n_configs, 15, plan_seed, app))
        for quantity in ("power", "time"):
            state, _ = complete_row(np.log(getattr(view, quantity)), samples.config_indices,
                                    np.log(getattr(samples, quantity)), feature_matrix(m),
                                    EstimatorParams(latent_dim=latent_dim))
            assert np.isfinite(state.ll_history).all()
            assert np.all(np.diff(state.ll_history) >= -1e-9)

    def test_determinism(self):
        Y = rank_k_matrix(10, 50, 2, seed=3, noise_sd=0.05)
        obs = np.arange(0, 50, 4)
        init = np.tile(Y[-1][obs].mean(), 50)
        s1, c1 = em_fit(Y[:-1], obs, Y[-1][obs], init.copy(), EstimatorParams())
        s2, c2 = em_fit(Y[:-1], obs, Y[-1][obs], init.copy(), EstimatorParams())
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(s1.ll_history, s2.ll_history)

    def test_degradation_is_continuous_in_noise(self):
        # recovery error grows with observation noise but never explodes
        ladder = [0.0, 0.005, 0.01, 0.02, 0.04]
        errors = []
        for noise in ladder:
            rng = np.random.default_rng(31)
            Y = rank_k_matrix(18, 120, 3, seed=13)
            scale = np.abs(Y).mean()
            Yn = Y + noise * scale * rng.standard_normal(Y.shape)
            obs = np.sort(rng.choice(120, 15, replace=False))
            init = np.tile(Yn[-1][obs].mean(), 120)
            _, completed = em_fit(Yn[:-1], obs, Yn[-1][obs], init, EstimatorParams(latent_dim=3))
            errors.append(np.sqrt(np.mean((completed - Y[-1]) ** 2)) / scale)
        assert errors[0] < 1e-6
        for noise, err in zip(ladder, errors):
            assert err <= 6.0 * noise + 2e-6
        assert errors[-1] > errors[0]


def stacked_rows(Ys, init_s, latent_dim):
    """The rows em_fit's starting point is fitted to, and the rank K asked
    of that fit: the training rows and the regression row's projection onto
    their top right singular vectors, from one explicit SVD."""
    n_train, D = Ys.shape
    K = max(1, min(latent_dim, D - 1, n_train))
    tr_mean = Ys.mean(axis=0)
    _, sv_tr, vt_tr = np.linalg.svd(Ys - tr_mean, full_matrices=False)
    lam_tr = sv_tr**2 / n_train
    k_proj = int(np.count_nonzero(lam_tr > max(1e-9 * lam_tr[0], 1e-12)))
    basis = vt_tr[: max(1, min(K, k_proj))]
    return np.vstack([Ys, (init_s - tr_mean) @ basis.T @ basis + tr_mean]), K


def naive_initial_parameters(Ys, init_s, latent_dim):
    """em_fit's starting point by its definition: the rows of
    ``stacked_rows`` and one explicit SVD of them."""
    stacked, K = stacked_rows(Ys, init_s, latent_dim)
    N, D = stacked.shape
    mu = stacked.mean(axis=0)
    _, sv, vt = np.linalg.svd(stacked - mu, full_matrices=False)
    lam = sv**2 / N
    s2 = max(float(lam[K:].sum()) / (D - K), SIGMA2_FLOOR)
    K = max(1, int(np.count_nonzero(lam[:K] - s2 > max(1e-9 * lam[0], 1e-10))))
    W = vt[:K].T * np.sqrt(np.maximum(lam[:K] - s2, SIGMA2_FLOOR))
    return mu, W, s2, K


class TestInitialParameters:
    @settings(max_examples=100, deadline=None)
    @given(n_train=st.integers(1, 20), D=st.integers(2, 60), rank=st.integers(1, 5),
           noise_sd=st.one_of(st.just(0.0), st.floats(0.01, 0.5)), latent_dim=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_row_space_set_up_matches_two_svds(self, n_train, D, rank, noise_sd, latent_dim, seed):
        # one training row, D < N, exact low rank (noise 0) and latent_dim
        # above the supported rank are all in range
        rows = rank_k_matrix(n_train, D, min(rank, n_train, D), seed, noise_sd)
        block = estimator._block(rows)
        init_s = np.random.default_rng(seed + 1).standard_normal(D)
        alpha, beta, s2, K = estimator._initial_parameters(block, init_s, latent_dim)
        assert not beta[:, K:].any()
        mu, W = block.basis @ alpha, block.basis @ beta[:, :K]
        mu_ref, W_ref, s2_ref, K_ref = naive_initial_parameters(rows - block.mean, init_s,
                                                                latent_dim)
        assert K == K_ref
        assert s2 == pytest.approx(s2_ref, rel=1e-9)
        # loadings' signs are arbitrary; the reference's largest entry sets
        # the unit
        for got, ref in ((mu, mu_ref), (W @ W.T, W_ref @ W_ref.T)):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("n_train, D", [(9, 60), (17, 393), (20, 9), (8, 9)])
    def test_noise_variance_is_the_mean_discarded_eigenvalue(self, n_train, D):
        # Tipping & Bishop's maximum-likelihood sigma^2: the mean of the
        # D - K smallest eigenvalues of the stacked rows' D x D covariance,
        # the zero ones included when D > N; the same rule as held_out_errors
        rows = rank_k_matrix(n_train, D, 3, seed=D, noise_sd=0.1)
        block = estimator._block(rows)
        init_s = np.random.default_rng(D + 1).standard_normal(D)
        _, _, s2, K = estimator._initial_parameters(block, init_s, 3)
        stacked, K_asked = stacked_rows(rows - block.mean, init_s, 3)
        assert K == K_asked == 3
        eig = np.linalg.eigvalsh(np.cov(stacked, rowvar=False, bias=True))
        assert eig.size == D
        assert s2 == pytest.approx(eig[: D - K].mean(), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(n_sets=st.integers(1, 5), n_train=st.integers(1, 12), D=st.integers(2, 40),
           data=st.data())
    def test_stack_equals_each_fits_own_call(self, n_sets, n_train, D, data):
        # a stack of blocks sharing n_train and D, each with its own
        # regression row and rank: exact low rank under a larger latent_dim
        # projects at k_proj < K, one training row (n_train 1) projects at
        # k = 1 on a zero block, and D < n_train is the GPU pools' shape
        sets = []
        for _ in range(n_sets):
            rows = rank_k_matrix(n_train, D, min(data.draw(st.integers(1, 4)), n_train, D),
                                 data.draw(st.integers(0, 2**32 - 1)),
                                 data.draw(st.sampled_from([0.0, 0.0, 0.01, 0.3])))
            init = rows.mean(axis=0) + data.draw(st.sampled_from([0.1, 1.0, 10.0])) * np.cos(
                np.arange(D) * data.draw(st.floats(0.1, 3.0)))
            sets.append((rows, init, data.draw(st.integers(1, 8))))
        rows, init, latent = (np.array(field) for field in zip(*sets))
        block = estimator._block(rows)
        start = estimator._initial_parameters(block, init - block.mean, latent)
        assert start.beta.shape[:2] == (n_sets, block.basis.shape[-1])
        for i in range(n_sets):
            single = estimator._block(rows[i])
            own = estimator._initial_parameters(single, init[i] - single.mean, int(latent[i]))
            K = own.rank
            assert start.rank[i] == K
            assert not start.beta[i, :, K:].any() and not own.beta[:, K:].any()
            beta, own_beta = start.beta[i, :, :K], own.beta[:, :K]
            for got, ref in ((start.alpha[i], own.alpha), (beta @ beta.T, own_beta @ own_beta.T),
                             (start.noise_var[i], own.noise_var)):
                np.testing.assert_allclose(got, ref, rtol=0,
                                           atol=1e-12 * max(np.abs(ref).max(), 1e-300))

    @pytest.mark.parametrize("n_train, D, latent_dim", [(5, 40, 3), (1, 12, 2), (17, 9, 5)])
    def test_2d_block_gives_its_stack_of_one_start(self, n_train, D, latent_dim):
        # a 2-D block's start has a stack's fields: 0-d sigma^2 and K, and
        # loadings padded past K, each with the bits of a stack of one
        rows = rank_k_matrix(n_train, D, min(3, n_train), seed=D, noise_sd=0.1)
        block = estimator._block(rows)
        init_s = np.random.default_rng(D).standard_normal(D)
        own = estimator._initial_parameters(block, init_s, latent_dim)
        one = estimator._initial_parameters(estimator._Block(*(f[None] for f in block)),
                                            init_s[None], np.array([latent_dim]))
        for got, ref in zip(own, one):
            assert got.shape == ref.shape[1:] and got.dtype == ref.dtype
            assert got.tobytes() == ref[0].tobytes()

    def test_full_system_prediction_runs_no_wide_svd(self, monkeypatch):
        # the set-up works in the training rows' span: no SVD sees more
        # columns than the fit has rows
        m, _ = _system_and_features("full")
        widths = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(estimator.np.linalg, "svd", spy)
        app = m.apps[0].app_id
        predict_best_config(m, app, select_samples(m.n_configs, 15, 1001, app))
        assert widths, "the spy saw no SVD"
        assert max(widths) <= (m.n_apps - 1) + 1, widths


def naive_held_out_errors(Ys, obs, k_max):
    """held_out_errors by its definition: one explicit SVD of every
    leave-one-row-out block."""
    n, D = Ys.shape
    observed = np.zeros(D, dtype=bool)
    observed[obs] = True
    errors = np.empty((n, k_max))
    for i in range(n):
        others = np.delete(Ys, i, axis=0)
        mean = others.mean(axis=0)
        _, sv, vt = np.linalg.svd(others - mean, full_matrices=False)
        lam = sv**2 / (n - 1)
        total = ((others - mean) ** 2).sum() / (n - 1)
        x = Ys[i] - mean
        for K in range(1, k_max + 1):
            s2 = max((total - lam[:K].sum()) / (D - K), SIGMA2_FLOOR)
            W = vt[:K].T * np.sqrt(np.maximum(lam[:K] - s2, 0.0))
            Wo = W[observed]
            z = np.linalg.solve(Wo.T @ Wo + s2 * np.eye(K), Wo.T @ x[observed])
            errors[i, K - 1] = ((x[~observed] - W[~observed] @ z) ** 2).sum()
    return errors


def _sampled_cells(n_cols, n_obs, seed):
    return np.sort(np.random.default_rng(seed).choice(n_cols, n_obs, replace=False))


def test_estimator_params_carry_only_the_rank():
    # the iteration bound and the stop tolerance are constants of every fit
    assert [f.name for f in dataclasses.fields(EstimatorParams)] == ["latent_dim"]
    assert EstimatorParams().latent_dim == estimator.MAX_LATENT_DIM
    assert EstimatorParams.max_iters == 500 and EstimatorParams.tol == 1e-6
    assert EstimatorParams(latent_dim=2).max_iters == 500


class TestSelectLatentDim:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_recovers_noiseless_rank(self, rank):
        picks = [select_latent_dim(rank_k_matrix(17, 393, rank, seed), _sampled_cells(393, 15, seed + 100), 5)
                 for seed in range(20)]
        assert picks == [rank] * 20

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_noisy_rank_never_under_picked(self, rank):
        # the rule neither drops a planted component nor adds one
        picks = [select_latent_dim(rank_k_matrix(17, 393, rank, seed, noise_sd=0.05),
                                   _sampled_cells(393, 15, seed + 100), 5)
                 for seed in range(20)]
        assert picks == [rank] * 20

    @pytest.mark.parametrize("n_train", [1, 2, 3])
    def test_too_few_rows_give_rank_one(self, n_train):
        rows = rank_k_matrix(n_train, 40, 1, seed=4, noise_sd=0.1)
        assert select_latent_dim(rows, _sampled_cells(40, 15, 5), 5) == 1

    @pytest.mark.parametrize("centred", [True, False])
    @pytest.mark.parametrize("shape, n_obs", [((17, 393), 15), ((6, 40), 15), ((9, 12), 4),
                                              ((12, 9), 3), ((17, 9), 4)])
    def test_row_space_errors_match_explicit_svd(self, shape, n_obs, centred):
        # (17, 9) is the GPU-only fit, whose row space is all 9 columns
        n, D = shape
        rng = np.random.default_rng(n * D)
        Ys = rng.standard_normal(shape) * rng.uniform(0.5, 3.0, D) + rng.standard_normal(D)
        if centred:
            Ys = Ys - Ys.mean(axis=0)
        obs = _sampled_cells(D, n_obs, D)
        k_max = min(5, n - 2, D - 1)
        np.testing.assert_allclose(held_out_errors(Ys, obs, k_max),
                                   naive_held_out_errors(Ys, obs, k_max), rtol=1e-8)

    @pytest.mark.parametrize("pair", [0, 2])
    def test_near_tied_spectrum_matches_explicit_svd(self, pair):
        # two singular values 0.4 % apart: the held-out eigenvectors divide
        # by each root's distance to the poles, and a root between these
        # two lies within 0.8 % of both
        n, D = 17, 60
        rng = np.random.default_rng(7 + pair)
        sv = np.array([9.0, 7.0, 5.0, 3.5, 2.0, 1.5, 1.0, 0.7, 0.5])
        sv[pair + 1] = sv[pair] / 1.004
        left = rng.standard_normal((n, sv.size))
        left, _ = np.linalg.qr(left - left.mean(axis=0))     # centred, orthonormal columns
        right, _ = np.linalg.qr(rng.standard_normal((D, sv.size)))
        Ys = (left * sv) @ right.T + rng.standard_normal(D)
        obs = _sampled_cells(D, 15, pair)
        np.testing.assert_allclose(estimator._block(Ys).sv[:sv.size], sv, rtol=1e-12)
        np.testing.assert_allclose(held_out_errors(Ys, obs, 5),
                                   naive_held_out_errors(Ys, obs, 5), rtol=1e-8)

    @pytest.mark.parametrize("tiny", [1e-5, 1e-7, 1e-9, 1e-11])
    def test_small_coordinate_matches_explicit_svd(self, tiny):
        # row 0 barely touches the three smallest singular directions, so
        # when it is held out a root sits within about tiny^2 of each of
        # their poles, far closer than eigvalsh resolves
        n, D = 9, 30
        rng = np.random.default_rng(int(-np.log10(tiny)))
        sv = np.array([9.0, 6.0, 4.0, 2.5, 1.5, 1.0, 0.6, 0.3])
        low = rng.standard_normal((n, 3))
        low[0] = 0.0
        low[1:] -= low[1:].mean(axis=0)
        rest = rng.standard_normal((n, 5))
        left, _ = np.linalg.qr(np.hstack([low, rest - rest.mean(axis=0)]))
        left = left[:, [3, 4, 5, 6, 7, 0, 1, 2]]        # zero in row 0 on the last three
        left[0, 5:] = tiny
        left[1:, 5:] -= tiny / (n - 1)
        right, _ = np.linalg.qr(rng.standard_normal((D, sv.size)))
        Ys = (left * sv) @ right.T + rng.standard_normal(D)
        obs = _sampled_cells(D, 12, 3)
        np.testing.assert_allclose(held_out_errors(Ys, obs, 5),
                                   naive_held_out_errors(Ys, obs, 5), rtol=1e-8)

    @pytest.mark.parametrize("observed", [[0], [0, 1], [1, 2], [2, 0], [0, 1, 2]])
    @pytest.mark.parametrize("order, columns",
                             [(4, slice(1, 4)), (8, slice(1, 8)), (8, slice(1, 6))])
    def test_two_level_factorial_blocks(self, order, columns, observed):
        # Rows of a two-level factorial design (Hadamard columns, levels 2
        # and 5): once centred every column is +-1.5 and the columns are
        # orthogonal, so every singular value of the block is tied, and a
        # held-out row's coordinate is spread over all of them.  The
        # held-out fits rest on deflating those ties.
        hadamard = np.ones((1, 1))
        while hadamard.shape[0] < order:
            hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
        rows = 3.5 + 1.5 * hadamard[:, columns]
        n, D = rows.shape
        block = estimator._block(rows)
        assert np.ptp(block.sv) <= 1e-12 * block.sv[0]
        k_max = min(5, n - 2, D - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = held_out_errors(block, observed, k_max)
            k = select_latent_dim(rows, observed, 5)
        assert errors.shape == (n, k_max) and np.isfinite(errors).all()
        assert 1 <= k <= k_max
        assert select_latent_dim(rows.copy(), list(observed), 5) == k
        assert k == 1

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20), D=st.integers(2, 60), rank=st.integers(1, 5),
           noise_sd=st.floats(0.0, 0.5), latent_dim=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pick_in_range_deterministic_and_unit_free(self, n, D, rank, noise_sd, latent_dim,
                                                       seed, data):
        # the rows are logs, so a change of one column's units is a shift
        rows = rank_k_matrix(n, D, min(rank, n, D), seed, noise_sd)
        obs = _sampled_cells(D, data.draw(st.integers(1, D)), seed)
        k = select_latent_dim(rows, obs, latent_dim)
        assert 1 <= k <= max(1, min(latent_dim, n - 2, D - 1))
        assert select_latent_dim(rows.copy(), obs.copy(), latent_dim) == k
        col = data.draw(st.integers(0, D - 1))
        shifted = rows.copy()
        shifted[:, col] += np.log(data.draw(st.sampled_from([1e-3, 0.5, 7.0, 1e4])))
        assert select_latent_dim(shifted, obs, latent_dim) == k


def _composed_prediction(view, samples):
    """``predict_new_app`` spelled out in public calls on raw arrays, one
    quantity at a time: the rank choice, the completion at that rank, a
    completed log beyond ``exp``'s range refused, ``exp`` with the sampled
    cells passed through, and the energy argmin."""
    feats, idx = feature_matrix(view), samples.config_indices
    rows = []
    completions = []
    for quantity in ("power", "time"):
        logs, sampled = np.log(getattr(view, quantity)), getattr(samples, quantity)
        k = select_latent_dim(logs, idx, estimator.MAX_LATENT_DIM)
        state, completed = complete_row(logs, idx, np.log(sampled), feats,
                                        EstimatorParams(latent_dim=k))
        completions.append(completed)
    for quantity, completed, sampled in zip(("power", "time"), completions,
                                            (samples.power, samples.time)):
        beyond = np.flatnonzero(~(completed <= np.log(np.finfo(float).max)))
        if beyond.size:
            raise EstimatorError(quantity, view.configs[beyond[0]].config_id)
        row = np.exp(completed)
        row[list(idx)] = sampled
        rows.append(row)
    return predict_energy(*rows, view.system, observed_idx=idx)


def _outcome(predict, view, samples):
    """A prediction, or the EstimatorError that refused it."""
    try:
        return predict(view, samples)
    except EstimatorError as exc:
        return exc


def _assert_refused(outcome, quantity, config_id):
    """``outcome`` is the refusal of a completed log beyond exp's range,
    naming ``quantity`` and the first configuration past that range."""
    assert isinstance(outcome, EstimatorError), outcome
    message = str(outcome)
    assert message.startswith(f"log {quantity} completed to "), message
    assert f" at configuration {config_id}, beyond exp's range" in message, message


GPU_ONLY_HOST = (CI_SYSTEM[0], DEFAULT_SYSTEM[1])   # the GPU has 9 configurations


class TestPreparedBlock:
    """``predict_new_app`` centres and factors log power and log time as
    one stacked block, picks both ranks in one call and hands each
    quantity's slice of the block to EM; every result must equal the one
    from raw arrays bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(gpu_only=st.booleans(), seed=st.integers(0, 2**32 - 1),
           plan_seed=st.integers(0, 2**32 - 1), noise_sd=st.floats(0.0, 0.1), data=st.data())
    def test_prediction_equals_composition_of_public_calls(self, gpu_only, seed, plan_seed,
                                                           noise_sd, data):
        # one training row (n_apps 2), and on the GPU-only matrix more
        # training rows than its 9 columns, are both in range
        n_apps = data.draw(st.sampled_from([2, 3, 5, 8, 12, 18]) if gpu_only
                           else st.integers(2, 8))
        spec = SyntheticSpec(n_apps=n_apps, platforms=GPU_ONLY_HOST if gpu_only else CI_SYSTEM,
                             rank=min(3, n_apps), noise_sd=noise_sd, seed=seed)
        m = generate_system(spec).matrix
        if gpu_only:
            m = m.select_configs(m.platform_config_indices(DEFAULT_SYSTEM[1].name))
        app = m.apps[data.draw(st.integers(0, n_apps - 1))].app_id
        n_samples = feature_matrix(m).shape[1]
        plan = select_samples(m.n_configs, data.draw(st.integers(n_samples, m.n_configs)),
                              plan_seed, target_app=app)
        view, samples = mask_application(m, app, plan)
        got, ref = _outcome(predict_new_app, view, samples), _outcome(_composed_prediction,
                                                                     view, samples)
        if isinstance(ref, EstimatorError):
            _assert_refused(got, *ref.args)
        else:
            for name in ("power", "time", "energy"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert got.chosen == ref.chosen

        feats, idx = feature_matrix(view), samples.config_indices
        for quantity in ("power", "time"):
            logs = np.log(getattr(view, quantity))
            values = np.log(getattr(samples, quantity))
            init = init_regression(idx, values, feats)
            params = EstimatorParams(latent_dim=data.draw(st.integers(1, 5)))
            s_raw, c_raw = em_fit(logs, idx, values, init, params)
            s_blk, c_blk = em_fit(estimator._block(logs), idx, values, init, params)
            assert np.array_equal(s_raw.ll_history, s_blk.ll_history)
            assert s_raw.n_iters == s_blk.n_iters
            assert np.array_equal(c_raw, c_blk)

    def test_training_rows_are_centred_once(self):
        # log-like rows of three applications' two quantities: the block's
        # mean is the rows' own column mean, and its row space reproduces
        # the rows less that mean
        rng = np.random.default_rng(11)
        rows = 10.0 + rng.standard_normal((3, 2, 6, 40)) * rng.uniform(0.1, 3.0, 40)
        block = estimator._block(rows)
        mean = rows.mean(axis=-2)
        assert np.array_equal(block.mean, mean)
        centred = rows - mean[..., None, :]
        np.testing.assert_allclose(block.coords @ block.basis.swapaxes(-1, -2), centred,
                                   rtol=0, atol=1e-12 * np.abs(centred).max())

    @staticmethod
    def _three_app_draw():
        """A draw of the test above whose two training rows barely vary in
        some columns (a log time spread of 2e-4), with its ten samples."""
        spec = SyntheticSpec(n_apps=3, platforms=CI_SYSTEM, rank=3, noise_sd=0.0, seed=52298)
        m = generate_system(spec).matrix
        app = m.apps[0].app_id
        view, samples = mask_application(m, app, select_samples(m.n_configs, 10, 0, app))
        assert np.log(view.time).std(axis=0).min() < 1e-3
        return m, view, samples

    def test_three_app_draw_completes_to_the_brute_force_optimum(self):
        # centred, not scaled, columns leave the sampled log times where
        # they are, so nothing puts them thousands of spreads out; every
        # energy is finite and positive, with no warning (warnings are
        # errors here)
        m, view, samples = self._three_app_draw()
        got = predict_new_app(view, samples)
        assert np.isfinite(got.energy).all() and (got.energy > 0).all()
        assert got.chosen == brute_force_best(m, samples.app_id)[0]

    def test_three_app_draw_beyond_exp_range_is_refused(self):
        # the draw above with one sampled time 1e300 times its measured
        # value: EM completes log time past exp's range, and both paths
        # refuse it rather than score infinite energies
        _, view, samples = self._three_app_draw()
        time = samples.time.copy()
        time[0] *= 1e300
        samples = dataclasses.replace(samples, time=time)
        ref = _outcome(_composed_prediction, view, samples)
        assert isinstance(ref, EstimatorError) and ref.args[0] == "time"
        _assert_refused(_outcome(predict_new_app, view, samples), *ref.args)

    def test_overflowing_energy_is_refused(self):
        # every completed log is in exp's range, but a sampled time of
        # 1e307 s times its power overflows; that configuration is named
        # and no overflow warning escapes (warnings are errors here)
        m, _ = _system_and_features("ci")
        app = m.apps[0].app_id
        view, samples = mask_application(m, app, select_samples(m.n_configs, 15, 0, app))
        time = samples.time.copy()
        time[0] = 1e307
        samples = dataclasses.replace(samples, time=time)
        config_id = m.configs[samples.config_indices[0]].config_id
        with pytest.raises(EstimatorError,
                           match=f"^energy at configuration {re.escape(config_id)} overflows: "):
            predict_new_app(view, samples)

    def test_prepared_argument_equals_own_preparation_and_is_shape_checked(self):
        # finished fits made by the public calls, one quantity at a time as
        # predict_new_app makes them, give its own prediction bit for bit
        m, feats = _system_and_features("ci")
        app = m.apps[2].app_id
        plan = select_samples(m.n_configs, 15, 7, app)
        view, samples = mask_application(m, app, plan)
        idx = samples.config_indices
        logs = estimator._block(np.log([view.power, view.time]))
        ks = select_latent_dim(logs, idx, estimator.MAX_LATENT_DIM)
        values = np.log([samples.power, samples.time])
        initial = init_regression(idx, values, feats)
        fits = [em_fit(estimator._Block(*(f[q] for f in logs)), idx, values[q], initial[q],
                       EstimatorParams(latent_dim=int(ks[q]))) for q in range(2)]
        prepared = estimator.Prepared(np.array([completed for _, completed in fits]),
                                      all(state.converged for state, _ in fits))
        own = predict_new_app(view, samples)
        for got in (predict_new_app(view, samples, prepared),
                    predict_best_config(m, app, plan, prepared)):
            for name in ("power", "time", "energy"):
                assert np.array_equal(getattr(got, name), getattr(own, name)), name
            assert (got.chosen, got.converged) == (own.chosen, own.converged)
        # completions one configuration short, or of one quantity
        for wrong in (prepared.completed[:, 1:], prepared.completed[:1]):
            with pytest.raises(ValueError, match="do not fit a view of 5 x 40"):
                predict_new_app(view, samples, prepared._replace(completed=wrong))

    @pytest.mark.parametrize("profile, app_index", [("ci", 0), ("ci", 4), ("full", 7)])
    def test_prepared_scoring_equals_the_views_prediction(self, profile, app_index):
        # a prepared predict_best_config builds no view; it scores the
        # same fits to every field predict_new_app gives on the view
        m, _ = _system_and_features(profile)
        app = m.apps[app_index].app_id
        plan = select_samples(m.n_configs, 15, 3, app)
        view, samples = mask_application(m, app, plan)
        prepared = estimator.Prepared(np.log([view.power[0], view.time[0]]) + 0.01, False)
        got = predict_best_config(m, app, plan, prepared)
        ref = predict_new_app(view, samples, prepared)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(got, field.name), getattr(ref, field.name)), field.name

    def test_prepared_refusals_keep_their_messages(self):
        # every refusal of the view's path, made without building the view
        m, _ = _system_and_features("ci")
        app = m.apps[1].app_id
        plan = select_samples(m.n_configs, 15, 5, app)
        view, samples = mask_application(m, app, plan)
        prepared = estimator.Prepared(np.log([view.power[0], view.time[0]]), True)
        for wrong in (prepared.completed[:, 1:], prepared.completed[:1]):
            with pytest.raises(ValueError, match="^prepared completions of shape .* do not fit "
                                                 "a view of 5 x 40$"):
                predict_best_config(m, app, plan, prepared._replace(completed=wrong))
        with pytest.raises(ValueError, match=f"^app_id {app} is a training row of the matrix$"):
            predict_new_app(m, samples, prepared)
        # an unmeasured cell in another row, and one at a sampled cell of
        # the target's
        other, cell = m.app_index(app) + 1, plan.sample_configs[0]
        for row, message in ((other, f"unmeasured cell at app {m.apps[other].app_id}, "
                                     f"config {m.configs[cell].config_id}"),
                             (m.app_index(app), "plan samples an unobserved cell of the target "
                                                "row")):
            power, time = m.power.copy(), m.time.copy()
            power[row, cell] = time[row, cell] = np.nan
            holed = dataclasses.replace(m, power=power, time=time)
            for given in (None, prepared):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    predict_best_config(holed, app, plan, given)
        alone = dataclasses.replace(m, apps=m.apps[1:2], power=m.power[1:2], time=m.time[1:2])
        for given in (None, prepared):
            with pytest.raises(ValueError, match="^no training row besides the target "
                                                 f"application {app}$"):
                predict_best_config(alone, app, plan, given)
        with pytest.raises(KeyError):
            predict_best_config(m, 99, plan, prepared)

    def test_full_system_prediction_factors_each_quantity_once(self, monkeypatch):
        # the rank choice and EM's start of both quantities share one
        # stacked thin QR and one stacked SVD of the row-space coordinates;
        # the held-out fits take their eigenvalues from one stacked eigvalsh
        # and their eigenvectors from that SVD, so no eigh sees them; both
        # regression rows share one SVD of their design, both EM starts one
        # stacked eigh (both quantities project at rank 2 here), and each
        # EM iteration inverts both of its normal matrices in one batched
        # call
        m, _ = _system_and_features("full")
        calls = []
        for name in ("qr", "svd", "eigh", "eigvalsh", "inv"):
            def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(estimator.np.linalg, name, spy)
        fits = []

        def recording_em_fit(*args, **kwargs):
            state, completed = em_fit(*args, **kwargs)
            fits.append(state)
            return state, completed

        monkeypatch.setattr(estimator, "em_fit", recording_em_fit)
        app = m.apps[0].app_id
        predict_best_config(m, app, select_samples(m.n_configs, 15, 1001, app))
        K = [state.loadings.shape[1] for state in fits]
        assert len(fits) == 2 and all(state.n_iters >= 1 for state in fits)
        assert [c for c in calls if c[0] == "inv"] == [
            ("inv", (2, k + 1, k + 1)) for k, state in zip(K, fits) for _ in range(state.n_iters)]
        n_train = m.n_apps - 1
        held_out = (2, n_train, n_train - 1, n_train - 1)
        assert [c for c in calls if c[0] in ("qr", "svd")] == [
            ("qr", (2, m.n_configs, n_train - 1)), ("svd", (2, n_train, n_train - 1)),
            ("svd", (1, 15, 9))]
        assert [c for c in calls if c[0] == "eigvalsh"] == [("eigvalsh", held_out)]
        # EM's own eigh calls are K x K, one fit at a time
        eigh_shapes = [shape for name, shape in calls if name == "eigh"]
        assert eigh_shapes[0] == (2, 2, 2), eigh_shapes
        assert eigh_shapes[1:] and all(len(shape) == 2 for shape in eigh_shapes[1:]), eigh_shapes
        assert held_out not in eigh_shapes


class TestStackedHelpers:
    """``_block``, ``held_out_errors`` and ``select_latent_dim`` on a stack of
    two row sets give each set the bits of its own 2-D call."""

    @settings(max_examples=150, deadline=None)
    @given(n_train=st.integers(1, 8), D=st.integers(1, 12), data=st.data())
    def test_stack_of_two_equals_per_quantity_calls(self, n_train, D, data):
        # n_train <= 3 leaves k_max < 2 (rank 1 without a held-out fit), and
        # D < n_train is the shape of the 9-column GPU-only fits.  Each set
        # is low-rank plus noise, or arbitrary values (often repeated, so
        # some columns are constant)
        def row_set():
            if data.draw(st.booleans()):
                return rank_k_matrix(n_train, D, data.draw(st.integers(1, 4)),
                                     data.draw(st.integers(0, 2**32 - 1)),
                                     data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
            return data.draw(hnp.arrays(float, (n_train, D),
                                        elements=st.floats(-50.0, 50.0, allow_nan=False)))

        rows = np.stack([row_set(), row_set()])
        obs = data.draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=D, unique=True))
        k_max = min(estimator.MAX_LATENT_DIM, n_train - 2, D - 1)
        stacked = estimator._block(rows)
        ks = select_latent_dim(stacked, obs, estimator.MAX_LATENT_DIM)
        assert ks.shape == (2,)
        if k_max >= 1:
            errors = held_out_errors(stacked, obs, k_max)
        for q in range(2):
            single = estimator._block(rows[q])
            for name, got, ref in zip(estimator._Block._fields, stacked, single):
                assert got[q].shape == ref.shape and got[q].tobytes() == ref.tobytes(), name
            assert ks[q] == select_latent_dim(rows[q], obs, estimator.MAX_LATENT_DIM)
            if k_max >= 1:
                ref = held_out_errors(single, obs, k_max)
                assert errors[q].shape == ref.shape and errors[q].tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n_sets=st.integers(1, 4), n_train=st.integers(1, 10), D=st.integers(1, 12),
           per_quantity=st.booleans(), data=st.data())
    def test_per_set_cells_equal_each_sets_own_call(self, n_sets, n_train, D, per_quantity,
                                                    data):
        # a stack (n_sets, 2) of row sets, each with its own sampled cells,
        # drawn unsorted: shared by both quantities of a set (n_sets, 1, p),
        # as evaluate passes them, or one list per quantity (n_sets, 2, p).
        # n_train = 1 leaves k_max < 2, D < n_train is the shape of the
        # 9-column GPU-only pool, and orthogonal rows of equal norm (an
        # identity block) tie every singular value
        def row_set():
            kind = data.draw(st.sampled_from(["low-rank", "arbitrary", "tied"]))
            if kind == "low-rank":
                return rank_k_matrix(n_train, D, data.draw(st.integers(1, 4)),
                                     data.draw(st.integers(0, 2**32 - 1)),
                                     data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
            if kind == "tied":
                return 2.0 + data.draw(st.sampled_from([0.5, 3.0])) * np.eye(n_train, D)
            return data.draw(hnp.arrays(float, (n_train, D),
                                        elements=st.floats(-50.0, 50.0, allow_nan=False)))

        rows = np.array([[row_set(), row_set()] for _ in range(n_sets)])
        p = data.draw(st.integers(1, D))
        cells = np.array([[data.draw(st.permutations(range(D)))[:p]
                           for _ in range(2 if per_quantity else 1)] for _ in range(n_sets)])
        k_max = min(estimator.MAX_LATENT_DIM, n_train - 2, D - 1)
        stacked = estimator._block(rows)
        ks = select_latent_dim(stacked, cells, estimator.MAX_LATENT_DIM)
        assert ks.shape == (n_sets, 2)
        if k_max >= 1:
            errors = held_out_errors(stacked, cells, k_max)
            assert errors.shape == (n_sets, 2, n_train, k_max)
        for i in range(n_sets):
            for q in range(2):
                own = list(cells[i, q if per_quantity else 0])
                single = estimator._block(rows[i, q])
                assert ks[i, q] == select_latent_dim(single, own, estimator.MAX_LATENT_DIM)
                if k_max >= 1:
                    ref = held_out_errors(single, own, k_max)
                    assert errors[i, q].tobytes() == ref.tobytes(), (i, q)

    def test_sets_sampling_different_numbers_of_cells_rejected(self):
        block = estimator._block(rank_k_matrix(6, 8, 2, 0)[None].repeat(2, axis=0))
        with pytest.raises(ValueError, match="same number of distinct cells"):
            held_out_errors(block, [[0, 1, 2], [3, 4, 4]], 2)

    def test_poles_near_underflow(self):
        # one cell of 7e-157 leaves sv^2 subnormal; normalizing the root's
        # eigenvector must not overflow (warnings are errors here)
        tiny = np.zeros((3, 2))
        tiny[0, 0] = 7.05593218e-157
        rows = np.stack([np.zeros((3, 2)), tiny])
        stacked = estimator._block(rows)
        errors = held_out_errors(stacked, [0], 1)
        assert np.isfinite(errors).all()
        for q in range(2):
            ref = held_out_errors(estimator._block(rows[q]), [0], 1)
            assert errors[q].tobytes() == ref.tobytes()


def _pool_fits(matrix, n_samples, seed):
    """``em_fit``'s stacked arguments for every application of ``matrix``
    and both quantities, as ``evaluation.evaluate`` builds them: training
    views (apps, 2, n_apps - 1, n_configs), each application's own cells
    (apps, 1, p) and values (apps, 2, p), regression rows and ranks."""
    logs = np.log([matrix.power, matrix.time])
    rows = np.stack([np.delete(logs, a, axis=1) for a in range(matrix.n_apps)])
    plans = [select_samples(matrix.n_configs, n_samples, seed + a, app.app_id)
             for a, app in enumerate(matrix.apps)]
    cells = np.array([plan.sample_configs for plan in plans])[:, None, :]
    values = np.take_along_axis(logs.swapaxes(0, 1), cells, axis=-1)
    initial = np.array([init_regression(c[0], v, feature_matrix(matrix))
                        for c, v in zip(cells, values)])
    ranks = select_latent_dim(estimator._block(rows), cells, estimator.MAX_LATENT_DIM)
    return rows, cells, values, initial, ranks


class TestStackedEmFit:
    """A stacked ``em_fit`` runs its fits as stacks of equal K in the columns
    EM can reach; each set must be the fit of its own 2-D call."""

    @staticmethod
    def _assert_each_set_is_its_own_fit(rows, cells, values, initial, ranks, floored=True):
        """Every set's K, iterations, flags and history length equal its own
        2-D fit's, and its completion, loadings and mean agree within 1e-9
        of their largest entry; for a fit whose sigma^2 sits at its floor,
        only when ``floored``."""
        lead = rows.shape[:-2]
        cells = np.broadcast_to(cells, lead + cells.shape[-1:])
        states, completed = em_fit(rows, cells, values, initial, ranks)
        assert len(states) == math.prod(lead) and completed.shape == lead + rows.shape[-1:]
        for state, i in zip(states, np.ndindex(lead)):
            own, own_completed = em_fit(rows[i], cells[i], values[i], initial[i],
                                        EstimatorParams(latent_dim=int(ranks[i])))
            assert (state.loadings.shape[1], state.n_iters, state.converged,
                    state.sigma2_floored, len(state.ll_history)) == (
                own.loadings.shape[1], own.n_iters, own.converged, own.sigma2_floored,
                len(own.ll_history)), i
            if own.sigma2_floored and not floored:
                continue
            for got, ref in ((completed[i], own_completed), (state.loadings, own.loadings),
                             (state.mean, own.mean)):
                np.testing.assert_allclose(got, ref, rtol=1e-9,
                                           atol=1e-9 * max(np.abs(ref).max(), 1e-300))
        return states

    @settings(max_examples=60, deadline=None)
    @given(n_sets=st.integers(1, 4), n_train=st.integers(1, 8), D=st.integers(2, 14),
           data=st.data())
    def test_each_set_equals_its_own_fit(self, n_sets, n_train, D, data):
        # each set is a low-rank system with its target row held out, plus
        # noise or not, and its own sampled cells and rank; one sampled cell
        # or two fall below most ranks, and D < n_train leaves nothing for
        # the compression to shrink.  A fit whose sigma^2 sits at its floor
        # amplifies rounding: one of 3 x 3 rows at K = 2 moves by 1.3e-9 of
        # its completion when its own 2-D call takes the rows' reconstruction
        # from the block, 1.1e-16 away.  So here floored fits are compared
        # by K, iterations and flags; the tests below compare the floored
        # fits of one training row in full.
        p = data.draw(st.integers(1, D))
        sets = []
        for _ in range(n_sets):
            full = rank_k_matrix(n_train + 1, D, data.draw(st.integers(1, 4)),
                                 data.draw(st.integers(0, 2**32 - 1)),
                                 data.draw(st.sampled_from([0.0, 0.05, 0.3])))
            cells = np.array(data.draw(st.permutations(range(D)))[:p])
            init = full[-1] + data.draw(st.sampled_from([0.0, 0.1, 1.0])) * np.cos(np.arange(D))
            sets.append((full[:-1], cells, full[-1, cells], init,
                         data.draw(st.integers(1, estimator.MAX_LATENT_DIM))))
        self._assert_each_set_is_its_own_fit(*(np.array(field) for field in zip(*sets)),
                                             floored=False)

    def test_sets_stop_at_different_iterations(self):
        # the ci profile's fits take 3 to 18 iterations, and each set
        # leaves its stack at its own
        m, _ = _system_and_features("ci")
        states = self._assert_each_set_is_its_own_fit(*_pool_fits(m, 15, 1))
        iters = {state.n_iters for state in states}
        assert min(iters) <= 3 and max(iters) >= 9

    def test_one_training_row_floors_sigma2(self):
        # with one training row every fit floors sigma^2; these take 9-10
        # iterations where others of the stack take 2-3
        m = generate_system(SyntheticSpec(n_apps=2, platforms=CI_SYSTEM, rank=2,
                                          noise_sd=0.05, seed=9)).matrix
        states = self._assert_each_set_is_its_own_fit(*_pool_fits(m, 15, 0))
        assert all(state.sigma2_floored for state in states)
        assert sorted(state.n_iters for state in states) == [2, 3, 9, 10]

    def test_gpu_only_block_is_not_shrunk(self):
        # the full profile's 9-column GPU pool: 17 training rows and 3
        # samples, so p + r >= D and the columns are the configurations
        m, _ = _system_and_features("full")
        gpu = m.select_configs(m.platform_config_indices(DEFAULT_SYSTEM[1].name))
        rows, *rest = _pool_fits(gpu, 3, 0)
        assert rows.shape[-1] == 9 and rows.shape[-2] > 9
        self._assert_each_set_is_its_own_fit(rows, *rest)

    def test_fewer_sampled_cells_than_k(self):
        # two sampled cells under ranks 3-5: W_o^T W_o has vanishing
        # eigenpairs, which the likelihood leaves out
        rng = np.random.default_rng(3)
        full = np.stack([rank_k_matrix(9, 30, 4, seed, noise_sd=0.05) for seed in range(4)])
        cells = np.stack([rng.permutation(30)[:2] for _ in range(4)])
        values = np.take_along_axis(full[:, -1], cells, axis=-1)
        states = self._assert_each_set_is_its_own_fit(full[:, :-1], cells, values,
                                                      full[:, -1], np.array([3, 4, 5, 4]))
        assert all(state.loadings.shape[1] > 2 for state in states)

    def test_full_profile_pool(self):
        # the holistic pool of one full evaluate trial: 36 fits of 393
        # columns, compressed to 15 sampled cells and 16 span coordinates
        m, _ = _system_and_features("full")
        self._assert_each_set_is_its_own_fit(*_pool_fits(m, 15, 7))

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_iteration_cap_stops_each_set_as_its_own_fit(self, monkeypatch, cap):
        # a 2 x 6 x 12 stack, compressed to 6 sampled cells and 5 span
        # coordinates, that converges in 5 and 14 iterations: capped below
        # that, each set stops where its own 2-D call does, with its
        # sigma^2 to the bit.  With no iteration each returns its start
        rng = np.random.default_rng(5)
        full = np.stack([rank_k_matrix(7, 12, 3, seed, noise_sd=0.05) for seed in (1, 2)])
        cells = np.stack([np.sort(rng.permutation(12)[:6]) for _ in range(2)])
        values = np.take_along_axis(full[:, -1], cells, axis=-1)
        initial = full[:, -1] + 0.3 * np.cos(np.arange(12))
        block = estimator._block(full[:, :-1])
        start = estimator._initial_parameters(block, initial - block.mean, 2)
        monkeypatch.setattr(EstimatorParams, "max_iters", cap)
        states, completed = em_fit(full[:, :-1], cells, values, initial, np.array([2, 2]))
        for i, state in enumerate(states):
            own, own_completed = em_fit(full[i, :-1], cells[i], values[i], initial[i],
                                        EstimatorParams(latent_dim=2))
            assert (state.n_iters, state.converged, len(state.ll_history)) == (
                own.n_iters, own.converged, len(own.ll_history)) == (cap, False, cap + 1)
            assert state.noise_var == own.noise_var
            if cap == 0:
                assert state.noise_var == start.noise_var[i]
            np.testing.assert_allclose(completed[i], own_completed, rtol=0,
                                       atol=1e-9 * np.abs(own_completed).max())


class TestPredictEnergy:
    def test_picks_smaller_of_two(self):
        system = tiny_system(0.0, 0.0)
        r = predict_energy(np.array([10.0, 20.0]), np.array([1.0, 1.0]), system)
        assert r.chosen == 0

    def test_tie_break_lowest_index(self):
        system = tiny_system(0.0, 0.0)
        r = predict_energy(np.array([5.0, 5.0, 5.0]), np.ones(3), system)
        assert r.chosen == 0

    def test_matches_exhaustive_scan(self):
        system = tiny_system(0.012, 0.034)
        rng = np.random.default_rng(17)
        for _ in range(25):
            power = rng.uniform(10, 500, size=9)
            time = rng.uniform(0.1, 4.0, size=9)
            r = predict_energy(power, time, system)
            # independent scan: recompute every config's whole-system energy
            statics = (0.012 + 0.034) * 1000.0
            best, best_e = 0, np.inf
            for j in range(9):
                e = time[j] * (power[j] + statics)
                if e < best_e:
                    best, best_e = j, e
            assert r.chosen == best

    def test_scaling_invariance(self):
        system = tiny_system(0.0, 0.0)
        rng = np.random.default_rng(4)
        power = rng.uniform(10, 100, 20)
        time = rng.uniform(0.1, 2.0, 20)
        base = predict_energy(power, time, system).chosen
        for c in (1e-3, 7.0, 1e4):
            assert predict_energy(power * c, time, system).chosen == base

    def test_non_positive_time_clamped_and_flagged(self):
        system = tiny_system(0.0, 0.0)
        time = np.array([1.0, -0.5, 2.0])
        r = predict_energy(np.full(3, 10.0), time, system)
        assert r.clamped == (1,)
        assert r.time[1] == pytest.approx(1e-3)
        assert (r.time > 0).all()
        # 1e-3 of the row's smallest positive time; 1e-3 when no time is positive
        r = predict_energy(np.full(3, 10.0), np.array([4.0, 0.0, 2.0]), system)
        assert r.clamped == (1,) and r.time[1] == 2e-3
        r = predict_energy(np.full(2, 10.0), np.array([0.0, -1.0]), system[:1])
        assert r.clamped == (0, 1) and (r.time == 1e-3).all()

    def test_provenance_flags(self):
        system = tiny_system(0.0, 0.0)
        r = predict_energy(np.ones(4), np.ones(4), system, observed_idx=(1, 3))
        assert r.provenance == ("predicted", "observed-sample", "predicted", "observed-sample")


class TestPipeline:
    def test_gpu_dominant_apps_select_gpu(self):
        from heterotune.energy import static_power_mw

        sys_g = generate_system(
            SyntheticSpec(n_apps=8, rank=4, noise_sd=0.02, affinity_mix=1.0, seed=21)
        )
        m = sys_g.matrix
        gpu_cols = set(m.platform_config_indices("quadro-k620"))
        statics = static_power_mw(m.system)
        # known-optimum construction: keep the apps whose retained truth puts
        # the optimum on the GPU with a clear margin
        dominant = []
        for i, app in enumerate(m.apps):
            truth_e = sys_g.truth_time[i] * (sys_g.truth_power[i] + statics)
            cpu_best = min(e for j, e in enumerate(truth_e) if j not in gpu_cols)
            gpu_best = min(e for j, e in enumerate(truth_e) if j in gpu_cols)
            if gpu_best * 1.3 < cpu_best:
                dominant.append(app.app_id)
        assert dominant, "construction should produce GPU-dominant apps"
        for app_id in dominant[:3]:
            plan = select_samples(m.n_configs, 15, seed=2, target_app=app_id)
            result = predict_best_config(m, app_id, plan)
            assert result.chosen in gpu_cols

    def test_full_plan_equals_brute_force(self, ci_system):
        m = ci_system.matrix
        app = m.apps[1].app_id
        plan = select_samples(m.n_configs, m.n_configs, seed=0, target_app=app)
        result = predict_best_config(m, app, plan)
        chosen, energy = brute_force_best(m, app)
        assert result.chosen == chosen
        assert result.energy[result.chosen] == pytest.approx(energy, rel=1e-12)

    def test_sampled_cells_clamped(self, ci_system):
        m = ci_system.matrix
        app = m.apps[2].app_id
        plan = select_samples(m.n_configs, 15, seed=5, target_app=app)
        result = predict_best_config(m, app, plan)
        row = m.app_index(app)
        idx = list(plan.sample_configs)
        np.testing.assert_array_equal(result.power[idx], m.power[row, idx])
        np.testing.assert_array_equal(result.time[idx], m.time[row, idx])

    def test_determinism_bit_identical(self, ci_system):
        m = ci_system.matrix
        app = m.apps[0].app_id
        plan = select_samples(m.n_configs, 15, seed=11, target_app=app)
        r1 = predict_best_config(m, app, plan)
        r2 = predict_best_config(m, app, plan)
        assert r1.chosen == r2.chosen
        np.testing.assert_array_equal(r1.energy, r2.energy)

    @pytest.mark.parametrize("factor", [1e-3, 1e3, 3600.0])
    @pytest.mark.parametrize("profile", ["ci", "full"])
    def test_time_units_change_no_pick(self, profile, factor):
        # every training and sampled time multiplied by one factor (a change
        # of units) shifts each log time column, which centring absorbs: the
        # same pick, times scaled by the factor and the same powers
        m, _ = _system_and_features(profile)
        for k in (1, 2):
            for app in m.apps:
                plan = select_samples(m.n_configs, 15, 1000 * k + app.app_id, app.app_id)
                view, samples = mask_application(m, app.app_id, plan)
                ref = predict_new_app(view, samples)
                got = predict_new_app(dataclasses.replace(view, time=view.time * factor),
                                      dataclasses.replace(samples, time=samples.time * factor))
                assert got.chosen == ref.chosen
                np.testing.assert_allclose(got.time, ref.time * factor, rtol=1e-9)
                np.testing.assert_allclose(got.power, ref.power, rtol=1e-9)

    def test_plan_below_minimum_rejected(self, ci_system):
        m = ci_system.matrix
        plan = select_samples(m.n_configs, 9, seed=1, target_app=m.apps[0].app_id)
        with pytest.raises(InsufficientSamplesError):
            predict_best_config(m, m.apps[0].app_id, plan)

    def test_new_app_prediction(self, ci_system):
        from heterotune.dataset import SampleSet

        m = ci_system.matrix
        rng = np.random.default_rng(3)
        idx = tuple(int(i) for i in np.sort(rng.choice(m.n_configs, 15, replace=False)))
        samples = SampleSet(
            app_id=99,
            config_indices=idx,
            power=m.power[0, list(idx)] * 1.1,
            time=m.time[0, list(idx)] * 0.9,
        )
        result = predict_new_app(m, samples)
        assert 0 <= result.chosen < m.n_configs
        # their logarithms are completed, so a non-positive sample is
        # rejected where the sample set is built
        for name in ("power", "time"):
            values = getattr(samples, name).copy()
            values[0] = 0.0
            with pytest.raises(ValueError, match="must be positive"):
                dataclasses.replace(samples, **{name: values})

    def test_training_set_without_rows_rejected(self, ci_system):
        m = ci_system.matrix
        _, samples = mask_application(m, 1, select_samples(m.n_configs, 15, seed=1))
        empty = dataclasses.replace(m, apps=(), power=m.power[:0], time=m.time[:0])
        with pytest.raises(ValueError, match="^no training row besides the target application 1$"):
            predict_new_app(empty, samples)

    def test_target_in_the_training_rows_rejected(self, ci_system):
        # the target's own measured row would be fitted as training data
        m = ci_system.matrix
        view, samples = mask_application(m, 1, select_samples(m.n_configs, 15, seed=1))
        with pytest.raises(ValueError, match="app_id 1 is a training row of the matrix"):
            predict_new_app(m, samples)
        assert predict_new_app(view, samples).chosen == \
            predict_best_config(m, 1, select_samples(m.n_configs, 15, seed=1)).chosen

    def test_single_predictor_mode(self, ci_system):
        # one GPU platform's configurations get the [1, w, w^2] basis, so
        # three samples are enough
        m = ci_system.matrix
        gpu_cols = m.platform_config_indices("ci-gpu")
        sub = m.select_configs(gpu_cols)
        assert feature_matrix(m).shape == (m.n_configs, 10)
        np.testing.assert_array_equal(
            feature_matrix(sub), [quadratic_features((float(c.cores),)) for c in sub.configs]
        )
        app = m.apps[0].app_id
        plan = select_samples(sub.n_configs, 3, seed=7, target_app=app)
        result = predict_best_config(sub, app, plan)
        assert 0 <= result.chosen < len(gpu_cols)

    def test_full_profile_predictions_converge(self):
        for app_id, result in _panel_predictions("full"):
            assert result.converged, app_id

    def test_ci_profile_predictions_converge(self):
        for app_id, result in _panel_predictions("ci"):
            assert result.converged, app_id

    @pytest.mark.parametrize("profile", ["ci", "full"])
    def test_panel_fits_stop_within_ten_iterations(self, profile, monkeypatch):
        # the predictions of the two tests above, fit by fit; a slow
        # direction in EM shows here as hundreds of iterations
        iters = _count_em_iterations(monkeypatch)
        predictions = list(_panel_predictions(profile))
        assert len(iters) == 2 * len(predictions)
        assert max(iters) <= 10, iters

    @pytest.mark.parametrize("profile, plans_per_app, median", [("full", 3, 2), ("ci", 12, 3)])
    def test_panel_fits_start_at_the_ml_noise_variance(self, profile, plans_per_app, median,
                                                       monkeypatch):
        # the benchmark's quality panels (54 full and 72 ci predictions).
        # EM starts at the maximum-likelihood PPCA sigma^2; started at the
        # mean of the min(N, D) - K eigenvalues past K instead (on full at
        # K = 2, about 24 times larger) it took a median 3 and 4 iterations
        iters = _count_em_iterations(monkeypatch)
        predictions = list(_panel_predictions(profile, plans_per_app))
        assert len(iters) == 2 * len(predictions)
        assert np.median(iters) <= median, sorted(iters)

    def test_ci_fits_stop_quickly_over_many_plans(self, monkeypatch):
        # twelve plans per application: on some plans of app 4 a latent
        # factor is carried by the target row alone, and an EM that imputes
        # the target's unsampled cells grew their loadings for 120-170
        # iterations, so the cost of a prediction depended on its plan
        iters = _count_em_iterations(monkeypatch)
        predictions = list(_panel_predictions("ci", plans_per_app=12))
        assert len(iters) == 2 * len(predictions) == 144
        assert max(iters) <= 25, sorted(iters)[-10:]

    @settings(max_examples=15, deadline=None)
    @given(
        noise_sd=st.floats(0.0, 0.1),
        seed=st.integers(0, 2**32 - 1),
        app_index=st.integers(0, 5),
        plan_seed=st.integers(0, 2**32 - 1),
    )
    def test_invariants_over_generated_systems(self, noise_sd, seed, app_index, plan_seed):
        spec = SyntheticSpec(n_apps=6, platforms=CI_SYSTEM, rank=3, noise_sd=noise_sd, seed=seed)
        m = generate_system(spec).matrix
        app = m.apps[app_index].app_id
        plan = select_samples(m.n_configs, 15, plan_seed, target_app=app)
        r1 = predict_best_config(m, app, plan)
        r2 = predict_best_config(m, app, plan)
        for values in (r1.power, r1.time, r1.energy):
            assert np.isfinite(values).all() and (values > 0).all()
        assert r1.clamped == ()
        assert r1.chosen == int(np.argmin(r1.energy))
        row, idx = m.app_index(app), list(plan.sample_configs)
        np.testing.assert_array_equal(r1.power[idx], m.power[row, idx])
        np.testing.assert_array_equal(r1.time[idx], m.time[row, idx])
        assert r1.chosen == r2.chosen
        for a, b in ((r1.power, r2.power), (r1.time, r2.time), (r1.energy, r2.energy)):
            np.testing.assert_array_equal(a, b)
