import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heterotune import estimator
from heterotune.dataset import (
    DEFAULT_APPLICATIONS,
    build_training_matrix,
    mask_application,
    select_samples,
)
from heterotune.errors import InsufficientSamplesError
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


def direct_loglik(state, training_rows, obs, observed_values):
    """Observed-data Gaussian log-likelihood at a fit's (W, mu, sigma^2),
    from the dense covariance C = W W^T + sigma^2 I in columns z-scored
    with the training rows' statistics, as em_fit scores them."""
    W, mu = state.loadings, state.mean
    C = W @ W.T + state.noise_var * np.eye(mu.size)
    col_mean = training_rows.mean(axis=0)
    col_scale = training_rows.std(axis=0)
    col_scale = np.where(col_scale > 1e-12, col_scale, 1.0)
    rows = (training_rows - col_mean) / col_scale - mu
    y = (observed_values - col_mean[obs]) / col_scale[obs] - mu[obs]
    total = 0.0
    for r, c in ((rows, C), (y[None, :], C[np.ix_(obs, obs)])):
        _, logdet = np.linalg.slogdet(c)
        quad = (r * np.linalg.solve(c, r.T).T).sum()
        total -= 0.5 * (r.shape[0] * (r.shape[1] * np.log(2 * np.pi) + logdet) + quad)
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


def naive_initial_parameters(Ys, init_s, latent_dim):
    """em_fit's starting point by its definition: one explicit SVD of the
    training block, projection of the regression row onto its top right
    singular vectors, and one explicit SVD of the stacked rows."""
    n_train, D = Ys.shape
    N = n_train + 1
    K = max(1, min(latent_dim, D - 1, N - 1))
    tr_mean = Ys.mean(axis=0)
    _, sv_tr, vt_tr = np.linalg.svd(Ys - tr_mean, full_matrices=False)
    lam_tr = sv_tr**2 / n_train
    k_proj = int(np.count_nonzero(lam_tr > max(1e-9 * lam_tr[0], 1e-12)))
    basis = vt_tr[: max(1, min(K, k_proj))]
    stacked = np.vstack([Ys, (init_s - tr_mean) @ basis.T @ basis + tr_mean])
    mu = stacked.mean(axis=0)
    _, sv, vt = np.linalg.svd(stacked - mu, full_matrices=False)
    lam = sv**2 / N
    s2 = max(float(lam[K:].mean()) if lam.size > K else SIGMA2_FLOOR, SIGMA2_FLOOR)
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
        mu, W, s2, K = estimator._initial_parameters(block, init_s, latent_dim)
        mu_ref, W_ref, s2_ref, K_ref = naive_initial_parameters(block.rows, init_s, latent_dim)
        assert K == K_ref == W.shape[1]
        assert s2 == pytest.approx(s2_ref, rel=1e-9)
        # loadings' signs are arbitrary; the z-scored columns set the unit
        for got, ref in ((mu, mu_ref), (W @ W.T, W_ref @ W_ref.T)):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(ref).max()))

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
        # Additive noise is heteroscedastic once columns are z-scored, and on
        # a few draws one extra component lowers the held-out error by more
        # than a standard error; the rule never drops a planted component.
        picks = [select_latent_dim(rank_k_matrix(17, 393, rank, seed, noise_sd=0.05),
                                   _sampled_cells(393, 15, seed + 100), 5)
                 for seed in range(20)]
        assert set(picks) <= {rank, rank + 1}
        assert picks.count(rank) >= 17

    @pytest.mark.parametrize("n_train", [1, 2, 3])
    def test_too_few_rows_give_rank_one(self, n_train):
        rows = rank_k_matrix(n_train, 40, 1, seed=4, noise_sd=0.1)
        assert select_latent_dim(rows, _sampled_cells(40, 15, 5), 5) == 1

    @pytest.mark.parametrize("zscored", [True, False])
    @pytest.mark.parametrize("shape, n_obs", [((17, 393), 15), ((6, 40), 15), ((9, 12), 4), ((12, 9), 3)])
    def test_row_space_errors_match_explicit_svd(self, shape, n_obs, zscored):
        n, D = shape
        rng = np.random.default_rng(n * D)
        Ys = rng.standard_normal(shape) * rng.uniform(0.5, 3.0, D) + rng.standard_normal(D)
        if zscored:
            Ys = (Ys - Ys.mean(axis=0)) / Ys.std(axis=0)
        obs = _sampled_cells(D, n_obs, D)
        k_max = min(5, n - 2, D - 1)
        np.testing.assert_allclose(held_out_errors(*estimator._row_space(Ys)[1:], obs, k_max),
                                   naive_held_out_errors(Ys, obs, k_max), rtol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20), D=st.integers(2, 60), rank=st.integers(1, 5),
           noise_sd=st.floats(0.0, 0.5), latent_dim=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pick_in_range_deterministic_and_unit_free(self, n, D, rank, noise_sd, latent_dim,
                                                       seed, data):
        rows = rank_k_matrix(n, D, min(rank, n, D), seed, noise_sd)
        obs = _sampled_cells(D, data.draw(st.integers(1, D)), seed)
        k = select_latent_dim(rows, obs, latent_dim)
        assert 1 <= k <= max(1, min(latent_dim, n - 2, D - 1))
        assert select_latent_dim(rows.copy(), obs.copy(), latent_dim) == k
        col = data.draw(st.integers(0, D - 1))
        rescaled = rows.copy()
        rescaled[:, col] *= data.draw(st.sampled_from([1e-3, 0.5, 7.0, 1e4]))
        assert select_latent_dim(rescaled, obs, latent_dim) == k


def _composed_prediction(view, samples):
    """``predict_new_app`` spelled out in public calls on raw arrays: the
    rank choice, the completion at that rank, ``exp`` with the sampled
    cells passed through, and the energy argmin."""
    feats, idx = feature_matrix(view), samples.config_indices
    rows = []
    for quantity in ("power", "time"):
        logs, sampled = np.log(getattr(view, quantity)), getattr(samples, quantity)
        k = select_latent_dim(logs, idx, estimator.MAX_LATENT_DIM)
        state, completed = complete_row(logs, idx, np.log(sampled), feats,
                                        EstimatorParams(latent_dim=k))
        row = np.exp(completed)
        row[list(idx)] = sampled
        rows.append(row)
    return predict_energy(*rows, view.system, observed_idx=idx,
                          min_observed_time=float(np.min(view.time)))


GPU_ONLY_HOST = (CI_SYSTEM[0], DEFAULT_SYSTEM[1])   # the GPU has 9 configurations


class TestPreparedBlock:
    """``predict_new_app`` z-scores and factors each quantity's training rows
    once and hands that block to the rank choice and to EM; every result
    must equal the one from raw arrays bit for bit."""

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
        got, ref = predict_new_app(view, samples), _composed_prediction(view, samples)
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

    def test_full_system_prediction_factors_each_quantity_once(self, monkeypatch):
        # the rank choice and EM's start share one thin QR per quantity
        m, _ = _system_and_features("full")
        shapes = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(estimator.np.linalg, "qr", spy)
        app = m.apps[0].app_id
        predict_best_config(m, app, select_samples(m.n_configs, 15, 1001, app))
        assert shapes == [(m.n_configs, m.n_apps - 2)] * 2


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
        r = predict_energy(np.full(3, 10.0), time, system, min_observed_time=1.0)
        assert r.clamped == (1,)
        assert r.time[1] == pytest.approx(1e-3)
        assert (r.time > 0).all()

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
        from heterotune.evaluation import brute_force_best

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
