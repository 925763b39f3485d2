import numpy as np
import pytest

from heterotune.platforms import PlatformKind
from heterotune.synthetic import (
    CI_SYSTEM,
    PROFILES,
    SyntheticSpec,
    generate_system,
)


class TestGenerateSystem:
    def test_noiseless_truth_equals_emitted(self):
        sys0 = generate_system(SyntheticSpec(n_apps=6, platforms=CI_SYSTEM, rank=3, noise_sd=0.0, seed=4))
        np.testing.assert_array_equal(sys0.matrix.power, sys0.truth_power)
        np.testing.assert_array_equal(sys0.matrix.time, sys0.truth_time)

    def test_seed_determinism(self):
        spec = SyntheticSpec(n_apps=6, platforms=CI_SYSTEM, rank=3, noise_sd=0.05, seed=9)
        a = generate_system(spec)
        b = generate_system(spec)
        np.testing.assert_array_equal(a.matrix.power, b.matrix.power)
        np.testing.assert_array_equal(a.matrix.time, b.matrix.time)
        np.testing.assert_array_equal(a.truth_time, b.truth_time)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 6])
    def test_spectral_rank_at_zero_noise(self, rank):
        spec = SyntheticSpec(n_apps=8, platforms=CI_SYSTEM, rank=rank, noise_sd=0.0, seed=rank)
        sys0 = generate_system(spec)
        for grid in (sys0.matrix.time, sys0.matrix.power):
            s = np.linalg.svd(grid, compute_uv=False)
            if rank < min(grid.shape):
                assert s[rank] / s[rank - 1] < 0.05

    def test_infeasible_rank_rejected(self):
        with pytest.raises(ValueError, match="infeasible rank"):
            generate_system(SyntheticSpec(n_apps=3, platforms=CI_SYSTEM, rank=7, noise_sd=0.0))

    def test_fully_observed_positive_grids(self):
        sys1 = generate_system(SyntheticSpec(n_apps=5, platforms=CI_SYSTEM, rank=3, noise_sd=0.08, seed=2))
        m = sys1.matrix
        assert m.mask.all()
        assert (m.power > 0).all() and (m.time > 0).all()

    def test_multi_run_protocol_averages_noisy_runs(self):
        noisy = generate_system(SyntheticSpec(n_apps=4, platforms=CI_SYSTEM, rank=2, noise_sd=0.05, seed=3))
        assert not np.array_equal(noisy.matrix.power, noisy.truth_power)
        # the mean of five 5 % draws stays well inside 5 % of the truth
        rel = np.abs(noisy.matrix.power / noisy.truth_power - 1.0)
        assert np.median(rel) < 0.05

    def test_time_decreases_with_parallelism_on_average(self):
        sys1 = generate_system(SyntheticSpec(n_apps=10, rank=3, noise_sd=0.0, seed=6))
        m = sys1.matrix
        one_core = [j for j, c in enumerate(m.configs)
                    if c.platform == "xeon-e5-2650lv3" and c.cores == 1]
        many_core = [j for j, c in enumerate(m.configs)
                     if c.platform == "xeon-e5-2650lv3" and c.cores == 24]
        assert m.time[:, one_core].mean() > m.time[:, many_core].mean()

    def test_power_increases_with_frequency_on_average(self):
        sys1 = generate_system(SyntheticSpec(n_apps=10, rank=3, noise_sd=0.0, seed=6))
        m = sys1.matrix
        low_f = [j for j, c in enumerate(m.configs)
                 if c.kind is PlatformKind.CPU and c.freq == 1.2]
        high_f = [j for j, c in enumerate(m.configs)
                  if c.kind is PlatformKind.CPU and c.freq == 1.81]
        assert m.power[:, high_f].mean() > m.power[:, low_f].mean()

    def test_app_catalog_extension(self):
        sysbig = generate_system(SyntheticSpec(n_apps=22, rank=3, noise_sd=0.0, seed=1))
        ids = [a.app_id for a in sysbig.matrix.apps]
        assert ids == list(range(1, 23))


class TestProfiles:
    def test_full_profile_shape(self):
        spec = PROFILES["full"]
        assert spec.n_apps == 18
        configs = sum(len(p.native_settings) for p in spec.platforms)
        assert configs == 393

    def test_ci_profile_shape(self):
        spec = PROFILES["ci"]
        assert spec.n_apps == 6
        configs = sum(len(p.native_settings) for p in spec.platforms)
        assert configs == 40
