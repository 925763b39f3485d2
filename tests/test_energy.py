import numpy as np
import pytest

from heterotune.energy import (
    RunMeasurement,
    static_power_mw,
    total_energy_row,
)
from heterotune.platforms import NativeConfig, PlatformKind

from conftest import tiny_system


def one_run(system, dynamic_mj, duration_s):
    """Whole-system energy of a single run given its dynamic energy."""
    return float(total_energy_row([dynamic_mj / duration_s], [duration_s], system)[0])


class TestStaticEnergy:
    def test_zero_power(self):
        system = tiny_system(cpu_static=0.0, gpu_static=0.0)
        assert static_power_mw(system) == 0
        assert one_run(system, 0.0, 12.5) == 0

    def test_zero_duration(self):
        system = tiny_system(cpu_static=7.0, gpu_static=3.0)
        assert total_energy_row([5.0], [0.0], system)[0] == 0

    def test_unit_conversion(self):
        # 10 W is 10000 mW; over 2 s that is 20 J, i.e. 20000 mJ
        system = tiny_system(cpu_static=10.0, gpu_static=0.0)
        assert static_power_mw(system) == 10000
        assert one_run(system, 0.0, 2.0) == 20000


class TestTotalEnergy:
    def test_zero_statics_total_is_dynamic(self):
        system = tiny_system(cpu_static=0.0, gpu_static=0.0)
        assert one_run(system, dynamic_mj=123.0, duration_s=9.0) == pytest.approx(123.0)

    def test_hand_sum_two_platform(self):
        # dynamic 100 mJ; statics 0.02 W and 0.03 W over 1 s are 20 and 30 mJ
        system = tiny_system(cpu_static=0.02, gpu_static=0.03)
        assert one_run(system, dynamic_mj=100.0, duration_s=1.0) == pytest.approx(150.0)

    def test_symmetry_when_roles_swap(self):
        # columns 0-1 are CPU configurations, column 2 the GPU one: the same
        # run costs the same whichever platform is active
        system = tiny_system(cpu_static=0.02, gpu_static=0.03)
        row = total_energy_row([100.0, 100.0, 100.0], [1.0, 1.0, 1.0], system)
        assert row[0] == row[1] == row[2] == pytest.approx(150.0)

    def test_idle_platforms_have_zero_dynamic_and_appear_once(self):
        # with no dynamic power left, a run pays each platform's static
        # draw exactly once: (20 + 30) mW over 2 s
        system = tiny_system(cpu_static=0.02, gpu_static=0.03)
        row = total_energy_row([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], system)
        np.testing.assert_allclose(row, 100.0, rtol=1e-12)

    def test_additivity_in_each_term(self):
        system = tiny_system(cpu_static=0.02, gpu_static=0.03)
        base = one_run(system, 100.0, 1.0)
        for delta in (1.0, 17.5):
            less = one_run(system, 100.0 - delta, 1.0)
            assert base - less == pytest.approx(delta, rel=1e-12)


class TestDynamicVsTotalDivergence:
    def test_argmin_crossover_is_representable(self):
        # GPU wins on dynamic energy but loses once the idle CPU's static
        # draw is charged for its longer run.
        system = tiny_system(cpu_static=0.03, gpu_static=0.02)
        cpu_dyn, cpu_t = 100.0, 1.0
        gpu_dyn, gpu_t = 80.0, 1.6
        assert gpu_dyn < cpu_dyn
        row = total_energy_row([cpu_dyn / cpu_t, gpu_dyn / gpu_t], [cpu_t, gpu_t], system)
        assert row[0] == pytest.approx(150.0)
        assert row[1] == pytest.approx(160.0)
        assert int(np.argmin(row)) == 0


class TestTotalEnergyRow:
    def test_matches_scalar_route(self):
        # one configuration at a time in Python floats: dynamic energy plus
        # every platform's static power times the duration
        system = tiny_system(cpu_static=0.02, gpu_static=0.03)
        power = np.array([100.0, 50.0, 75.0])
        time = np.array([1.0, 2.0, 0.5])
        row = total_energy_row(power, time, system)
        for j in range(3):
            scalar = float(power[j]) * float(time[j]) + (20.0 + 30.0) * float(time[j])
            assert row[j] == pytest.approx(scalar, rel=1e-12)

    def test_static_power_sum(self):
        system = tiny_system(cpu_static=0.25, gpu_static=0.75)
        assert static_power_mw(system) == pytest.approx(1000.0)


class TestRunMeasurement:
    def test_mean_power(self):
        cfg = NativeConfig("tiny-cpu", PlatformKind.CPU, 1, 1.0, 1)
        m = RunMeasurement(app_id=1, config=cfg, mean_power=0.1 + 0.2, mean_time=3.0)
        assert m.mean_power == 0.1 + 0.2

    def test_validation(self):
        cfg = NativeConfig("tiny-cpu", PlatformKind.CPU, 1, 1.0, 1)
        with pytest.raises(ValueError):
            RunMeasurement(1, cfg, mean_power=1.0, mean_time=0.0)
        for power in (-1.0, 0.0):
            with pytest.raises(ValueError, match="non-positive power"):
                RunMeasurement(1, cfg, mean_power=power, mean_time=1.0)

    @pytest.mark.parametrize("field", ["mean_power", "mean_time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_by_name(self, field, value):
        # NaN <= 0 is False, so a positivity check alone lets NaN through
        cfg = NativeConfig("tiny-cpu", PlatformKind.CPU, 1, 1.0, 1)
        fields = {"mean_power": 1.0, "mean_time": 1.0, field: np.float64(value)}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            RunMeasurement(1, cfg, **fields)
