import numpy as np
import pytest
from hypothesis import given, strategies as st

from heterotune.platforms import (
    DEFAULT_CPU,
    DEFAULT_GPU,
    DEFAULT_SYSTEM,
    NativeConfig,
    PlatformKind,
    PlatformSpec,
    build_frequency_index,
    enumerate_configs,
    equiv_cores,
    equiv_mem,
    load_system,
    per_core_flops,
    reference_platform,
    save_system,
    unify,
    unify_system,
)


def make_spec(name, kind, cores, gflops, bw, ctl, freqs, workgroups=()):
    return PlatformSpec(
        name=name,
        kind=kind,
        total_cores=cores,
        peak_gflops=gflops,
        peak_bandwidth=bw,
        mem_controllers=ctl,
        frequencies=freqs,
        static_power=1.0,
        workgroup_sizes=workgroups,
    )


class TestPerCoreFlops:
    def test_cpu_reference_value(self):
        assert per_core_flops(DEFAULT_CPU) == pytest.approx(115.2 / 24)
        assert per_core_flops(DEFAULT_CPU) == pytest.approx(4.8)

    def test_gpu_reference_value(self):
        assert per_core_flops(DEFAULT_GPU) == pytest.approx(860 / 384)
        assert round(per_core_flops(DEFAULT_GPU), 2) == 2.24

    def test_ratio_identity(self):
        spec = make_spec("x", PlatformKind.CPU, 7, 7.0, 10.0, 1, (1.0,))
        assert per_core_flops(spec) == 1.0


class TestEquivalence:
    def test_gpu_core_in_cpu_units(self):
        assert equiv_cores(DEFAULT_GPU, DEFAULT_CPU, 1) == pytest.approx(0.467, abs=0.005)

    def test_same_platform_identity(self):
        for n in (1, 7, 24):
            assert equiv_cores(DEFAULT_CPU, DEFAULT_CPU, n) == n
            assert equiv_mem(DEFAULT_GPU, DEFAULT_GPU, n) == n

    def test_core_linearity_against_direct_multiplication(self):
        unit = equiv_cores(DEFAULT_GPU, DEFAULT_CPU, 1)
        assert equiv_cores(DEFAULT_GPU, DEFAULT_CPU, 384) == pytest.approx(384 * unit, rel=1e-12)

    def test_mem_controller_in_cpu_units(self):
        assert equiv_mem(DEFAULT_GPU, DEFAULT_CPU, 1) == pytest.approx(28.8 / 68)
        assert equiv_mem(DEFAULT_GPU, DEFAULT_CPU, 1) == pytest.approx(0.424, abs=0.005)

    def test_mem_linearity_against_direct_multiplication(self):
        unit = equiv_mem(DEFAULT_GPU, DEFAULT_CPU, 1)
        assert equiv_mem(DEFAULT_GPU, DEFAULT_CPU, 2) == pytest.approx(2 * unit, rel=1e-12)

    @given(
        st.floats(1.0, 1000.0),
        st.floats(1.0, 1000.0),
        st.integers(1, 512),
        st.integers(1, 512),
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
    )
    def test_linearity_and_reciprocity(self, ga, gb, ca, cb, n, a):
        pa = make_spec("a", PlatformKind.CPU, ca, ga, 10.0, 1, (1.0,))
        pb = make_spec("b", PlatformKind.CPU, cb, gb, 10.0, 1, (1.0,))
        assert equiv_cores(pa, pb, a * n) == pytest.approx(a * equiv_cores(pa, pb, n), rel=1e-12)
        back = equiv_cores(pa, pb, equiv_cores(pb, pa, n))
        assert back == pytest.approx(n, rel=1e-9)


class TestFrequencyIndex:
    def test_reference_interleaving(self):
        fidx = build_frequency_index(DEFAULT_SYSTEM)
        assert fidx.index_of("quadro-k620", 1.73) == 6
        assert fidx.index_of("xeon-e5-2650lv3", 1.8) == 7
        assert fidx.index_of("xeon-e5-2650lv3", 1.81) == 8
        assert [fidx.index_of("xeon-e5-2650lv3", f) for f in (1.2, 1.3, 1.4, 1.5, 1.6, 1.7)] == [0, 1, 2, 3, 4, 5]

    def test_single_platform_contiguous(self):
        fidx = build_frequency_index([DEFAULT_CPU])
        assert [e.index for e in fidx.entries] == list(range(8))

    def test_sort_oracle(self):
        cpu = make_spec("c", PlatformKind.CPU, 2, 2.0, 10.0, 1, (1.0, 2.0))
        gpu = make_spec("g", PlatformKind.GPU, 2, 2.0, 10.0, 1, (1.5,), (1,))
        fidx = build_frequency_index([cpu, gpu])
        assert fidx.index_of("c", 1.0) == 0
        assert fidx.index_of("g", 1.5) == 1
        assert fidx.index_of("c", 2.0) == 2
        # oracle: the merged table is the plain sort of all input frequencies
        merged = sorted([1.0, 2.0, 1.5])
        assert [e.freq for e in fidx.entries] == merged

    def test_permutation_property(self):
        fidx = build_frequency_index(DEFAULT_SYSTEM)
        freqs = [e.freq for e in fidx.entries]
        assert freqs == sorted(freqs)
        assert sorted(freqs) == sorted(DEFAULT_CPU.frequencies + DEFAULT_GPU.frequencies)
        assert [e.index for e in fidx.entries] == list(range(len(freqs)))

    def test_tie_break_reference_first(self):
        cpu = make_spec("c", PlatformKind.CPU, 2, 2.0, 10.0, 1, (1.5,))
        gpu = make_spec("g", PlatformKind.GPU, 2, 2.0, 10.0, 1, (1.5,), (1,))
        fidx = build_frequency_index([cpu, gpu])
        assert fidx.index_of("c", 1.5) == 0
        assert fidx.index_of("g", 1.5) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_frequency_index([])


class TestUnify:
    def setup_method(self):
        self.fidx = build_frequency_index(DEFAULT_SYSTEM)

    def test_reference_platform_identity(self):
        cfg = NativeConfig("xeon-e5-2650lv3", PlatformKind.CPU, 12, 1.2, 2)
        u = unify(cfg, DEFAULT_CPU, DEFAULT_CPU, self.fidx)
        assert (u.equiv_cores, u.freq_index, u.equiv_mem) == (12.0, 0, 2.0)

    def test_single_gpu_core_clamps_to_half(self):
        cfg = NativeConfig("quadro-k620", PlatformKind.GPU, 1, 1.73, 2)
        u = unify(cfg, DEFAULT_GPU, DEFAULT_CPU, self.fidx)
        assert u.equiv_cores == 0.5
        assert u.freq_index == 6
        assert u.equiv_mem == pytest.approx(2 * 28.8 / 68)

    def test_workgroup_two(self):
        cfg = NativeConfig("quadro-k620", PlatformKind.GPU, 2, 1.73, 2)
        u = unify(cfg, DEFAULT_GPU, DEFAULT_CPU, self.fidx)
        assert u.equiv_cores == pytest.approx(2 * equiv_cores(DEFAULT_GPU, DEFAULT_CPU, 1))

    def test_unknown_frequency_rejected(self):
        cfg = NativeConfig("quadro-k620", PlatformKind.GPU, 2, 1.5, 2)
        with pytest.raises(ValueError):
            unify(cfg, DEFAULT_GPU, DEFAULT_CPU, self.fidx)


class TestEnumerate:
    def test_reference_cpu_census(self):
        assert len(enumerate_configs([DEFAULT_CPU])) == 24 * 8 * 2 == 384

    def test_reference_system_census(self):
        assert len(enumerate_configs(DEFAULT_SYSTEM)) == 393

    def test_degenerate_single_config(self):
        spec = make_spec("one", PlatformKind.CPU, 1, 1.0, 1.0, 1, (1.0,))
        assert len(enumerate_configs([spec])) == 1

    def test_length_is_setting_product_and_unique(self):
        cfgs = enumerate_configs(DEFAULT_SYSTEM)
        expected = sum(len(s.native_settings) for s in DEFAULT_SYSTEM)
        assert len(cfgs) == expected
        assert len(set(cfgs)) == len(cfgs)

    def test_unify_system_alignment(self):
        configs, unified, fidx = unify_system(DEFAULT_SYSTEM)
        assert len(configs) == len(unified) == 393
        assert all(u.origin == c for u, c in zip(unified, configs))


class TestSpecValidation:
    def test_decreasing_frequencies_rejected(self):
        with pytest.raises(ValueError):
            make_spec("x", PlatformKind.CPU, 2, 2.0, 10.0, 1, (2.0, 1.0))

    def test_gpu_requires_workgroups(self):
        with pytest.raises(ValueError):
            make_spec("x", PlatformKind.GPU, 2, 2.0, 10.0, 1, (1.0,))

    def test_out_of_range_native_config_rejected(self):
        cfg = NativeConfig("xeon-e5-2650lv3", PlatformKind.CPU, 25, 1.2, 2)
        with pytest.raises(ValueError):
            DEFAULT_CPU.validate_config(cfg)

    def test_reference_platform_is_first_cpu(self):
        assert reference_platform(DEFAULT_SYSTEM) is DEFAULT_CPU
        with pytest.raises(ValueError):
            reference_platform([DEFAULT_GPU])


def test_system_file_round_trip(tmp_path):
    path = str(tmp_path / "system.conf")
    save_system(DEFAULT_SYSTEM, path)
    loaded = load_system(path)
    assert loaded == DEFAULT_SYSTEM
