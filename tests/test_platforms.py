import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heterotune.errors import DataFormatError
from heterotune.platforms import (
    DEFAULT_CPU,
    DEFAULT_GPU,
    DEFAULT_SYSTEM,
    NativeConfig,
    PlatformKind,
    PlatformSpec,
    MIN_EQUIV_CORES,
    enumerate_configs,
    equiv_cores,
    equiv_mem,
    load_system,
    per_core_flops,
    save_system,
    unify_system,
)
from heterotune.synthetic import PROFILES


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


def freq_index(system):
    """{(platform, frequency): index} read off ``unify_system``'s array,
    checking that every configuration of a pair carries the same index."""
    configs, unified = unify_system(system)
    index = {}
    for cfg, (_, f_idx, _) in zip(configs, unified):
        assert index.setdefault((cfg.platform, cfg.freq), f_idx) == f_idx
    return index


def unified_row(system, cfg):
    configs, unified = unify_system(system)
    return tuple(unified[configs.index(cfg)])


class TestFrequencyIndex:
    def test_reference_interleaving(self):
        index = freq_index(DEFAULT_SYSTEM)
        assert index["quadro-k620", 1.73] == 6
        assert index["xeon-e5-2650lv3", 1.8] == 7
        assert index["xeon-e5-2650lv3", 1.81] == 8
        assert [index["xeon-e5-2650lv3", f] for f in (1.2, 1.3, 1.4, 1.5, 1.6, 1.7)] == [0, 1, 2, 3, 4, 5]

    def test_single_platform_contiguous(self):
        assert sorted(freq_index([DEFAULT_CPU]).values()) == list(range(8))

    def test_sort_oracle(self):
        cpu = make_spec("c", PlatformKind.CPU, 2, 2.0, 10.0, 1, (1.0, 2.0))
        gpu = make_spec("g", PlatformKind.GPU, 2, 2.0, 10.0, 1, (1.5,), (1,))
        index = freq_index([cpu, gpu])
        assert index["c", 1.0] == 0
        assert index["g", 1.5] == 1
        assert index["c", 2.0] == 2
        # oracle: the merged table is the plain sort of all input frequencies
        merged = sorted([1.0, 2.0, 1.5])
        assert [f for (_, f), _ in sorted(index.items(), key=lambda kv: kv[1])] == merged

    def test_permutation_property(self):
        index = freq_index(DEFAULT_SYSTEM)
        freqs = [f for (_, f), _ in sorted(index.items(), key=lambda kv: kv[1])]
        assert freqs == sorted(freqs)
        assert sorted(freqs) == sorted(DEFAULT_CPU.frequencies + DEFAULT_GPU.frequencies)
        assert sorted(index.values()) == list(range(len(freqs)))

    def test_tie_break_reference_first(self):
        cpu = make_spec("c", PlatformKind.CPU, 2, 2.0, 10.0, 1, (1.5,))
        gpu = make_spec("g", PlatformKind.GPU, 2, 2.0, 10.0, 1, (1.5,), (1,))
        index = freq_index([cpu, gpu])
        assert index["c", 1.5] == 0
        assert index["g", 1.5] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unify_system([])


class TestUnify:
    def test_reference_platform_identity(self):
        cfg = NativeConfig("xeon-e5-2650lv3", PlatformKind.CPU, 12, 1.2, 2)
        assert unified_row(DEFAULT_SYSTEM, cfg) == (12.0, 0, 2.0)

    def test_single_gpu_core_clamps_to_half(self):
        cfg = NativeConfig("quadro-k620", PlatformKind.GPU, 1, 1.73, 2)
        cores, f_idx, mem = unified_row(DEFAULT_SYSTEM, cfg)
        assert cores == 0.5
        assert f_idx == 6
        assert mem == pytest.approx(2 * 28.8 / 68)

    def test_workgroup_two(self):
        cfg = NativeConfig("quadro-k620", PlatformKind.GPU, 2, 1.73, 2)
        cores, _, _ = unified_row(DEFAULT_SYSTEM, cfg)
        assert cores == pytest.approx(2 * equiv_cores(DEFAULT_GPU, DEFAULT_CPU, 1))


FREQ_POOL = (1.0, 1.2, 1.5, 1.73, 1.8, 2.0)


@st.composite
def platform_specs(draw, name, kind):
    freqs = draw(st.lists(st.sampled_from(FREQ_POOL), min_size=1, max_size=4, unique=True))
    workgroups = ()
    if kind is PlatformKind.GPU:
        workgroups = tuple(draw(st.lists(st.integers(1, 256), min_size=1, max_size=4, unique=True)))
    return make_spec(
        name, kind,
        draw(st.integers(1, 6 if kind is PlatformKind.CPU else 512)),
        draw(st.floats(0.5, 1000.0)),
        draw(st.floats(0.5, 200.0)),
        draw(st.integers(1, 3)),
        tuple(sorted(freqs)),
        workgroups,
    )


@st.composite
def cpu_gpu_systems(draw):
    kinds = draw(st.permutations(
        [PlatformKind.CPU] * draw(st.integers(1, 2)) + [PlatformKind.GPU] * draw(st.integers(1, 2))
    ))
    return tuple(draw(platform_specs(f"p{i}", kind)) for i, kind in enumerate(kinds))


class TestUnifySystemProperties:
    @given(cpu_gpu_systems())
    def test_rows_match_the_paper_formulas(self, system):
        configs, unified = unify_system(system)
        assert configs == enumerate_configs(system)
        assert unified.shape == (len(configs), 3)
        ref = next(spec for spec in system if spec.kind is PlatformKind.CPU)
        # every declared (frequency, platform order) pair, ties broken by order
        pairs = [(f, order) for order, spec in enumerate(system) for f in spec.frequencies]
        row = 0
        for order, spec in enumerate(system):
            for cfg in spec.native_settings:
                cores = equiv_cores(spec, ref, cfg.cores)
                if spec.kind is PlatformKind.GPU:
                    cores = max(cores, MIN_EQUIV_CORES)
                rank = sum(1 for pair in pairs if pair < (cfg.freq, order))
                assert tuple(unified[row]) == (cores, rank, equiv_mem(spec, ref, cfg.mem))
                row += 1
        assert row == len(configs)

        on_ref = [i for i, cfg in enumerate(configs) if cfg.platform == ref.name]
        np.testing.assert_array_equal(unified[on_ref, 0], [configs[i].cores for i in on_ref])
        np.testing.assert_array_equal(unified[on_ref, 2], [configs[i].mem for i in on_ref])
        assert sorted(set(unified[:, 1])) == list(range(len(pairs)))


# Two GPUs and a CPU, several frequencies each.
TWO_GPU_SYSTEM = (
    make_spec("cpu", PlatformKind.CPU, 4, 64.0, 40.0, 2, (1.0, 1.5, 2.0)),
    make_spec("gpu-a", PlatformKind.GPU, 128, 500.0, 80.0, 2, (0.9, 1.2, 1.5), (1, 32, 256)),
    make_spec("gpu-b", PlatformKind.GPU, 64, 120.0, 25.6, 1, (1.2, 1.73), (8, 64)),
)
SYSTEMS = {"full": PROFILES["full"].platforms, "ci": PROFILES["ci"].platforms,
           "two-gpu": TWO_GPU_SYSTEM}


def reference_unified(system):
    """``unify_system``'s array, one configuration at a time."""
    ref = next(spec for spec in system if spec.kind is PlatformKind.CPU)
    merged = sorted((f, order) for order, spec in enumerate(system) for f in spec.frequencies)
    rows = []
    for order, spec in enumerate(system):
        for cfg in spec.native_settings:
            cores = equiv_cores(spec, ref, cfg.cores)
            if spec.kind is PlatformKind.GPU:
                cores = max(cores, MIN_EQUIV_CORES)
            rows.append((cores, merged.index((cfg.freq, order)), equiv_mem(spec, ref, cfg.mem)))
    return np.array(rows, dtype=float)


class TestConfigurationEquivalence:
    @staticmethod
    def assert_ids_match_formula(system):
        for cfg in enumerate_configs(system):
            knob = "w" if cfg.kind is PlatformKind.GPU else "c"
            assert cfg.config_id == f"{cfg.platform}:{knob}{cfg.cores}:f{cfg.freq!r}:m{cfg.mem}"
            assert cfg.config_id is cfg.config_id   # formatted once

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_config_id_is_the_formula(self, name):
        self.assert_ids_match_formula(SYSTEMS[name])

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_unified_array_equals_per_config_loop(self, name):
        configs, unified = unify_system(SYSTEMS[name])
        assert configs == enumerate_configs(SYSTEMS[name])
        assert np.array_equal(unified, reference_unified(SYSTEMS[name]))

    @given(cpu_gpu_systems())
    def test_config_id_is_the_formula_on_generated_systems(self, system):
        # TestUnifySystemProperties checks their unified rows
        self.assert_ids_match_formula(system)


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
        configs, unified = unify_system(DEFAULT_SYSTEM)
        assert configs == enumerate_configs(DEFAULT_SYSTEM)
        assert len(configs) == 393
        assert unified.shape == (393, 3) and unified.dtype == np.float64


class TestSpecValidation:
    def test_decreasing_frequencies_rejected(self):
        with pytest.raises(ValueError):
            make_spec("x", PlatformKind.CPU, 2, 2.0, 10.0, 1, (2.0, 1.0))

    def test_gpu_requires_workgroups(self):
        with pytest.raises(ValueError):
            make_spec("x", PlatformKind.GPU, 2, 2.0, 10.0, 1, (1.0,))

    def test_reference_platform_is_first_cpu(self):
        # a second CPU declared before the reference one would shift every
        # coordinate; the first CPU's own configurations keep integer counts
        second = make_spec("second", PlatformKind.CPU, 4, 40.0, 10.0, 1, (1.0,))
        configs, unified = unify_system((DEFAULT_GPU, DEFAULT_CPU, second))
        ref = [i for i, c in enumerate(configs) if c.platform == DEFAULT_CPU.name]
        np.testing.assert_array_equal(unified[ref, 0], [configs[i].cores for i in ref])
        np.testing.assert_array_equal(unified[ref, 2], [configs[i].mem for i in ref])
        with pytest.raises(ValueError, match="no CPU"):
            unify_system([DEFAULT_GPU])


def test_system_file_round_trip(tmp_path):
    path = str(tmp_path / "system.conf")
    save_system(DEFAULT_SYSTEM, path)
    loaded = load_system(path)
    assert loaded == DEFAULT_SYSTEM


POSITIVE = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def saved_specs(draw, name, kind):
    """Any valid descriptor of ``kind``, with arbitrary float values."""
    freqs = sorted(set(draw(st.lists(POSITIVE, min_size=1, max_size=5))))
    workgroups = ()
    if kind is PlatformKind.GPU:
        workgroups = tuple(draw(st.lists(st.integers(1, 1024), min_size=1, max_size=5)))
    return PlatformSpec(name, kind, draw(st.integers(1, 1024)), draw(POSITIVE), draw(POSITIVE),
                        draw(st.integers(1, 8)), tuple(freqs), draw(st.floats(0.0, 1e4)),
                        workgroups)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_system_file_round_trip(data):
    kinds = data.draw(st.permutations(
        [PlatformKind.CPU] * data.draw(st.integers(1, 2))
        + [PlatformKind.GPU] * data.draw(st.integers(0, 2))
    ))
    system = tuple(data.draw(saved_specs(f"p{i}", kind)) for i, kind in enumerate(kinds))
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.conf"), os.path.join(d, "b.conf")
        save_system(system, first)
        loaded = load_system(first)
        assert loaded == system
        save_system(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


class TestSystemFileKeys:
    @pytest.fixture
    def system_file(self, tmp_path):
        path = tmp_path / "system.conf"
        save_system(DEFAULT_SYSTEM, str(path))
        return path

    def test_unknown_field_rejected(self, system_file):
        # a field no descriptor reads would otherwise load and be dropped
        text = system_file.read_text()
        system_file.write_text(text.replace("kind = gpu\n", "kind = gpu\nidle_power = 99\n"))
        with pytest.raises(DataFormatError,
                           match=r"\[platform quadro-k620\] unknown field 'idle_power'"):
            load_system(str(system_file))

    def test_system_without_cpu_rejected(self, tmp_path):
        # the unified coordinates are relative to a reference CPU
        path = str(tmp_path / "gpu-only.conf")
        save_system((DEFAULT_GPU,), path)
        with pytest.raises(DataFormatError, match=f"{path}: no CPU platform"):
            load_system(path)

    def test_cpu_workgroup_sizes_rejected(self, system_file):
        # a CPU's settings never read workgroup sizes, though save_system
        # would write them back
        text = system_file.read_text()
        system_file.write_text(text.replace("kind = cpu\n", "kind = cpu\nworkgroup_sizes = 2, 4\n"))
        message = r"\[platform xeon-e5-2650lv3\]: .*only a GPU takes workgroup_sizes"
        with pytest.raises(DataFormatError, match=message):
            load_system(str(system_file))
        with pytest.raises(ValueError, match="only a GPU"):
            make_spec("x", PlatformKind.CPU, 2, 2.0, 10.0, 1, (1.0,), workgroups=(2,))
