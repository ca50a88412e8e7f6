"""Unit tests for configuration dataclasses."""

import pytest

from repro.config import (
    COMBINING_ONLY,
    FULL_EIRENE,
    DeviceConfig,
    EireneConfig,
    TreeConfig,
)
from repro.errors import ConfigError


class TestDeviceConfig:
    def test_defaults_model_a100(self):
        dev = DeviceConfig()
        assert dev.num_sms == 108
        assert dev.warp_size == 32
        assert dev.clock_ghz == pytest.approx(1.41)
        assert dev.segment_bytes == 128

    def test_words_per_segment(self):
        assert DeviceConfig().words_per_segment == 16

    def test_cycles_to_seconds(self):
        dev = DeviceConfig(clock_ghz=1.0)
        assert dev.cycles_to_seconds(1e9) == pytest.approx(1.0)

    def test_mem_transactions_per_second(self):
        dev = DeviceConfig(mem_bandwidth_gbps=128.0, segment_bytes=128)
        assert dev.mem_transactions_per_second == pytest.approx(1e9)

    def test_thread_slots(self):
        dev = DeviceConfig(num_sms=4, warp_size=32)
        assert dev.thread_slots == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sms": 0},
            {"num_sms": -1},
            {"warp_size": 0},
            {"warp_size": 31},  # not a power of two
            {"clock_ghz": 0.0},
            {"segment_bytes": 100},  # not a multiple of word size
            {"segment_bytes": 0},  # zero words per segment
            {"word_bytes": 0},
            {"word_bytes": -8},
            {"mem_bandwidth_gbps": 0.0},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            DeviceConfig(**kwargs)


class TestTreeConfig:
    def test_defaults(self):
        cfg = TreeConfig()
        assert cfg.fanout == 16

    def test_fanout_lower_bound(self):
        with pytest.raises(ConfigError):
            TreeConfig(fanout=3)

    def test_headroom_lower_bound(self):
        with pytest.raises(ConfigError):
            TreeConfig(arena_headroom=0.5)


class TestEireneConfig:
    def test_full_eirene_enables_everything(self):
        assert FULL_EIRENE.enable_locality
        assert FULL_EIRENE.enable_kernel_partition

    def test_combining_only_disables_locality(self):
        assert not COMBINING_ONLY.enable_locality

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            EireneConfig(stm_retry_threshold=-1)

    def test_zero_rgs_rejected(self):
        with pytest.raises(ConfigError):
            EireneConfig(rgs_per_iteration_warp=0)

    def test_replace_produces_new_config(self):
        cfg = FULL_EIRENE.replace(stm_retry_threshold=7)
        assert cfg.stm_retry_threshold == 7
        assert FULL_EIRENE.stm_retry_threshold == 3

    def test_frozen(self):
        with pytest.raises(Exception):
            FULL_EIRENE.stm_retry_threshold = 9  # type: ignore[misc]
