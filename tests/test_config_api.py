"""The kw-only config API: positional construction refused,
from_dict/from_env, coercion, replace, and validation."""

import warnings

import pytest

from repro.config import KB, ChannelConfig, HardwareConfig
from repro.mpich2.channels.basic import BasicChannel
from repro.tune import TuneConfig

ALL_CONFIGS = (HardwareConfig, ChannelConfig, TuneConfig)


class TestPositionalShim:
    """The one-release positional shim is gone: every config class and
    every channel constructor is keyword-only."""

    @pytest.mark.parametrize("build", [
        lambda: HardwareConfig(1.0),
        lambda: ChannelConfig(256 * KB, 32 * KB),
        lambda: ChannelConfig(256 * KB, regcache_capacity=8),
        lambda: TuneConfig(True),
        lambda: BasicChannel(0, None, None),
    ], ids=["HardwareConfig", "ChannelConfig", "ChannelConfig-mixed",
            "TuneConfig", "channel"])
    def test_positional_construction_is_type_error(self, build):
        with pytest.raises(TypeError, match="positional"):
            build()

    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_keyword_construction_is_clean(self, cls):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cls()  # defaults
            cls.from_dict({})
            cls.from_env(env={})


class TestFromDict:
    def test_round_trip(self):
        cfg = ChannelConfig.from_dict({"ring_size": 64 * KB,
                                       "chunk_size": 8 * KB})
        assert cfg.ring_size == 64 * KB
        assert cfg.chunk_size == 8 * KB

    def test_unknown_key_raises_listing_fields(self):
        with pytest.raises(TypeError) as exc:
            ChannelConfig.from_dict({"ringsize": 64 * KB})
        msg = str(exc.value)
        assert "ringsize" in msg
        assert "ring_size" in msg  # valid fields are enumerated

    def test_values_still_validated(self):
        with pytest.raises(ValueError):
            ChannelConfig.from_dict({"ring_size": 100})  # not a multiple


class TestFromEnv:
    def test_default_prefix_and_int_coercion(self):
        cfg = ChannelConfig.from_env(
            env={"REPRO_CHANNELCONFIG_RING_SIZE": "65536",
                 "REPRO_CHANNELCONFIG_CHUNK_SIZE": "0x2000"})
        assert cfg.ring_size == 65536
        assert cfg.chunk_size == 0x2000  # int(raw, 0): hex accepted

    def test_unset_fields_keep_defaults(self):
        cfg = ChannelConfig.from_env(env={})
        assert cfg == ChannelConfig()

    def test_bool_and_float_coercion(self):
        cfg = ChannelConfig.from_env(
            env={"REPRO_CHANNELCONFIG_REGISTRATION_CACHE": "off",
                 "REPRO_CHANNELCONFIG_TAIL_UPDATE_FRACTION": "0.5"})
        assert cfg.registration_cache is False
        assert cfg.tail_update_fraction == 0.5
        on = ChannelConfig.from_env(
            env={"REPRO_CHANNELCONFIG_REGISTRATION_CACHE": "Yes"})
        assert on.registration_cache is True

    def test_bad_bool_raises(self):
        with pytest.raises(ValueError, match="boolean"):
            ChannelConfig.from_env(
                env={"REPRO_CHANNELCONFIG_REGISTRATION_CACHE": "maybe"})

    def test_custom_prefix(self):
        cfg = TuneConfig.from_env(prefix="T_",
                                  env={"T_SAMPLE_EVERY": "32",
                                       "T_ENABLED": "0"})
        assert cfg.sample_every == 32
        assert cfg.enabled is False

    def test_tune_config_default_prefix(self):
        cfg = TuneConfig.from_env(
            env={"REPRO_TUNECONFIG_CQ_POLL_BUDGET": "2"})
        assert cfg.cq_poll_budget == 2


class TestReplaceAndImmutability:
    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_frozen(self, cls):
        cfg = cls()
        field = next(iter(cfg.__dataclass_fields__))
        with pytest.raises(Exception):
            setattr(cfg, field, 0)

    def test_replace_returns_new_instance(self):
        base = ChannelConfig()
        small = base.replace(ring_size=64 * KB, chunk_size=8 * KB)
        assert small.ring_size == 64 * KB
        assert base.ring_size == 128 * KB  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            ChannelConfig().replace(chunk_size=100 * KB)  # not a divisor


class TestValidation:
    def test_channel_config_rules(self):
        with pytest.raises(ValueError, match="multiple"):
            ChannelConfig(ring_size=100 * KB, chunk_size=16 * KB)
        with pytest.raises(ValueError, match="too small"):
            ChannelConfig(ring_size=1024, chunk_size=128)
        with pytest.raises(ValueError, match="tail_update_fraction"):
            ChannelConfig(tail_update_fraction=1.5)
