"""The kw-only config API: positional construction refused,
immutability, ``dataclasses.replace``, and validation."""

import dataclasses
import warnings

import pytest

from repro.config import KB, ChannelConfig, HardwareConfig
from repro.mpich2.channels.basic import BasicChannel

ALL_CONFIGS = (HardwareConfig, ChannelConfig)


class TestPositionalShim:
    """The one-release positional shim is gone: every config class and
    every channel constructor is keyword-only."""

    @pytest.mark.parametrize("build", [
        lambda: HardwareConfig(1.0),
        lambda: ChannelConfig(256 * KB, 32 * KB),
        lambda: ChannelConfig(256 * KB, regcache_capacity=8),
        lambda: BasicChannel(0, None, None),
    ], ids=["HardwareConfig", "ChannelConfig", "ChannelConfig-mixed",
            "channel"])
    def test_positional_construction_is_type_error(self, build):
        with pytest.raises(TypeError, match="positional"):
            build()

    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_keyword_construction_is_clean(self, cls):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cls()  # defaults


class TestReplaceAndImmutability:
    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_frozen(self, cls):
        cfg = cls()
        field = next(iter(cfg.__dataclass_fields__))
        with pytest.raises(Exception):
            setattr(cfg, field, 0)

    def test_replace_returns_new_instance(self):
        base = ChannelConfig()
        small = dataclasses.replace(base, ring_size=64 * KB,
                                    chunk_size=8 * KB)
        assert small.ring_size == 64 * KB
        assert base.ring_size == 128 * KB  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            # not a divisor of the ring
            dataclasses.replace(ChannelConfig(), chunk_size=100 * KB)


class TestValidation:
    def test_channel_config_rules(self):
        with pytest.raises(ValueError, match="multiple"):
            ChannelConfig(ring_size=100 * KB, chunk_size=16 * KB)
        with pytest.raises(ValueError, match="too small"):
            ChannelConfig(ring_size=1024, chunk_size=128)
        with pytest.raises(ValueError, match="tail_update_fraction"):
            ChannelConfig(tail_update_fraction=1.5)
