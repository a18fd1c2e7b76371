"""The kw-only config API: positional construction refused,
immutability, ``dataclasses.replace``, validation, and every field
read by the simulator."""

import ast
import dataclasses
import warnings
from pathlib import Path

import pytest

import repro
from repro.config import KB, US, ChannelConfig, HardwareConfig
from repro.mpich2.channels.basic import BasicChannel

ALL_CONFIGS = (HardwareConfig, ChannelConfig)


class TestPositionalShim:
    """The one-release positional shim is gone: every config class and
    every channel constructor is keyword-only."""

    @pytest.mark.parametrize("build", [
        lambda: HardwareConfig(1.0),
        lambda: ChannelConfig(256 * KB, 32 * KB),
        lambda: ChannelConfig(256 * KB, srq_credits=8),
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


class TestEveryFieldIsRead:
    """A config field earns its place only if the simulator reads it:
    some module under ``src/repro`` (``config.py``'s own methods
    included) must load it as an attribute."""

    @staticmethod
    def _attributes_read():
        root = Path(repro.__file__).parent
        read = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
        return read

    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_every_field_is_read_somewhere(self, cls):
        read = self._attributes_read()
        unread = [f.name for f in dataclasses.fields(cls)
                  if f.name not in read]
        assert unread == []


class TestModelDoc:
    """``docs/MODEL.md`` §10 keeps one row per field, and §7 quotes the
    registration costs the config actually charges."""

    DOC = Path(__file__).resolve().parents[1] / "docs" / "MODEL.md"

    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_every_field_has_a_row(self, cls):
        text = self.DOC.read_text()
        missing = [f.name for f in dataclasses.fields(cls)
                   if f"| `{f.name}` |" not in text]
        assert missing == []

    def test_registration_figures_match_the_config(self):
        text = self.DOC.read_text()
        hw = HardwareConfig()
        reg = hw.registration_cost(1 << 20) / US
        dereg = hw.deregistration_cost(1 << 20) / US
        assert f"= {reg:.2f} µs" in text
        assert f"= {dereg:.1f} µs" in text
