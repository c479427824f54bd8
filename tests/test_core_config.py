"""Tests for the Watchdog configuration object."""

import pytest

from repro.core.config import BoundsCheckMode, PointerIdentificationMode, WatchdogConfig
from repro.core.watchdog import Watchdog
from repro.errors import UseAfterFreeError
from repro.isa.registers import int_reg


class TestNamedConfigurations:
    def test_disabled(self):
        config = WatchdogConfig.disabled()
        assert not config.enabled

    def test_isa_assisted_default(self):
        config = WatchdogConfig.isa_assisted_uaf()
        assert config.enabled
        assert config.pointer_identification is PointerIdentificationMode.ISA_ASSISTED
        assert not config.bounds_enabled
        assert config.lock_cache_enabled

    def test_conservative(self):
        assert WatchdogConfig.conservative_uaf().conservative

    def test_no_lock_cache(self):
        assert not WatchdogConfig.no_lock_cache().lock_cache_enabled

    def test_full_safety_variants(self):
        fused = WatchdogConfig.full_safety_fused()
        two = WatchdogConfig.full_safety_two_uops()
        assert fused.bounds_mode is BoundsCheckMode.FUSED_SINGLE_UOP
        assert two.bounds_mode is BoundsCheckMode.SEPARATE_UOP
        assert fused.bounds_enabled and two.bounds_enabled

    def test_idealized_shadow(self):
        assert WatchdogConfig.idealized_shadow().ideal_shadow


class TestDerivedProperties:
    def test_metadata_words(self):
        assert WatchdogConfig.isa_assisted_uaf().metadata_words == 2
        assert WatchdogConfig.full_safety_fused().metadata_words == 4

    def test_with_replaces_fields(self):
        config = WatchdogConfig.isa_assisted_uaf().with_(copy_elimination=False)
        assert not config.copy_elimination
        assert config.enabled

    def test_config_is_immutable(self):
        config = WatchdogConfig()
        with pytest.raises(Exception):
            config.enabled = False

    def test_default_halts_on_violation(self):
        watchdog = Watchdog(WatchdogConfig())
        pointer = watchdog.malloc(64, int_reg(1))
        watchdog.free(int_reg(1), pointer)
        with pytest.raises(UseAfterFreeError):
            watchdog.check_access(int_reg(1), pointer, 8)
