"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.characterization.platform import VirtualTestPlatform
from repro.core.rpt import ReadTimingParameterTable
from repro.errors import CodewordErrorModel, OperatingCondition
from repro.errors.timing import ReadTimingErrorModel
from repro.errors.vth import ThresholdVoltageModel
from repro.nand.timing import TimingParameters
from repro.ssd.config import SsdConfig


@pytest.fixture(autouse=True)
def _isolated_artifact_store(tmp_path, monkeypatch):
    """Point the experiment artifact store away from the user's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def error_model() -> CodewordErrorModel:
    return CodewordErrorModel()


@pytest.fixture(scope="session")
def vth_model() -> ThresholdVoltageModel:
    return ThresholdVoltageModel()


@pytest.fixture(scope="session")
def timing_error_model() -> ReadTimingErrorModel:
    return ReadTimingErrorModel()


@pytest.fixture(scope="session")
def timing() -> TimingParameters:
    return TimingParameters()


@pytest.fixture(scope="session")
def tiny_platform() -> VirtualTestPlatform:
    return VirtualTestPlatform(num_chips=4, blocks_per_chip=2,
                               wordlines_per_block=1, seed=1)


@pytest.fixture(scope="session")
def default_rpt() -> ReadTimingParameterTable:
    return ReadTimingParameterTable.default()


@pytest.fixture(scope="session")
def tiny_ssd_config() -> SsdConfig:
    return SsdConfig.tiny()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# Frequently used operating conditions.
@pytest.fixture(scope="session")
def fresh_condition() -> OperatingCondition:
    return OperatingCondition(pe_cycles=0, retention_months=0.0,
                              temperature_c=85.0)


@pytest.fixture(scope="session")
def aged_condition() -> OperatingCondition:
    return OperatingCondition(pe_cycles=2000, retention_months=12.0,
                              temperature_c=30.0)
