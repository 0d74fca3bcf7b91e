"""Shared fixtures: devices, driver, client.

Devices are function-scoped where tests mutate them (drift,
calibration) and module-scoped copies are avoided deliberately —
construction is cheap (<10 ms) and isolation bugs are expensive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import MQSSClient, RemoteDeviceProxy
from repro.devices import (
    CalibrationDatabaseDevice,
    NeutralAtomDevice,
    SuperconductingDevice,
    TrappedIonDevice,
)
from repro.qdmi import QDMIDriver


@pytest.fixture
def sc_device() -> SuperconductingDevice:
    """A 2-qubit transmon device, no drift (deterministic)."""
    return SuperconductingDevice(num_qubits=2, drift_rate=0.0)


@pytest.fixture
def sc_device_1q() -> SuperconductingDevice:
    """A single-qubit transmon device."""
    return SuperconductingDevice(num_qubits=1, drift_rate=0.0)


@pytest.fixture
def ion_device() -> TrappedIonDevice:
    """A 2-ion chain device."""
    return TrappedIonDevice(num_qubits=2, drift_rate=0.0)


@pytest.fixture
def atom_device() -> NeutralAtomDevice:
    """A 2-atom array device."""
    return NeutralAtomDevice(num_qubits=2, drift_rate=0.0)


@pytest.fixture
def all_devices(sc_device, ion_device, atom_device):
    """All three QPU platforms."""
    return [sc_device, ion_device, atom_device]


@pytest.fixture
def driver(sc_device, ion_device, atom_device) -> QDMIDriver:
    """A driver with the three QPUs, a remote proxy and a database."""
    d = QDMIDriver()
    d.register_device(sc_device)
    d.register_device(ion_device)
    d.register_device(atom_device)
    d.register_device(
        RemoteDeviceProxy(SuperconductingDevice("sc-remote", num_qubits=2))
    )
    d.register_device(CalibrationDatabaseDevice())
    return d


@pytest.fixture
def client(driver) -> MQSSClient:
    """An MQSS client over the standard driver."""
    return MQSSClient(driver)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for test determinism."""
    return np.random.default_rng(12345)

