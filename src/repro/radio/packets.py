"""Packet and reading primitives shared across the network layer.

The paper's initial devices are transmit-only monitoring sensors: up to
24-byte payloads (the Helium data-credit accounting unit), a reading,
and a signature the device can never rotate — which is why §4.1 calls
their longitudinal trust "limited".

The simulated report path does not build frames: a delivered report
travels as ``(source, credit_units)`` from device to gateway to endpoint
(see :meth:`repro.net.gateway.Gateway.receive`).  ``Packet`` remains the
frame description for planning and credit arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

#: Helium charges one data credit per 24-byte message (§4.4).
CREDIT_UNIT_BYTES: int = 24

_sequence = itertools.count(1)


def credit_units(payload_bytes: int) -> int:
    """Data credits one uplink of ``payload_bytes`` costs on a Helium-style
    network.

    One credit per started 24-byte unit; a zero-byte heartbeat still
    costs one credit.

    >>> credit_units(24), credit_units(25), credit_units(0)
    (1, 2, 1)
    """
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
    if payload_bytes == 0:
        return 1
    return -(-payload_bytes // CREDIT_UNIT_BYTES)  # ceil div


@dataclass(frozen=True)
class Reading:
    """One sensor observation."""

    kind: str          # e.g. "concrete-health", "strain", "temperature"
    value: float
    unit: str = ""


@dataclass(frozen=True)
class Packet:
    """An uplink frame from a transmit-only device.

    ``signed_with`` names the immutable factory key; verification policy
    is the backend's problem (devices cannot be re-keyed, per §4.1).
    """

    source: str
    created_at: float
    payload_bytes: int
    reading: Optional[Reading] = None
    signed_with: str = ""
    sequence: int = field(default_factory=lambda: next(_sequence))

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(f"payload_bytes must be non-negative, got {self.payload_bytes}")

    @property
    def credit_units(self) -> int:
        """Data credits this packet costs (see :func:`credit_units`)."""
        return credit_units(self.payload_bytes)


@dataclass(frozen=True)
class DeliveryRecord:
    """One report's arrival at the backend, as logged by an endpoint that
    keeps records (``CloudEndpoint(store_deliveries=True)``).

    Delivery is packet-free: a report reaches the endpoint as its source
    name alone, the same instant it was sent, so a record carries no
    frame and no latency.
    """

    source: str
    received_at: float
    via_gateway: str
    via_backhaul: str
