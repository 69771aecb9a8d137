"""Tests for repro.radio.packets."""

import pytest

from repro.radio import CREDIT_UNIT_BYTES, DeliveryRecord, Packet, Reading, credit_units


class TestPacket:
    def test_credit_units_paper_boundary(self):
        # One credit per started 24-byte unit (§4.4).
        assert Packet("d", 0.0, payload_bytes=24).credit_units == 1
        assert Packet("d", 0.0, payload_bytes=25).credit_units == 2
        assert Packet("d", 0.0, payload_bytes=48).credit_units == 2
        assert Packet("d", 0.0, payload_bytes=49).credit_units == 3

    def test_zero_byte_heartbeat_costs_one(self):
        assert Packet("d", 0.0, payload_bytes=0).credit_units == 1

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet("d", 0.0, payload_bytes=-1)

    def test_sequence_numbers_increase(self):
        a = Packet("d", 0.0, 24)
        b = Packet("d", 0.0, 24)
        assert b.sequence > a.sequence

    def test_reading_attached(self):
        reading = Reading(kind="strain", value=1.5, unit="ue")
        packet = Packet("d", 0.0, 24, reading=reading)
        assert packet.reading.kind == "strain"

    def test_credit_unit_constant(self):
        assert CREDIT_UNIT_BYTES == 24


class TestDeliveryRecord:
    def test_fields(self):
        record = DeliveryRecord("d", received_at=12.5, via_gateway="g", via_backhaul="b")
        assert (record.source, record.received_at) == ("d", 12.5)
        assert (record.via_gateway, record.via_backhaul) == ("g", "b")


class TestCreditUnits:
    def test_function_matches_packet_property(self):
        for payload in (0, 1, 23, 24, 25, 48, 49, 127):
            assert credit_units(payload) == Packet("d", 0.0, payload).credit_units

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            credit_units(-1)
