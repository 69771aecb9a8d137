"""Tests for repro.radio.link."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import (
    PathLossModel,
    RadioSpec,
    attempt_delivery,
    link_budget,
    link_trial,
    max_range_m,
    packet_success_probability,
    received_power_dbm,
)


def spec(**kw):
    defaults = dict(
        name="test",
        frequency_hz=915e6,
        tx_power_dbm=14.0,
        sensitivity_dbm=-120.0,
        bitrate_bps=1000.0,
    )
    defaults.update(kw)
    return RadioSpec(**defaults)


class TestPathLoss:
    def test_loss_increases_with_distance(self):
        model = PathLossModel(exponent=3.0)
        assert model.mean_loss_db(100.0, 915e6) > model.mean_loss_db(10.0, 915e6)

    def test_exponent_slope(self):
        model = PathLossModel(exponent=2.0, shadowing_sigma_db=0.0)
        # 10x distance at exponent 2 = +20 dB.
        delta = model.mean_loss_db(100.0, 915e6) - model.mean_loss_db(10.0, 915e6)
        assert delta == pytest.approx(20.0)

    def test_higher_frequency_higher_loss(self):
        model = PathLossModel()
        assert model.mean_loss_db(100.0, 2.45e9) > model.mean_loss_db(100.0, 915e6)

    def test_penetration_adds_flat_db(self):
        plain = PathLossModel(penetration_db=0.0)
        concrete = PathLossModel(penetration_db=12.0)
        delta = concrete.mean_loss_db(50.0, 915e6) - plain.mean_loss_db(50.0, 915e6)
        assert delta == pytest.approx(12.0)

    def test_below_reference_clamped(self):
        model = PathLossModel(reference_distance_m=1.0)
        assert model.mean_loss_db(0.5, 915e6) == model.mean_loss_db(1.0, 915e6)

    def test_shadowing_sampling_statistics(self, rng):
        model = PathLossModel(shadowing_sigma_db=6.0)
        draws = np.array([model.sample_loss_db(100.0, 915e6, rng) for _ in range(4000)])
        assert draws.std() == pytest.approx(6.0, rel=0.1)
        assert draws.mean() == pytest.approx(model.mean_loss_db(100.0, 915e6), abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossModel(exponent=0.5)
        with pytest.raises(ValueError):
            PathLossModel(reference_distance_m=0.0)
        with pytest.raises(ValueError):
            PathLossModel().mean_loss_db(0.0, 915e6)


class TestPacketSuccess:
    def test_half_at_sensitivity(self):
        s = spec()
        assert packet_success_probability(s, -120.0) == pytest.approx(0.5)

    def test_monotone_in_rx_power(self):
        s = spec()
        values = [packet_success_probability(s, p) for p in (-130, -120, -110)]
        assert values[0] < values[1] < values[2]

    def test_strong_signal_near_one(self):
        assert packet_success_probability(spec(), -90.0) > 0.999

    def test_received_power(self):
        assert received_power_dbm(spec(tx_power_dbm=14.0), 100.0) == -86.0


class TestLinkBudget:
    def test_margin_definition(self):
        budget = link_budget(spec(), PathLossModel(shadowing_sigma_db=0.0), 100.0)
        assert budget.margin_db == pytest.approx(
            budget.rx_power_dbm - spec().sensitivity_dbm
        )

    def test_closer_is_better(self):
        model = PathLossModel()
        near = link_budget(spec(), model, 10.0)
        far = link_budget(spec(), model, 1000.0)
        assert near.mean_success > far.mean_success


class TestMaxRange:
    def test_sub_ghz_outranges_2_4(self):
        model = PathLossModel(exponent=3.0)
        lora_like = spec(frequency_hz=915e6, sensitivity_dbm=-132.0)
        zigbee_like = spec(frequency_hz=2.45e9, tx_power_dbm=0.0, sensitivity_dbm=-100.0)
        assert max_range_m(lora_like, model) > 10.0 * max_range_m(zigbee_like, model)

    def test_range_shrinks_with_required_success(self):
        model = PathLossModel()
        assert max_range_m(spec(), model, 0.99) < max_range_m(spec(), model, 0.5)

    def test_hopeless_radio_zero_range(self):
        model = PathLossModel()
        dead = spec(tx_power_dbm=-100.0, sensitivity_dbm=-40.0)
        assert max_range_m(dead, model) == 0.0

    def test_bad_required_success(self):
        with pytest.raises(ValueError):
            max_range_m(spec(), PathLossModel(), required_success=1.0)


class TestAttemptDelivery:
    def test_short_link_almost_always_works(self, rng):
        model = PathLossModel(shadowing_sigma_db=2.0)
        outcomes = [attempt_delivery(spec(), model, 10.0, rng) for _ in range(300)]
        assert sum(outcomes) > 290

    def test_absurd_link_almost_always_fails(self, rng):
        model = PathLossModel()
        outcomes = [attempt_delivery(spec(), model, 80_000.0, rng) for _ in range(300)]
        assert sum(outcomes) < 10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec(frequency_hz=0.0)
        with pytest.raises(ValueError):
            spec(bitrate_bps=0.0)
        with pytest.raises(ValueError):
            spec(per_slope_db=0.0)


def reference_attempt(spec, model, distance_m, rng):
    """The uncached trial: sample the loss, then the PER draw."""
    loss = model.sample_loss_db(distance_m, spec.frequency_hz, rng)
    rx = received_power_dbm(spec, loss)
    return rng.random() < packet_success_probability(spec, rx)


def outcome(trial, rng):
    """A trial's result and the generator state it leaves behind."""
    try:
        result = trial(rng)
    except OverflowError:
        result = OverflowError
    return result, rng.bit_generator.state


class FixedDraws:
    """A stand-in generator returning fixed normal and uniform draws."""

    def __init__(self, z, u):
        self.z = z
        self.u = u

    def standard_normal(self):
        return self.z

    def random(self):
        return self.u


radio_specs = st.builds(
    RadioSpec,
    name=st.just("prop"),
    frequency_hz=st.floats(1e8, 6e9),
    tx_power_dbm=st.floats(-20.0, 30.0),
    sensitivity_dbm=st.floats(-140.0, -60.0),
    bitrate_bps=st.floats(100.0, 1e6),
    per_slope_db=st.floats(0.1, 10.0),
)
path_loss_models = st.builds(
    PathLossModel,
    exponent=st.floats(1.0, 6.0),
    reference_distance_m=st.floats(0.1, 100.0),
    shadowing_sigma_db=st.floats(0.0, 12.0),
    penetration_db=st.floats(0.0, 40.0),
)


class TestLinkTrial:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=radio_specs,
        model=path_loss_models,
        distance_m=st.floats(1.0, 1e5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cached_mean_matches_uncached_trial(self, spec, model, distance_m, seed):
        mean_loss_db = model.mean_loss_db(distance_m, spec.frequency_hz)
        sigma = model.shadowing_sigma_db
        expected = outcome(
            lambda rng: reference_attempt(spec, model, distance_m, rng),
            np.random.default_rng(seed),
        )
        cached = outcome(
            lambda rng: link_trial(spec, mean_loss_db, sigma, rng),
            np.random.default_rng(seed),
        )
        wrapped = outcome(
            lambda rng: attempt_delivery(spec, model, distance_m, rng),
            np.random.default_rng(seed),
        )
        assert cached == expected
        assert wrapped == expected

    @settings(max_examples=300, deadline=None)
    @given(
        spec=radio_specs,
        model=path_loss_models,
        distance_m=st.floats(1.0, 1e5),
        z=st.floats(-6.0, 6.0),
    )
    def test_success_probability_bit_identical(self, spec, model, distance_m, z):
        # Outcomes alone rarely expose a reordered float operation, so
        # pin the probability itself: with the uniform draw fixed at the
        # reference p the trial must fail, one ulp below it succeed.
        mean_loss_db = model.mean_loss_db(distance_m, spec.frequency_hz)
        shadowed = mean_loss_db + model.shadowing_sigma_db * z
        try:
            p = packet_success_probability(spec, received_power_dbm(spec, shadowed))
        except OverflowError:
            return
        sigma = model.shadowing_sigma_db
        assert not link_trial(spec, mean_loss_db, sigma, FixedDraws(z, p))
        if p > 0.0:
            below = float(np.nextafter(p, 0.0))
            assert link_trial(spec, mean_loss_db, sigma, FixedDraws(z, below))

    def test_draws_two_values_per_trial(self, rng):
        before = np.random.default_rng(7)
        before.standard_normal()
        before.random()
        after = np.random.default_rng(7)
        link_trial(spec(), 90.0, 6.0, after)
        assert after.bit_generator.state == before.bit_generator.state

