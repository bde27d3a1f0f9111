from __future__ import annotations

import math

import pytest

from pancseg.errors import ConfigError, ValidationError
from pancseg.schedules import MAX_EPOCHS, ScheduleSpec, lr_at, schedule_curve


def test_poly_endpoints_and_midpoint():
    spec = ScheduleSpec("poly", lr0=0.01, max_epochs=1000)
    assert lr_at(spec, 0) == 0.01
    assert lr_at(spec, 1000) == 0.0
    # halfway through, (1 - 1/2)^0.9 of the base rate remains
    assert lr_at(spec, 500) == pytest.approx(0.01 * 0.5**0.9, abs=1e-18)
    assert lr_at(spec, 500) == pytest.approx(0.0053588673126814664, abs=1e-12)


def test_poly_matches_closed_form_everywhere():
    spec = ScheduleSpec("poly", lr0=0.01, max_epochs=200, exponent=0.9)
    for epoch in range(0, 201, 7):
        want = 0.01 * (1.0 - epoch / 200) ** 0.9
        assert lr_at(spec, epoch) == pytest.approx(want, abs=1e-18)


def test_poly_strictly_decreases():
    spec = ScheduleSpec("poly", lr0=0.01, max_epochs=250)
    curve = [lr for _, lr in schedule_curve(spec)]
    assert all(a > b for a, b in zip(curve, curve[1:]))


def test_warmup_ramp_is_linear_from_zero():
    spec = ScheduleSpec("poly_warmup", lr0=0.01, max_epochs=100, warmup_epochs=10)
    assert lr_at(spec, 0) == 0.0
    for epoch in range(10):
        assert lr_at(spec, epoch) == pytest.approx(0.01 * epoch / 10, abs=1e-18)


def test_warmup_joint_is_continuous():
    for family in ("poly_warmup", "cosine_warmup"):
        spec = ScheduleSpec(family, lr0=0.01, max_epochs=100, warmup_epochs=10)
        # the ramp would reach lr0 exactly at the joint; the base law starts there
        ramp_limit = 0.01 * 10 / 10
        assert abs(lr_at(spec, 10) - ramp_limit) <= 1e-12
        assert lr_at(spec, 100) == pytest.approx(0.0, abs=1e-18)


def test_warmup_poly_rescales_the_remaining_span():
    spec = ScheduleSpec("poly_warmup", lr0=0.02, max_epochs=110, warmup_epochs=10)
    for epoch in (10, 35, 60, 85, 110):
        t = (epoch - 10) / 100
        assert lr_at(spec, epoch) == pytest.approx(0.02 * (1 - t) ** 0.9, abs=1e-18)


def test_cosine_matches_closed_form():
    spec = ScheduleSpec("cosine_warmup", lr0=0.01, max_epochs=100, warmup_epochs=20)
    for epoch in (20, 40, 60, 80, 100):
        t = (epoch - 20) / 80
        want = 0.01 * 0.5 * (1.0 + math.cos(math.pi * t))
        assert lr_at(spec, epoch) == pytest.approx(want, abs=1e-18)
    # cosine midpoint sits at exactly half the base rate
    assert lr_at(spec, 60) == pytest.approx(0.005, abs=1e-15)


def test_zero_warmup_reduces_to_the_base_family():
    plain = ScheduleSpec("poly", lr0=0.01, max_epochs=50)
    ramped = ScheduleSpec("poly_warmup", lr0=0.01, max_epochs=50, warmup_epochs=0)
    for epoch in range(51):
        assert lr_at(plain, epoch) == lr_at(ramped, epoch)


def test_schedule_curve_covers_every_epoch():
    spec = ScheduleSpec("poly", lr0=0.01, max_epochs=5)
    curve = schedule_curve(spec)
    assert [e for e, _ in curve] == [0, 1, 2, 3, 4, 5]
    assert curve[0][1] == 0.01 and curve[-1][1] == 0.0


def test_long_and_short_training_runs_are_expressible():
    long_run = ScheduleSpec("poly", lr0=0.01, max_epochs=1000)
    short_run = ScheduleSpec("poly", lr0=0.01, max_epochs=200)
    assert lr_at(long_run, 0) == lr_at(short_run, 0) == 0.01
    # the shorter run decays faster at matched epochs
    assert lr_at(short_run, 100) < lr_at(long_run, 100)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ScheduleSpec("step", lr0=0.01, max_epochs=10)
    with pytest.raises(ConfigError):
        ScheduleSpec("poly", lr0=0.0, max_epochs=10)
    with pytest.raises(ConfigError):
        ScheduleSpec("poly", lr0=0.01, max_epochs=0)
    with pytest.raises(ConfigError):
        ScheduleSpec("poly", lr0=0.01, max_epochs=10, exponent=0.0)
    with pytest.raises(ConfigError):
        ScheduleSpec("poly_warmup", lr0=0.01, max_epochs=10, warmup_epochs=10)
    with pytest.raises(ConfigError):
        ScheduleSpec("poly_warmup", lr0=0.01, max_epochs=10, warmup_epochs=-1)


def test_max_epochs_is_bounded():
    assert MAX_EPOCHS == 100 * 1000  # 100x nnU-Net's default schedule length
    spec = ScheduleSpec("cosine_warmup", lr0=0.01, max_epochs=MAX_EPOCHS, warmup_epochs=10)
    assert lr_at(spec, MAX_EPOCHS) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ConfigError, match=f"max_epochs must be in 1..{MAX_EPOCHS}, got"):
        ScheduleSpec("poly", lr0=0.01, max_epochs=MAX_EPOCHS + 1)
    with pytest.raises(ConfigError, match="max_epochs"):
        ScheduleSpec("poly", lr0=0.01, max_epochs=10**8)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_lr0_and_exponent_must_be_finite(value):
    with pytest.raises(ConfigError, match="lr0"):
        ScheduleSpec("poly", lr0=value, max_epochs=10)
    with pytest.raises(ConfigError, match="exponent"):
        ScheduleSpec("poly", lr0=0.01, max_epochs=10, exponent=value)


def test_epoch_bounds_are_enforced():
    spec = ScheduleSpec("poly", lr0=0.01, max_epochs=10)
    with pytest.raises(ValidationError):
        lr_at(spec, -1)
    with pytest.raises(ValidationError):
        lr_at(spec, 11)
