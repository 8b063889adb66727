"""Scaling of measured seconds by the host-speed probe."""

import pytest

import probe


def test_each_op_is_scaled_by_the_probes_on_either_side():
    slow, fast = 2 * probe.NOMINAL_S, probe.NOMINAL_S
    assert probe.scaled_ops([4.0, 3.0], [slow, slow, fast]) == pytest.approx([2.0, 2.0])
    assert probe.scaled(3.0, probe.NOMINAL_S) == pytest.approx(3.0)


def test_every_op_needs_a_probe_on_either_side():
    with pytest.raises(ValueError):
        probe.scaled_ops([1.0, 2.0], [0.1, 0.1])


def test_measure_times_the_probe():
    assert probe.measure() > 0
