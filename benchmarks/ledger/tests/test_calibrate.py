"""The reference kernel."""

import gc

import calibrate


def test_speed_is_nominal_over_kernel_time():
    nominal = calibrate.NOMINAL_S
    assert calibrate.speed(nominal) == 1.0
    assert calibrate.speed(2 * nominal) == 0.5
    assert calibrate.speed(nominal / 4) == 4.0


def test_kernel_times_itself_and_leaves_the_collector_as_found():
    assert gc.isenabled()
    assert calibrate.kernel() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()
