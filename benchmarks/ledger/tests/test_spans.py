"""Span recorder arithmetic and wrapper install/restore."""

import os
import sys

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock, sample_every=1)

    def leaf():
        clock.advance(2.0)

    leaf = recorder.wrap("inner", "leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(1.0)
        leaf()

    middle = recorder.wrap("middle", "middle", middle)

    def outer():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    recorder.wrap("outer", "outer", outer)()

    assert recorder.totals[("inner", "leaf")] == [2, 4.0, 4.0]
    assert recorder.totals[("middle", "middle")] == [1, 2.0, 6.0]
    assert recorder.totals[("outer", "outer")] == [1, 0.75, 6.75]
    # Self times add up to the top-level span: nothing counted twice.
    assert sum(t[1] for t in recorder.totals.values()) == 6.75
    assert recorder.layer_totals() == {
        "inner": (2, 4.0), "middle": (1, 2.0), "outer": (1, 0.75)}


def test_raw_spans_carry_parent_dispatch_and_request():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock, sample_every=2)

    class Payload:
        client_id = "c3"
        timestamp = 9

    class Envelope:
        payload = Payload()

    child = recorder.wrap("crypto", "digest", lambda: clock.advance(1))

    def on_message(self, sender, message):
        child()

    on_message = recorder.wrap("core.replica",
                               "EzBFTReplica.on_message", on_message)
    for _ in range(4):
        on_message(None, "r1", Envelope())
    # One dispatch in two is kept, whole: parent and child together.
    assert recorder.dispatches == 4
    assert [s["dispatch"] for s in recorder.raw] == [2, 2, 4, 4]
    inner, outer = recorder.raw[0], recorder.raw[1]
    assert inner["function"] == "digest"
    assert inner["parent"] == outer["span"] and outer["parent"] is None
    assert outer["request"] == "c3:9" and inner["request"] is None
    assert outer["end_s"] - outer["start_s"] == 1


def test_exceptions_still_close_the_span():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    wrapped = recorder.wrap("crypto", "verify", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert recorder.stack == []
    assert recorder.totals[("crypto", "verify")] == [1, 1.0, 1.0]


def test_generator_functions_are_spanned_over_their_iteration():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock)

    def records():
        for i in range(3):
            clock.advance(1.0)
            yield i

    wrapped = recorder.wrap("storage", "replay", records)
    assert list(wrapped()) == [0, 1, 2]
    assert recorder.totals[("storage", "replay")] == [1, 3.0, 3.0]


def _bindings():
    """id of every module global and class attribute under repro."""
    return {(id(space), key): id(value)
            for space in spans._namespaces()
            for key, value in vars(space).items()}


def test_install_rebinds_aliases_and_restore_puts_everything_back():
    import repro.crypto.signatures
    import repro.transport.asyncio_tcp
    from repro.core.replica import EzBFTReplica

    # ``repro.crypto.digest`` the attribute is the re-exported
    # function; the module has to come from sys.modules.
    digest_module = sys.modules["repro.crypto.digest"]

    # One throw-away cycle imports every target module, so the
    # snapshot below already holds every namespace install touches.
    spans.restore(spans.install(spans.Recorder()))
    patches = []
    before = _bindings()
    fsync = os.fsync
    original = digest_module.canonical_bytes
    on_message = EzBFTReplica.__dict__["on_message"]
    try:
        patches = spans.install(spans.Recorder())
        # ``from x import canonical_bytes`` aliases are rebound too.
        assert digest_module.canonical_bytes is not original
        assert repro.crypto.signatures.canonical_bytes is \
            digest_module.canonical_bytes
        assert repro.crypto.digest is digest_module.digest
        assert repro.transport.asyncio_tcp.decode is \
            sys.modules["repro.messages.base"].decode
        assert EzBFTReplica.__dict__["on_message"] is not on_message
        assert os.fsync is not fsync
    finally:
        spans.restore(patches)
    assert _bindings() == before
    assert digest_module.canonical_bytes is original
    assert EzBFTReplica.__dict__["on_message"] is on_message
    assert os.fsync is fsync


def test_wrapped_library_still_computes_the_same_digest():
    import repro.crypto
    digest_module = sys.modules["repro.crypto.digest"]
    plain = digest_module.digest({"k": [1, 2, 3]})
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        assert digest_module.digest({"k": [1, 2, 3]}) == plain
    finally:
        spans.restore(patches)
    assert recorder.calls("crypto", "digest") == 1
    assert recorder.calls("crypto", "canonical_bytes") == 1


def test_spans_beneath_an_event_loop_are_dispatches_of_their_own():
    clock = FakeClock()
    recorder = spans.Recorder(clock=clock, sample_every=2)
    handler = recorder.wrap("core.replica", "EzBFTReplica.on_message",
                            lambda self, sender, message:
                            clock.advance(1.0))

    def run():
        for _ in range(4):
            handler(None, "r0", object())

    recorder.wrap("sim", "Simulator.run", run)()
    assert recorder.dispatches == 5     # the loop itself + 4 deliveries
    kept = [s for s in recorder.raw if s["layer"] == "core.replica"]
    assert [s["dispatch"] for s in kept] == [2, 4]
    assert recorder.totals[("sim", "Simulator.run")] == [1, 0.0, 4.0]
