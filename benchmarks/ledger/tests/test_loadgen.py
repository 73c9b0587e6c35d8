"""Load generator behaviour on a hand-cranked clock."""

import heapq
from collections import namedtuple

import loadgen

Command = namedtuple("Command", "client_id timestamp op key value")
Command.ident = property(lambda self: (self.client_id, self.timestamp))


class FakeContext:
    """Timers fire in due order when the test cranks the clock; an
    optional ``lag`` delivers them late, like a busy event loop."""

    def __init__(self, lag=0.0):
        self.now = 0.0
        self.lag = lag
        self._timers = []
        self._seq = 0

    def set_timer(self, delay_ms, callback, *args):
        self._seq += 1
        heapq.heappush(self._timers,
                       (self.now + delay_ms, self._seq, callback, args))

    def run_until(self, deadline):
        while self._timers and \
                self._timers[0][0] + self.lag <= deadline:
            due, _, callback, args = heapq.heappop(self._timers)
            self.now = max(self.now, due + self.lag)
            callback(*args)
        self.now = deadline


class FakeClient:
    def __init__(self, ctx, client_id="c0"):
        self.ctx = ctx
        self.client_id = client_id
        self.on_delivery = None
        self.sent = []
        self._ts = 0

    def next_command(self, op, key, value):
        self._ts += 1
        return Command(self.client_id, self._ts, op, key, value)

    def submit(self, command):
        self.sent.append(command)

    def submit_batch(self, commands):
        self.sent.extend(commands)

    def reply(self, command, result="OK", path="fast"):
        self.on_delivery(command, result, 0.0, path)


def test_command_source_is_a_function_of_its_seed():
    ctx = FakeContext()
    first = [loadgen.CommandSource(7, 0, 0.5).next(FakeClient(ctx))
             for _ in range(1)]
    a, b = loadgen.CommandSource(7, 0, 0.5), \
        loadgen.CommandSource(7, 0, 0.5)
    client = FakeClient(ctx)
    assert [a.next(client)[3:] for _ in range(50)] == \
        [b.next(client)[3:] for _ in range(50)]
    other = loadgen.CommandSource(8, 0, 0.5)
    assert [other.next(client).value for _ in range(5)] != \
        [loadgen.CommandSource(7, 0, 0.5).next(client).value
         for _ in range(5)]
    assert first[0].op == "put" and len(first[0].value) == 16


def test_hot_share_targets_the_one_shared_key():
    client = FakeClient(FakeContext())
    hot = loadgen.CommandSource(1, 0, hot_share=1.0)
    assert {hot.next(client).key for _ in range(20)} == \
        {loadgen.HOT_KEY}
    private = loadgen.CommandSource(1, 0)
    keys = [private.next(client).key for _ in range(20)]
    assert len(set(keys)) == 20 and loadgen.HOT_KEY not in keys


def test_closed_loop_keeps_its_window_and_counts_wrong_replies():
    ctx = FakeContext()
    client = FakeClient(ctx)
    tally = loadgen.Tally()
    source = loadgen.CommandSource(1, 0)
    driver = loadgen.ClosedLoop(client, source, tally, window=2)
    driver.start()
    assert len(client.sent) == 2 and driver.in_flight == 2
    ctx.now = 5.0
    client.reply(client.sent[0])
    assert len(client.sent) == 3 and tally.latencies_ms == [5.0]
    client.reply(client.sent[1], result="nope", path="slow")
    assert (tally.committed, tally.wrong) == (2, 1)
    assert source.acked == {client.sent[0].key: client.sent[0].value}
    driver.stop()
    client.reply(client.sent[2])
    client.reply(client.sent[3])
    assert len(client.sent) == 4 and driver.in_flight == 0
    assert tally.attempted == 4 and tally.failed == 1


def test_closed_loop_limit_stops_issuing():
    client = FakeClient(FakeContext())
    driver = loadgen.ClosedLoop(client, loadgen.CommandSource(1, 0),
                                loadgen.Tally(), window=1, limit=3)
    driver.start()
    for _ in range(5):
        if driver.in_flight:
            client.reply(client.sent[-1])
    assert len(client.sent) == 3


def test_batch_loop_waits_for_the_whole_batch():
    client = FakeClient(FakeContext())
    tally = loadgen.Tally()
    driver = loadgen.ClosedBatchLoop(
        client, loadgen.CommandSource(1, 0), tally, batch=8)
    driver.start()
    assert len(client.sent) == 8
    for command in client.sent[:7]:
        client.reply(command)
    assert len(client.sent) == 8
    client.reply(client.sent[7])
    assert len(client.sent) == 16 and tally.attempted == 16


def test_open_loop_times_from_due_and_reports_lateness():
    ctx = FakeContext(lag=3.0)
    client = FakeClient(ctx)
    tally = loadgen.Tally()
    driver = loadgen.OpenLoop(client, loadgen.CommandSource(1, 0),
                              tally, rate_per_s=100.0, total=4,
                              offset_ms=2.0)
    driver.start()
    ctx.run_until(100.0)
    assert driver.done and len(client.sent) == 4
    # Due at 2, 12, 22, 32; every timer fired 3 ms late.
    assert tally.late_ms == [3.0, 3.0, 3.0, 3.0]
    ctx.now = 50.0
    client.reply(client.sent[1])
    assert tally.latencies_ms == [38.0]      # 50 - due(12), not - 15
    assert tally.due_times_ms == [12.0]
    assert tally.attempted == 4 and tally.failed == 3


def test_open_loop_catches_up_after_a_stall_without_losing_rate():
    ctx = FakeContext()
    client = FakeClient(ctx)
    tally = loadgen.Tally()
    driver = loadgen.OpenLoop(client, loadgen.CommandSource(1, 0),
                              tally, rate_per_s=1000.0, total=10)
    driver.start()
    ctx.lag = 5.0          # the loop stalls for 5 ms
    ctx.run_until(20.0)
    assert len(client.sent) == 10
    assert max(tally.late_ms) == 5.0 and min(tally.late_ms) == 0.0
