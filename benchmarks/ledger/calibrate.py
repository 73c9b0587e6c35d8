"""How fast is this machine *right now*?  A frozen reference kernel.

The sandbox the ledger runs on is a shared 2-vCPU VM whose speed moves
with its neighbours: by a fifth within two seconds, by half over
minutes -- some states outlast a whole run, so no statistic inside a run
can reject them, and most are shorter than a five-second sim pass, so
one speed per run cannot describe them.  Every repetition therefore
cuts its timed work into slices of about a tenth of a second and times
this small fixed kernel between them (``workloads.SliceTimer``); each
slice's wall-clock and CPU time is multiplied by :func:`speed` of the
kernel timings on either side of *it*, and the ledger reports the sums
*at reference speed*, relative to :data:`NOMINAL_S`.  The raw figures
are kept beside them (``run.py`` prints both, baselines hold both), so
what the correction buys can be read off any result.

The kernel is benchmark-owned and touches nothing under ``src/``: a
change to the library cannot speed it up, so a real gain still shows in
full.  Its mix (JSON round trips, SHA-256/HMAC, small-object churn,
socket syscalls, bytecode arithmetic) is the kind of work the library
does.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import json
import socket
import time

#: The unit: a figure "at reference speed" is what would have been
#: measured on a machine that runs the kernel in this long (7 ms, about
#: what the sandbox the first baseline was taken on needs in its usual
#: state).  Only ratios to it are used, so any other value would shift
#: every normalised figure by one constant factor and change no
#: comparison.
NOMINAL_S = 0.0070

_DOCUMENT = {
    "type": "signed",
    "payload": {"type": "request", "client_id": "c1", "timestamp": 17,
                "op": "put", "key": "c1/k17", "value": "x" * 16,
                "deps": [["r0", 1], ["r1", 2]],
                "certificate": [{"signer": f"r{i}", "tag": "ab" * 32}
                                for i in range(4)]},
    "signature": {"signer": "c1", "tag": "ab" * 32},
}
_KEY = b"k" * 32


def kernel() -> float:
    """Run the reference work once; returns the seconds it took.

    The collector is held off meanwhile: a collection triggered by the
    kernel's own allocations would walk the *library's* heap, and the
    reference must not get faster when the library gets leaner.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if collecting:
            gc.enable()


def _kernel() -> float:
    started = time.perf_counter()
    for _ in range(120):
        body = json.dumps(_DOCUMENT, sort_keys=True).encode("ascii")
        hashlib.sha256(body).hexdigest()
        hmac.new(_KEY, body, hashlib.sha256).hexdigest()
        json.loads(body)
    frame = b"x" * 1600
    left, right = socket.socketpair()
    try:
        for _ in range(800):
            left.send(frame)
            right.recv(4096)
    finally:
        left.close()
        right.close()
    for _ in range(10):  # small tables: the kernel must not move peak RSS
        churn = {}
        for i in range(500):
            churn[(i, str(i))] = {"a": i, "b": [i, i + 1]}
    total = 0
    for i in range(24000):
        total += i * i
    return time.perf_counter() - started


def speed(kernel_s: float) -> float:
    """Machine speed relative to nominal (> 1: faster) while the kernel
    took ``kernel_s`` seconds."""
    return NOMINAL_S / kernel_s
