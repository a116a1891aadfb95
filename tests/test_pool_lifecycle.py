"""A worker slot's life, without processes. A hypothesis state machine
drives the pool's one transition table (``SLOT_TRANSITIONS``, moved
only by ``_Worker.fire``) through the slot's own methods — loss, reap,
respawn, a call or the supervisor's poll reading the boot message,
cooldown, shutdown — against a model written out here; and DESIGN.md's
table is the code's."""

import os
import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import DeviceLost
from repro.runtime.pool import _BOOTED, SLOT_TRANSITIONS, _Worker

#: Consecutive losses, with no first reply in between, that break a
#: slot.
THRESHOLD = 3

#: The table's events, in the order DESIGN.md lists them.
EVENTS = ("reply", "loss", "reap", "trip", "respawn", "cooldown", "shutdown")


class _Pipe:
    """The parent end of a pipe to a worker that boots at once and
    answers every request at once (``silent``: never)."""

    def __init__(self, silent=False):
        self.silent = silent
        self.replies = deque([(_BOOTED, True, None)])
        self.closed = False

    def send(self, request):
        if self.closed:
            raise OSError("pipe closed")
        request_id, op, _ = request
        if not self.silent:
            self.replies.append((request_id, True, op))

    def poll(self, timeout=0):
        if self.closed:
            raise OSError("pipe closed")
        if not self.replies:
            time.sleep(timeout)
        return bool(self.replies)

    def recv(self):
        return self.replies.popleft()

    def close(self):
        self.closed = True


class _Process:
    exitcode = None

    def __init__(self):
        self.running = True

    def is_alive(self):
        return self.running

    def terminate(self):
        self.running = False

    kill = terminate

    def join(self, timeout=None):
        pass

    def close(self):
        pass


class _Slot(_Worker):
    """A worker slot whose processes are stand-ins."""

    def __init__(self, silent=False):
        self.silent = silent
        super().__init__(0, None, None, None, 0, (), False)

    def _start_process(self):
        return _Process(), _Pipe(self.silent)


class SlotLife(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.slot = _Slot()
        # the model
        self.state = "starting"
        self.epoch = 0
        #: losses since the last first reply
        self.failures = 0

    @rule()
    def loss(self):
        moved = self.slot.fire("loss", "test loss")
        assert moved == (self.state in ("starting", "live"))
        if moved:
            self.state = "lost"
            self.failures += 1

    @rule()
    def reap(self):
        self.slot.reap(timeout=0)
        if self.state == "lost":
            # broken only after THRESHOLD consecutive failures
            self.state = "broken" if self.failures >= THRESHOLD else "down"

    @rule()
    def respawn(self):
        before = self.slot.epoch
        self.slot.respawn()
        respawned = self.state == "down"
        # each respawn raises the epoch by exactly one
        assert self.slot.epoch == before + respawned
        if respawned:
            self.state = "starting"
            self.epoch += 1

    def booted(self):
        # the boot message is the first reply
        if self.state == "starting":
            self.state = "live"
            self.failures = 0

    @rule()
    def call(self):
        # calls are admitted only in starting and live
        if self.state in ("starting", "live"):
            assert self.slot.call("ping", timeout=5.0) == "ping"
            self.booted()
        else:
            with pytest.raises(DeviceLost) as refused:
                self.slot.call("ping", timeout=5.0)
            assert refused.value.delivered is False
            assert refused.value.epoch == self.epoch

    @rule()
    def poll(self):
        # the supervisor's look at a slot nobody is calling
        self.slot.poll()
        self.booted()

    @rule()
    def cooldown(self):
        # cooldown leads out of broken only
        moved = self.slot.fire("cooldown")
        assert moved == (self.state == "broken")
        if moved:
            self.state = "down"

    @rule()
    def shutdown(self):
        self.slot.shutdown(timeout=1.0)
        self.state = "closed"

    @invariant()
    def agrees_with_the_model(self):
        slot = self.slot
        assert slot.state == self.state
        assert slot.epoch == slot.respawns == self.epoch
        assert slot.failures == self.failures
        assert slot.in_flight() == 0

    @invariant()
    def closed_is_terminal(self):
        if self.state == "closed":
            for event in EVENTS:
                assert not self.slot.fire(event)
            assert self.slot.state == "closed"


TestSlotLife = SlotLife.TestCase
TestSlotLife.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


def test_a_loss_resolves_the_requests_in_flight():
    """The caller waiting on a request the worker never answers gets
    the loss of the epoch it was sent in, delivered, at once."""
    slot = _Slot(silent=True)
    errors = []

    def wait():
        try:
            slot.call("launch", timeout=30.0)
        except DeviceLost as error:
            errors.append(error)

    caller = threading.Thread(target=wait, daemon=True)
    caller.start()
    while slot.in_flight() == 0:
        pass
    assert slot.fire("loss", "test loss")
    caller.join(timeout=5.0)
    assert not caller.is_alive()
    (error,) = errors
    assert error.delivered is True and error.epoch == 0
    assert error.cause == "test loss" and "during 'launch'" in str(error)
    assert slot.in_flight() == 0


def test_calls_racing_losses_and_respawns_get_their_answer_or_the_loss():
    """Callers on more threads than cores for half a second, while
    another thread keeps losing, reaping, cooling and respawning the
    slot, with a short switch interval: every call gets its own reply
    (never another call's) or a DeviceLost of an epoch that was, none
    hangs, and nothing stays in flight."""
    slot = _Slot()
    outcomes = {"answered": 0, "lost": 0, "wrong": []}
    stop = threading.Event()

    def caller(index):
        number = 0
        while not stop.is_set():
            op = f"op-{index}-{number}"
            number += 1
            try:
                reply = slot.call(op, timeout=30.0)
            except DeviceLost as error:
                if error.epoch > slot.epoch:
                    outcomes["wrong"].append(error)
                outcomes["lost"] += 1
                continue
            if reply != op:
                outcomes["wrong"].append((op, reply))
            outcomes["answered"] += 1

    def chaos():
        while not stop.is_set():
            slot.fire("loss", "chaos")
            slot.reap(timeout=0)
            slot.fire("cooldown")
            slot.respawn()

    threads = [threading.Thread(target=chaos, daemon=True)] + [
        threading.Thread(target=caller, args=(index,), daemon=True)
        for index in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not outcomes["wrong"]
    assert outcomes["answered"] and outcomes["lost"], (outcomes, slot.epoch)
    assert slot.in_flight() == 0


def test_a_reply_that_beat_the_loss_still_answers_its_caller():
    """A reply that arrived just before the loss answers its caller,
    who may pick it up only after the slot was respawned; the new
    process has not booted, so the slot stays ``starting``."""
    slot = _Slot(silent=True)
    slot.poll()
    assert slot.state == "live"

    def lose_after_the_reply(op, payload):
        slot._deliver((slot._request_ids, True, "answered"), slot.conn)
        slot.fire("loss", "test loss")
        slot.reap(timeout=0)
        slot.respawn()

    slot._hook_after_send = lose_after_the_reply
    assert slot.call("launch") == "answered"
    assert slot.state == "starting" and slot.epoch == 1


def test_a_boot_message_of_a_lost_process_is_no_first_reply():
    """A reader that read the old pipe after the respawn: what it read
    is dropped, and only the new process's boot makes the slot live."""
    slot = _Slot()
    old = slot.conn
    slot.fire("loss", "test loss")
    slot.reap(timeout=0)
    slot.respawn()
    slot._deliver((_BOOTED, True, None), old)
    assert slot.state == "starting" and slot.epoch == 1
    slot._deliver((_BOOTED, True, None), slot.conn)
    assert slot.state == "live" and slot.failures == 0


def _render(table):
    """The transition table as DESIGN.md states it: a row per state,
    a column per event, the next state in each cell."""
    events = {event for moves in table.values() for event in moves}
    assert events == set(EVENTS)
    lines = [
        "| state | " + " | ".join(f"`{event}`" for event in EVENTS) + " |",
        "|---" * (len(EVENTS) + 1) + "|",
    ]
    for state, moves in table.items():
        cells = [
            f"`{moves[event]}`" if event in moves else "—"
            for event in EVENTS
        ]
        lines.append(f"| `{state}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def test_design_states_the_code_table():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "DESIGN.md")
    with open(path, encoding="utf-8") as handle:
        design = handle.read()
    assert _render(SLOT_TRANSITIONS) in design, _render(SLOT_TRANSITIONS)
