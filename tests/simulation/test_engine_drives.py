"""One event loop, one behaviour: ``run``, ``step`` and ``run_until``.

The three entry points share one loop, so on any event program they
must fire the same events at the same times and leave the same
counters and clock. A program mixes singles (``schedule`` and
``schedule_at``) and batches on a coarse time grid, so ties are common;
cancels some events before the run and lets callbacks cancel others
(a batch may cancel itself); and lets callbacks schedule more events.
``run_until`` is cut at event times and between them, then finished
with ``run()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator

GRID = st.integers(0, 8).map(lambda k: k * 0.5)

# What a callback does when it fires: nothing, spawn a single or a
# batch at a delay, or cancel one of the program's handles.
ACTION = st.one_of(
    st.none(),
    st.tuples(st.just("single"), GRID),
    st.tuples(st.just("batch"), st.lists(GRID, min_size=1, max_size=3)),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
)

EVENT = st.one_of(
    st.tuples(st.just("delay"), GRID, ACTION),
    st.tuples(st.just("at"), GRID, ACTION),
    # A batch acts when its element ``index`` fires.
    st.tuples(
        st.just("batch"),
        st.lists(GRID, min_size=1, max_size=4),
        st.tuples(st.integers(0, 3), ACTION),
    ),
)

PROGRAM = st.tuples(
    st.lists(EVENT, min_size=1, max_size=10),
    st.lists(st.integers(0, 15), max_size=3),  # cancelled before the run
)


def build(program):
    """A simulator loaded with ``program`` and the log it fires into."""
    events, cancels = program
    sim = Simulator()
    log = []
    handles = []

    def act(tag, action):
        if action is None:
            return
        kind, arg = action
        if kind == "single":
            sim.schedule(arg, lambda: log.append((f"{tag}>s", sim.now)))
        elif kind == "batch":
            times = sorted(sim.now + delay for delay in arg)
            sim.schedule_batch(
                times, lambda i: log.append((f"{tag}>b{i}", sim.now))
            )
        else:
            handles[arg % len(handles)].cancel()

    def single(tag, action):
        def fire():
            log.append((tag, sim.now))
            act(tag, action)

        return fire

    def batch(tag, at_index, action):
        def fire(i):
            log.append((f"{tag}.{i}", sim.now))
            if i == at_index:
                act(tag, action)

        return fire

    for k, (kind, when, action) in enumerate(events):
        tag = f"e{k}"
        if kind == "delay":
            handles.append(sim.schedule(when, single(tag, action)))
        elif kind == "at":
            handles.append(sim.schedule_at(when, single(tag, action)))
        else:
            at_index, batch_action = action
            handles.append(
                sim.schedule_batch(sorted(when), batch(tag, at_index, batch_action))
            )
    for index in cancels:
        handles[index % len(handles)].cancel()
    return sim, log


def outcome(sim, log):
    return log, sim.events_processed, sim.pending_events, sim.now


def by_run(program):
    sim, log = build(program)
    sim.run()
    return outcome(sim, log)


def by_step(program):
    sim, log = build(program)
    while True:
        processed = sim.events_processed
        if not sim.step():
            break
        assert sim.events_processed == processed + 1  # one event a step
    return outcome(sim, log)


def by_run_until(program, cuts, expected_log):
    sim, log = build(program)
    for cut in cuts:
        sim.run_until(cut)
        # Exactly the events due by the cut have fired.
        assert log == [event for event in expected_log if event[1] <= cut]
        assert sim.now == cut
    sim.run()
    return outcome(sim, log)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(program=PROGRAM, data=st.data())
def test_run_step_and_run_until_agree(program, data):
    expected = by_run(program)
    assert by_step(program) == expected
    log = expected[0]
    # Cut at fired times (ties at the cut fire inside it) and midway
    # between them; never past the last event, so the final clock is
    # the last event's time under every drive.
    fired = sorted({now for _, now in log}) or [0.0]
    points = fired + [(a + b) / 2 for a, b in zip(fired, fired[1:])]
    cuts = sorted(data.draw(st.lists(st.sampled_from(points), max_size=4)))
    assert by_run_until(program, cuts, log) == expected
    assert expected[2] == 0
