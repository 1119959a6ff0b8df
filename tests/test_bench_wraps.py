"""The traced benchmark still finds every cavlab function it wraps.

`bench/tracer.Tracer` skips a function that is no longer where it looks, with a
note, and the per-layer metrics of that function then read 0 without failing
the run. So any note but those of the two stale wraps that `bench/worker.py`
still lists (`qlearn.greedy_action` and `qlearn.reward`, which moved out of
`qlearn`) fails here.
"""

import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
STALE = {"cavlab.qlearn.greedy_action", "cavlab.qlearn.reward"}


def test_every_wrap_finds_its_function(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import worker
    from tracer import Tracer

    tracer = Tracer()
    try:
        worker.install(tracer)
    finally:
        tracer.unwrap()
    # a note reads "<layer>: <module>.<attribute> not found, not traced"
    assert [note for note in tracer.notes if note.split(": ", 1)[1].split()[0] not in STALE] == []
