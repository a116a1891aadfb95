import threading

import stats
from spans import Tracer
from stats import FOLDED, NAME, OP, PARENT


class Layered:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i * 2


def test_patch_records_nested_spans_and_unpatch_restores():
    tracer = Tracer()
    tracer.patch(Layered, "outer", "layer.outer")
    tracer.patch(Layered, "inner", "layer.inner")
    tracer.set_op("op-1")
    assert Layered().outer(3) == 6
    tracer.unpatch()
    names = [span[NAME] for span in tracer.spans]
    assert names == ["layer.inner"] * 3 + ["layer.outer"]
    outer = tracer.spans[-1]
    assert all(span[PARENT] is outer for span in tracer.spans[:3])
    assert {span[OP] for span in tracer.spans} == {"op-1"}
    # Restored: no further spans, and the class attribute is the original.
    Layered().outer(2)
    assert len(tracer.spans) == 4
    assert "__wrapped__" not in vars(Layered.outer)


def test_folded_leaf_calls_become_totals_on_the_parent():
    tracer = Tracer()
    tracer.patch(Layered, "outer", "layer.outer")
    tracer.patch(Layered, "inner", "layer.inner", fold=True)
    Layered().outer(5)
    tracer.unpatch()
    assert [span[NAME] for span in tracer.spans] == ["layer.outer"]
    count, seconds = tracer.spans[0][FOLDED]["layer.inner"]
    assert count == 5 and seconds >= 0.0
    totals = stats.self_times(tracer.spans)
    assert set(totals) == {"layer.outer", "layer.inner"}
    assert totals["layer.outer"] >= 0.0


def test_fold_call_with_children_or_without_parent_is_recorded():
    tracer = Tracer()
    tracer.patch(Layered, "outer", "layer.outer", fold=True)
    tracer.patch(Layered, "inner", "layer.inner", fold=True)
    Layered().outer(2)  # outer has no parent; inner folds into it
    tracer.unpatch()
    assert [span[NAME] for span in tracer.spans] == ["layer.outer"]
    assert tracer.spans[0][FOLDED]["layer.inner"][0] == 2


def test_instance_patch_is_removed_not_overwritten():
    tracer = Tracer()
    instance = Layered()
    tracer.patch(instance, "inner", "layer.inner")
    assert "inner" in vars(instance)
    instance.inner(1)
    tracer.unpatch()
    assert "inner" not in vars(instance)


def test_span_adopts_a_parent_published_by_another_thread():
    tracer = Tracer()
    server_done = threading.Event()

    def serve():
        handled()
        server_done.set()

    handled = tracer.wrap(lambda: None, "pool.write", adopt="tenant")

    def request():
        thread = threading.Thread(target=serve)
        thread.start()
        server_done.wait(5)
        thread.join(5)

    traced_request = tracer.wrap(request, "service.write", publish="tenant")
    tracer.set_op("tenant:0")
    traced_request()
    child, parent = tracer.spans
    assert child[NAME] == "pool.write" and child[PARENT] is parent
    assert child[OP] == "tenant:0"
    # Nothing stays published once the request has returned.
    handled()
    assert tracer.spans[-1][PARENT] is None


def test_chrome_trace_has_one_complete_event_per_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    tracer.wrap(inner, "outer")()
    trace = tracer.chrome_trace("unit")
    events = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert [event["name"] for event in events] == ["inner", "outer"]
    assert events[0]["args"]["parent"] == events[1]["args"]["id"]
    assert all(event["dur"] >= 0 for event in events)
