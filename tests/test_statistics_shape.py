"""The one declaration of what is counted — a counter class's fields and
the combine rule each names (``repro.counting``) — and the methods
printed from it, checked on every declared class, found by walking the
package: a class added later is covered without being listed here, and
a field of a type this module cannot build fails it until it can."""

import importlib
import json
import pickle
import pkgutil
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.counting import added, counted, kept, render
from repro.sanitizer.reports import SanitizerReport


def _declared_classes():
    found = {}
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        for value in vars(importlib.import_module(module.name)).values():
            if (
                isinstance(value, type)
                and is_dataclass(value)
                and any("rule" in item.metadata for item in fields(value))
            ):
                found[value.__name__] = value
    return found


CLASSES = _declared_classes()


def rules(cls):
    return [(item.name, item.metadata["rule"]) for item in fields(cls)]


def test_the_walk_finds_the_counter_classes():
    assert set(CLASSES) >= {
        "ExecutionStats", "LaunchStatistics", "CacheStatistics",
        "TenantStatistics", "WorkerHealth",
    }
    for cls in CLASSES.values():
        assert all("rule" in item.metadata for item in fields(cls)), cls
        for method in ("merge", "reset", "snapshot", "delta", "as_dict"):
            # printed for this class, not inherited from another's fields
            assert getattr(cls, method).__qualname__ == (
                f"{cls.__name__}.{method}"
            )


def test_a_field_without_a_rule_is_refused():
    with pytest.raises(TypeError, match="Orphan.plain declares no"):
        @counted
        class Orphan:
            counted_field: int = added()
            plain: int = 0


# Sums must be exact for the laws to be equalities: quarters are.
quarters = st.integers(0, 4000).map(lambda n: n / 4)
counts = st.integers(0, 1000)
names = st.sampled_from(["vecAdd", "reduceK", "cse", "verify", "open"])
widths = st.sampled_from([1, 2, 4, 8])
findings = st.builds(
    SanitizerReport,
    kind=st.sampled_from(["oob", "race"]),
    kernel=names,
    message=names,
    address=counts,
    size=widths,
    count=st.integers(1, 4),
)


def instances(name):
    return st.deferred(lambda: build(CLASSES[name]))


#: Field type, as the class spells it -> values of it.
TYPES = {
    "int": counts,
    "float": quarters,
    "bool": st.booleans(),
    "str": names,
    "Optional[str]": st.none() | names,
    "Optional[float]": st.none() | quarters,
    "Dict[int, int]": st.dictionaries(widths, counts),
    "Dict[str, int]": st.dictionaries(names, counts),
    "Dict[str, float]": st.dictionaries(names, quarters),
    "Dict[Tuple[str, int], int]": st.dictionaries(
        st.tuples(names, widths), counts
    ),
    "Dict[Tuple[str, int], float]": st.dictionaries(
        st.tuples(names, widths), quarters
    ),
    "Dict[str, Tuple[int, int]]": st.dictionaries(
        names, st.tuples(counts, counts)
    ),
    "List[str]": st.lists(names, max_size=3),
    "List[Tuple[str, int, int, str]]": st.lists(
        st.tuples(names, widths, widths, names), max_size=3
    ),
    "List[SanitizerReport]": st.lists(findings, max_size=2),
    "Optional[CacheStatistics]": st.none() | instances("CacheStatistics"),
    "LaunchStatistics": instances("LaunchStatistics"),
}


def build(cls, **identity):
    """Instances of ``cls``; ``identity`` fixes the kept fields."""
    return st.builds(
        cls,
        **{
            item.name: (
                st.just(identity[item.name])
                if item.name in identity
                else TYPES[item.type]
            )
            for item in fields(cls)
        },
    )


@st.composite
def record_and_increment(draw, cls):
    """Two records about the same thing (equal kept fields)."""
    record = draw(build(cls))
    identity = {
        name: getattr(record, name)
        for name, rule in rules(cls)
        if rule == "kept"
    }
    return record, draw(build(cls, **identity))


def is_zero(record):
    """Nothing recorded: every field but the kept ones at its zero."""
    for name, rule in rules(type(record)):
        value = getattr(record, name)
        if rule == "kept":
            continue
        if rule == "nested":
            if not (value is None or is_zero(value)):
                return False
        elif value not in (0, None, {}, []):
            return False
    return True


def containers(record):
    """Every mutable object reachable from ``record``, by identity."""
    yield record
    for name, rule in rules(type(record)):
        value = getattr(record, name)
        if isinstance(value, (dict, list)):
            yield value
        elif rule == "nested" and value is not None:
            yield from containers(value)


def expected_merge(rule, mine, other):
    """What the declaration says ``merge`` leaves in a field."""
    if rule == "kept":
        return mine
    if rule == "added":
        return mine + other
    if rule == "added_by_key":
        return {
            key: mine.get(key, 0) + other.get(key, 0)
            for key in {**mine, **other}
        }
    if rule == "latest_by_key":
        return {**mine, **other}
    if rule == "logged":
        return mine + other
    if other is None or mine is None:  # nested
        return mine if other is None else other
    merged = mine.snapshot()
    merged.merge(other)
    return merged


per_class = pytest.mark.parametrize(
    "cls", CLASSES.values(), ids=list(CLASSES)
)


@per_class
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_printed_methods_keep_their_laws(cls, data):
    before, increment = data.draw(record_and_increment(cls))

    copy = before.snapshot()
    assert copy == before
    assert not (
        {id(part) for part in containers(copy)}
        & {id(part) for part in containers(before)}
    )
    assert is_zero(before.delta(copy))
    assert pickle.loads(pickle.dumps(before)) == before

    after = before.snapshot()
    after.merge(increment)
    for name, rule in rules(cls):
        assert getattr(after, name) == expected_merge(
            rule, getattr(before, name), getattr(increment, name)
        ), name
    assert increment == increment.snapshot()  # merge reads, never takes

    grown = after.delta(before)
    rebuilt = before.snapshot()
    rebuilt.merge(grown)
    assert rebuilt == after

    shown = after.as_dict()
    assert json.loads(json.dumps(shown)) == shown
    assert set(shown) >= {name for name, _ in rules(cls)}

    kept_before = [
        getattr(after, name) for name, rule in rules(cls) if rule == "kept"
    ]
    after.reset()
    assert is_zero(after)
    assert kept_before == [
        getattr(after, name) for name, rule in rules(cls) if rule == "kept"
    ]


def test_a_merged_log_or_table_is_not_the_other_records():
    from repro.runtime.pool import TenantStatistics
    from repro.runtime.translation_cache import CacheStatistics

    other = CacheStatistics()
    other.record_stage("cse", 0.25, 2)
    mine = CacheStatistics()
    mine.merge(other)
    mine.record_stage("cse", 0.25, 1)
    assert other.stage_changes == {"cse": 2}

    other = TenantStatistics(tenant="t", worker=0, weight=1.0)
    other.trap_reports.append("why")
    mine = TenantStatistics(tenant="t", worker=0, weight=1.0)
    mine.merge(other)
    mine.trap_reports.append("again")
    assert other.trap_reports == ["why"]


def test_render_shows_a_conditional_row_while_its_field_is_set():
    @counted
    class Shown:
        name: str = kept()
        hits: int = added()
        REPORT = (
            "{name}: hits={hits} twice={twice}",
            ("nonzero {hits:>3}", "hits"),
        )

    assert render(Shown("a"), twice=0) == "a: hits=0 twice=0"
    assert render(Shown("a", 2), " | ", twice=4) == (
        "a: hits=2 twice=4 | nonzero   2"
    )
