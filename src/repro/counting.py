"""What is counted, stated once.

A counter class is a dataclass whose every field says how two records
of it combine — :func:`added`, :func:`added_by_key`,
:func:`latest_by_key`, :func:`logged`, :func:`nested`, :func:`kept` —
and :func:`counted` prints ``merge``, ``reset``, ``snapshot``, ``delta``
and ``as_dict`` for it from those declarations, once, at import, as
straight-line code (what ``ir.instructions._instruction`` does for an
instruction's operands). A class that is shown lists its rows once in
``REPORT`` and :func:`render` is every text form of it.

The module imports nothing of the package: ``machine`` declares
``ExecutionStats`` with it, ``runtime`` everything else.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

#: Per rule, with ``X`` standing for the field: the statements of
#: ``merge(other)`` and the expressions of ``snapshot()`` and
#: ``delta(before)`` (a table that did not change — every launch but
#: the compiling one — is one comparison).
_RULES = {
    "added": (
        "self.X += other.X",
        "self.X",
        "self.X - before.X",
    ),
    "added_by_key": (
        "mine = self.X\n"
        "for key, value in other.X.items():\n"
        "    mine[key] = mine.get(key, 0) + value",
        "dict(self.X)",
        "{} if self.X == before.X else"
        " {key: value - before.X.get(key, 0)"
        " for key, value in self.X.items()"
        " if value != before.X.get(key)}",
    ),
    "latest_by_key": (
        "self.X.update(other.X)",
        "dict(self.X)",
        "{} if self.X == before.X else"
        " {key: value for key, value in self.X.items()"
        " if key not in before.X or before.X[key] != value}",
    ),
    "logged": (
        "self.X.extend(other.X)",
        "list(self.X)",
        "self.X[len(before.X):]",
    ),
    "nested": (
        "if other.X is not None:\n"
        "    if self.X is None:\n"
        "        self.X = other.X.snapshot()\n"
        "    else:\n"
        "        self.X.merge(other.X)",
        "None if self.X is None else self.X.snapshot()",
        "None if self.X is None else self.X.snapshot()"
        " if before.X is None else self.X.delta(before.X)",
    ),
    "kept": ("", "self.X", "self.X"),
}

#: What :func:`counted` prints.
_PRINTED = {
    "merge": "Fold ``other`` in, field by field as declared.",
    "reset": "Back to nothing recorded (the kept fields stay).",
    "snapshot": "An equal copy sharing no container with this record.",
    "delta": "What was recorded since ``before``, an earlier snapshot.",
    "as_dict": "Every field by name, as JSON carries it (:func:`plain`).",
}


def _declared(rule: str, **default):
    return field(metadata={"rule": rule}, **default)


def added(zero=0):
    """A number that adds (``zero=0.0`` for seconds)."""
    return _declared("added", default=zero)


def added_by_key():
    """``{key: number}``; the numbers of equal keys add."""
    return _declared("added_by_key", default_factory=dict)


def latest_by_key():
    """``{key: value}``; the later value of a key wins."""
    return _declared("latest_by_key", default_factory=dict)


def logged():
    """A list that is appended to."""
    return _declared("logged", default_factory=list)


def nested(factory=None):
    """Another counter class; ``None`` until attached unless a
    ``factory`` starts it."""
    if factory is None:
        return _declared("nested", default=None)
    return _declared("nested", default_factory=factory)


def kept(default=MISSING):
    """What the record is about (a tenant, a worker, its state): copied,
    never combined."""
    return _declared("kept", default=default)


def plain(value):
    """``value`` as JSON carries it: a counter class is its
    ``as_dict()``, keys are text, tuples are lists, anything else that
    is not a number or text is its ``str``."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {
            "/".join(map(str, key)) if isinstance(key, tuple) else str(key):
                plain(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value.as_dict() if hasattr(value, "as_dict") else str(value)


def counted(cls):
    """``@dataclass`` whose every field declares its rule, plus the
    methods of :data:`_PRINTED`, printed from the declarations."""
    cls = dataclass(cls)
    name = cls.__name__
    merge, reset, copied, grown = [], [], [], []
    namespace = {name: cls, "plain": plain}
    for item in fields(cls):
        if "rule" not in item.metadata:
            raise TypeError(f"{name}.{item.name} declares no combine rule")
        rule = item.metadata["rule"]
        merged, copy, growth = (
            text.replace("X", item.name) for text in _RULES[rule]
        )
        merge += merged.splitlines()
        copied.append(f"{item.name}={copy}")
        grown.append(f"{item.name}={growth}")
        if rule != "kept" and item.default is MISSING:
            namespace[f"new_{item.name}"] = item.default_factory
            reset.append(f"self.{item.name} = new_{item.name}()")
        elif rule != "kept":
            reset.append(f"self.{item.name} = {item.default!r}")
    shown = [f"{item.name!r}: plain(self.{item.name})" for item in fields(cls)]
    source = [
        "def merge(self, other):",
        *[f"    {line}" for line in merge or ["pass"]],
        "def reset(self):",
        *[f"    {line}" for line in reset or ["pass"]],
        "def snapshot(self):",
        f"    return {name}({', '.join(copied)})",
        "def delta(self, before):",
        f"    return {name}({', '.join(grown)})",
        "def as_dict(self):",
        f"    return {{{', '.join(shown)}}}",
    ]
    exec("\n".join(source), namespace)
    for method, doc in _PRINTED.items():
        namespace[method].__doc__ = doc
        namespace[method].__qualname__ = f"{name}.{method}"
        setattr(cls, method, namespace[method])
    return cls


def render(record, separator: str = "\n", **extra) -> str:
    """The rows of ``type(record).REPORT`` that apply, filled in. A row
    is a ``str.format`` template over the record's fields and
    ``extra``, or ``(template, when)`` — shown while any of the values
    named in ``when`` is truthy."""
    values = {**vars(record), **extra}
    lines = []
    for row in type(record).REPORT:
        template, when = row if isinstance(row, tuple) else (row, "")
        if not when or any(values[name] for name in when.split()):
            lines.append(template.format_map(values))
    return separator.join(lines)
