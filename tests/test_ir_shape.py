"""The one declaration of an instruction's shape — its dataclass fields
and ``OPERANDS`` — and the three methods derived from it, checked on
every concrete ``IRInstruction`` subclass, found by walking the class
tree: a class added later is covered without being listed here (and a
field of a type this module cannot build fails it until it can)."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import repro.ir
import repro.transforms
from repro.ir.instructions import VECTORIZABLE, IRInstruction
from repro.ir.values import Constant, VirtualRegister
from repro.ptx.types import AddressSpace, DataType


def _concrete(base=IRInstruction):
    for cls in base.__subclasses__():
        if hasattr(cls, "__dataclass_fields__"):
            yield cls
        yield from _concrete(cls)


CLASSES = sorted(_concrete(), key=lambda cls: cls.__name__)


def reg(name):
    return VirtualRegister(name, DataType.u32)


#: Field type -> two values that differ.
SAMPLES = {
    "str": ("add", "sub"),
    "int": (0, 3),
    "bool": (False, True),
    "DataType": (DataType.f32, DataType.u32),
    "AddressSpace": (AddressSpace.global_, AddressSpace.shared),
    "Optional[str]": (None, "rz"),
    "Optional[int]": (0, None),
    "Dict[int, str]": ({1: "a"}, {1: "a", 2: "b"}),
}


def build(cls, optional=True, **overrides):
    """An instance with every operand a distinct register; ``optional``
    says whether the optional operands and destination are present."""
    values = {}
    for field in fields(cls):
        kind = field.type
        if field.name in overrides:
            values[field.name] = overrides[field.name]
        elif field.name == "dst" or field.name in cls.OPERANDS:
            if kind.startswith("List["):
                values[field.name] = [reg("l0"), reg("l1")]
            elif kind.startswith("Optional[") and not optional:
                values[field.name] = None
            else:
                values[field.name] = reg(field.name)
        else:
            values[field.name] = SAMPLES[kind][0]
    return cls(**values)


def cases():
    for cls in CLASSES:
        yield pytest.param(cls, True, id=cls.__name__)
        if any(
            field.type.startswith("Optional[")
            for field in fields(cls)
            if field.name == "dst" or field.name in cls.OPERANDS
        ):
            yield pytest.param(cls, False, id=cls.__name__ + "-bare")


def test_the_walk_finds_the_instruction_set():
    names = {cls.__name__ for cls in CLASSES}
    assert len(CLASSES) >= 24
    assert {"BinaryOp", "AtomicRMW", "InsertElement", "Switch",
            "Exit"} <= names
    assert all(cls.uses is not IRInstruction.uses for cls in CLASSES)


@pytest.mark.parametrize("cls,optional", list(cases()))
class TestDerivedMethods:
    def test_rebuilt_on_its_own_parts_is_an_equal_unshared_copy(
        self, cls, optional
    ):
        original = build(cls, optional)
        copy = original.rebuilt(original.dst, original.uses())
        assert copy == original and copy is not original
        for field in fields(cls):
            value = getattr(original, field.name)
            if isinstance(value, (list, dict)):
                assert getattr(copy, field.name) is not value

    def test_rebuilt_reads_the_operands_in_uses_order(
        self, cls, optional
    ):
        original = build(cls, optional)
        fresh = [
            Constant(index, DataType.u32)
            for index in range(len(original.uses()))
        ]
        target = reg("t") if original.dst is not None else None
        copy = original.rebuilt(target, fresh)
        assert copy.uses() == fresh
        assert copy.dst == target
        assert copy.signature() == original.signature()
        assert hash(copy.signature()) == hash(original.signature())

    def test_uses_lists_the_declared_fields_in_order(self, cls, optional):
        original = build(cls, optional)
        expected = []
        for name in cls.OPERANDS:
            value = getattr(original, name)
            if isinstance(value, list):
                expected.extend(value)
            elif value is not None:
                expected.append(value)
        assert original.uses() == expected
        assert original.uses() is not original.uses()

    def test_signature_tells_every_other_field_apart(
        self, cls, optional
    ):
        original = build(cls, optional)
        for field in fields(cls):
            if field.name == "dst" or field.name in cls.OPERANDS:
                continue
            other = build(
                cls, optional, **{field.name: SAMPLES[field.type][1]}
            )
            assert other.signature() != original.signature(), field.name


def test_signature_tells_optional_parts_and_list_lengths_apart():
    for cls in CLASSES:
        full = build(cls)
        for field in fields(cls):
            if not (field.name == "dst" or field.name in cls.OPERANDS):
                continue
            if field.type.startswith("Optional["):
                without = build(cls, **{field.name: None})
                assert without.signature() != full.signature(), (
                    cls, field.name)
            if field.type.startswith("List["):
                shorter = build(cls, **{field.name: [reg("l0")]})
                assert shorter.signature() != full.signature(), cls


def test_the_orders_that_bite():
    from repro.ir import AtomicRMW, InsertElement

    insert = build(InsertElement)
    assert insert.uses() == [insert.scalar, insert.src]
    assert build(InsertElement, optional=False).uses() == [insert.scalar]
    cas = build(AtomicRMW)
    assert cas.uses() == [cas.base, cas.value, cas.compare]
    bare = build(AtomicRMW, optional=False)
    assert bare.dst is None and bare.compare is None
    assert bare.rebuilt(None, [1, 2]).compare is None
    with pytest.raises(ValueError):
        bare.rebuilt(None, [1, 2, 3])


def test_the_purity_tuple_exists_once():
    """No module of ``ir`` or ``transforms`` spells the seven pure
    classes again under another name."""
    again = []
    for package in (repro.ir, repro.transforms):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(
                f"{package.__name__}.{info.name}"
            )
            for name, value in vars(module).items():
                if (
                    isinstance(value, (tuple, list, set, frozenset))
                    and set(value) == set(VECTORIZABLE)
                    and value is not VECTORIZABLE
                ):
                    again.append(f"{module.__name__}.{name}")
    assert again == []
    assert len(VECTORIZABLE) == 7
