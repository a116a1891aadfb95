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
from repro.ir import IRFunction, Yield
from repro.ir.instructions import VECTORIZABLE, IRInstruction, _PerLane
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


def group(cls):
    """The overrides that make a per-lane class a lane group: every
    lane, some extracts and, where it has one, its pack."""
    names = {field.name for field in fields(cls)}
    return {"lane": None, "extracts": 2,
            **({"pack": True} if "pack" in names else {})}


LANE_CLASSES = [cls for cls in CLASSES if issubclass(cls, _PerLane)]
#: The lane classes a vector access can stand for (loads and stores).
CONTIGUOUS_CLASSES = [
    cls for cls in LANE_CLASSES
    if "contiguous" in {field.name for field in fields(cls)}
]


def contiguous_group(cls, extracts=1):
    """The overrides that make a load or store a contiguous group."""
    return {**group(cls), "extracts": extracts, "contiguous": True}


def cases():
    for cls in CLASSES:
        yield pytest.param(cls, True, {}, id=cls.__name__)
        if any(
            field.type.startswith("Optional[")
            for field in fields(cls)
            if field.name == "dst" or field.name in cls.OPERANDS
        ):
            yield pytest.param(cls, False, {}, id=cls.__name__ + "-bare")
        if cls in LANE_CLASSES:
            yield pytest.param(cls, True, group(cls),
                               id=cls.__name__ + "-group")
        if cls in CONTIGUOUS_CLASSES:
            yield pytest.param(cls, True, contiguous_group(cls),
                               id=cls.__name__ + "-contiguous")


def test_the_walk_finds_the_instruction_set():
    names = {cls.__name__ for cls in CLASSES}
    # 20 since a contiguous access is a load or store group: the vector
    # load, the vector store and the extractelement of its base went.
    assert len(CLASSES) >= 20
    assert {"BinaryOp", "AtomicRMW", "Load", "Switch", "Exit"} <= names
    assert all(cls.uses is not IRInstruction.uses for cls in CLASSES)


@pytest.mark.parametrize("cls,optional,form", list(cases()))
class TestDerivedMethods:
    def test_rebuilt_on_its_own_parts_is_an_equal_unshared_copy(
        self, cls, optional, form
    ):
        original = build(cls, optional, **form)
        copy = original.rebuilt(original.dst, original.uses())
        assert copy == original and copy is not original
        for field in fields(cls):
            value = getattr(original, field.name)
            if isinstance(value, (list, dict)):
                assert getattr(copy, field.name) is not value

    def test_rebuilt_reads_the_operands_in_uses_order(
        self, cls, optional, form
    ):
        original = build(cls, optional, **form)
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

    def test_uses_lists_the_declared_fields_in_order(
        self, cls, optional, form
    ):
        original = build(cls, optional, **form)
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
        self, cls, optional, form
    ):
        original = build(cls, optional, **form)
        for field in fields(cls):
            if field.name == "dst" or field.name in cls.OPERANDS:
                continue
            value = next(
                sample for sample in SAMPLES[field.type]
                if sample != getattr(original, field.name)
            )
            other = build(cls, optional, **{**form, field.name: value})
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
    from repro.ir import AtomicRMW

    cas = build(AtomicRMW)
    assert cas.uses() == [cas.base, cas.value, cas.compare]
    bare = build(AtomicRMW, optional=False)
    assert bare.dst is None and bare.compare is None
    assert bare.rebuilt(None, [1, 2]).compare is None
    with pytest.raises(ValueError):
        bare.rebuilt(None, [1, 2, 3])


@pytest.mark.parametrize("cls", LANE_CLASSES,
                         ids=[cls.__name__ for cls in LANE_CLASSES])
def test_a_group_stands_for_one_copy_per_lane(cls):
    """A lane group's ``lanes(w)`` are w copies of it, lane k's with
    ``lane=k`` and no shuffles of its own; the group keeps its fields
    and prices its shuffles in ``moves(w)``. One lane stands for
    itself and moves nothing."""
    original = build(cls, **group(cls))
    before = original.signature()
    for width in (1, 2, 4):
        lanes = original.lanes(width)
        assert [lane.lane for lane in lanes] == list(range(width))
        for lane in lanes:
            assert lane is not original and type(lane) is cls
            assert lane.extracts == 0 and lane.pack is False
            assert lane.contiguous is False
            # (A context read's lane writes the scalar of that name.)
            assert getattr(lane.dst, "name", None) == getattr(
                original.dst, "name", None)
            assert lane.uses() == original.uses()
            assert lane.lanes(width) == [lane]
            assert lane.moves(width) is None
        packed = width if getattr(original, "pack", False) else 0
        assert original.moves(width) == (width, 2 + packed)
    assert original.signature() == before and original.lane is None
    single = build(cls)
    assert single.lanes(4) == [single] and single.moves(4) is None


@pytest.mark.parametrize("cls", CONTIGUOUS_CLASSES,
                         ids=[cls.__name__ for cls in CONTIGUOUS_CLASSES])
def test_a_contiguous_group_is_one_access(cls):
    """A contiguous group moves one vector access and, where the block
    did not hold lane 0 of its base, one extract: at every width, and
    so does ``IRFunction.instruction_count()``. Its lanes are plain
    lanes."""
    for extracts in (0, 1):
        original = build(cls, **contiguous_group(cls, extracts))
        for width in (1, 2, 4):
            assert original.moves(width) == (1, extracts)
            lanes = original.lanes(width)
            assert [lane.lane for lane in lanes] == list(range(width))
            assert not any(lane.contiguous for lane in lanes)
            function = IRFunction("f", warp_size=width)
            function.add_block("entry").extend([original, Yield(status=3)])
            assert function.instruction_count() == 1 + extracts + 1


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
