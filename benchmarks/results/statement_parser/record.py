"""What the statement parser must leave equal to the token parser.

    python3 record.py modules <checkout>              # the 43 apps
    python3 record.py corpus <checkout> <out.json>    # texts the tests parse
    python3 record.py mutants <seed> <count> <out.json>
    python3 record.py chains <seed> <count> <out.json>
    python3 record.py outcomes <checkout> <corpus.json>

``modules`` parses every registered app's source with the checkout's
``repro.ptx.parse`` and prints one sha256 per app of everything the
``Module`` holds: version, target, variables, and per kernel its
parameters (with offsets), registers in declaration order, variables
and statements with their ``line``. Two checkouts parse alike when the
outputs are equal.

``corpus`` runs the checkout's test suite with ``parse`` wrapped and
writes every distinct source text it was given; ``mutants`` writes
texts made from the apps' sources by deleting, doubling, swapping or
inserting a character or a word (most of them malformed); ``chains``
writes one-instruction kernels of a random opcode, a random chain of
zero to four modifiers and a random operand list (which the modifier
table classifies).
``outcomes`` parses each text of a corpus and prints a digest of the
module, or the class of the exception raised.
"""

import enum
import hashlib
import json
import os
import random
import sys
from dataclasses import fields, is_dataclass


def plain(value):
    """``value`` as nested lists of names and numbers."""
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        return [type(value).__name__] + [
            plain(getattr(value, field.name)) for field in fields(value)
        ]
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def digest(module) -> str:
    record = [
        module.name, module.version, module.target, plain(module.variables),
        [
            [
                kernel.name, plain(kernel.parameters),
                [[name, dtype.value] for name, dtype in
                 kernel.registers.items()],
                plain(kernel.variables), plain(kernel.statements),
            ]
            for kernel in module.kernels.values()
        ],
    ]
    blob = json.dumps(record).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load(checkout):
    sys.path.insert(0, os.path.join(checkout, "src"))
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    import repro.ptx.parser

    return repro.ptx.parser


def sources():
    from repro.workloads.registry import all_workloads

    return {app.name: app.module_source() for app in all_workloads()}


def modules(checkout):
    parse = load(checkout).parse
    total = hashlib.sha256()
    for name, source in sorted(sources().items()):
        line = f"{name} {digest(parse(source))}"
        total.update(line.encode())
        print(line)
    print(f"all {total.hexdigest()[:16]}")


def corpus(checkout, out):
    import pytest

    parser = load(checkout)
    original = parser.parse
    texts = {}

    def recording(source, *args, **kwargs):
        texts.setdefault(source, None)
        return original(source, *args, **kwargs)

    import repro.api.device
    import repro.ptx

    for module in (parser, repro.ptx, repro.api.device):
        module.parse = recording
    os.chdir(checkout)
    os.environ["PYTHONPATH"] = os.path.join(checkout, "src")
    status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    json.dump(sorted(texts), open(out, "w"), indent=0)
    print(f"{len(texts)} texts, pytest exit {status}")


EDITS = ("delete", "double", "swap", "insert", "drop_word", "copy_word")
NOISE = list(";,{}[]()<>=+-*@!%.:/`#") + [
    "%zz", ".u32", ".banana", "0x8", "-1", "1.5", "//", "/*", " ",
    "\n", "L:", "%r1", ".reg", "}", "0f3F800000",
]


def mutants(seed, count, out):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                    "..", "src"))
    rng = random.Random(int(seed))
    apps = sorted(sources().values())
    texts = []
    for _ in range(int(count)):
        text = rng.choice(apps)
        for _ in range(rng.randint(1, 2)):
            edit = rng.choice(EDITS)
            at = rng.randrange(len(text))
            if edit == "delete":
                text = text[:at] + text[at + 1:]
            elif edit == "double":
                text = text[:at] + text[at] + text[at:]
            elif edit == "swap":
                text = text[:at] + text[at + 1:at + 2] + text[at] + text[
                    at + 2:]
            elif edit == "insert":
                text = text[:at] + rng.choice(NOISE) + text[at:]
            else:
                words = text.split(" ")
                index = rng.randrange(len(words))
                if edit == "drop_word":
                    del words[index]
                else:
                    words.insert(rng.randrange(len(words)), words[index])
                text = " ".join(words)
        texts.append(text)
    json.dump(texts, open(out, "w"), indent=0)


CHAIN_OPERANDS = ("", " %r1", " %r1, %r2", " %r1, %r2, 3", " %p1, %r1, 1",
                  " L", " [a]", " %r1, [a+4], 2")


def chains(seed, count, out):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                    "..", "src"))
    from repro.ptx import AtomicOp, CompareOp, DataType, Opcode, VoteMode

    modifiers = [
        "global", "shared", "local", "param", "const", "generic", "rn",
        "rz", "rm", "rp", "rni", "rzi", "rmi", "rpi", "sat", "ftz",
        "approx", "full", "uni", "to", "sync", "gl", "cta", "sys", "v2",
        "v4", "v", "v0", "lo", "hi", "wide", "and", "or", "banana",
    ] + [member.value for kind in (CompareOp, AtomicOp, VoteMode, DataType)
         for member in kind]
    opcodes = [opcode.value for opcode in Opcode] + ["frob"]
    rng = random.Random(int(seed))
    head = (".version 2.3\n.target sim\n.entry k (.param .u64 a)\n{\n"
            " .reg .u32 %r<4>;\n .reg .pred %p<2>;\n")
    texts = []
    for _ in range(int(count)):
        chain = "".join(
            "." + rng.choice(modifiers) for _ in range(rng.randint(0, 4))
        )
        operands = rng.choice(CHAIN_OPERANDS)
        texts.append(f"{head} {rng.choice(opcodes)}{chain}{operands};\n"
                     f"L:\n exit;\n}}\n")
    json.dump(texts, open(out, "w"), indent=0)


def outcomes(checkout, path):
    parse = load(checkout).parse
    tally = {}
    for text in json.load(open(path)):
        try:
            outcome = digest(parse(text))
        except Exception as error:
            outcome = "!" + type(error).__name__
        kind = outcome if outcome[0] == "!" else "parsed"
        tally[kind] = tally.get(kind, 0) + 1
        key = hashlib.sha256(text.encode()).hexdigest()[:16]
        print(f"{key} {outcome}")
    print("#", json.dumps(tally, sort_keys=True))


if __name__ == "__main__":
    {"modules": modules, "corpus": corpus, "mutants": mutants,
     "chains": chains, "outcomes": outcomes}[sys.argv[1]](*sys.argv[2:])
