"""Shared fixtures: canonical kernels, devices, configs — plus the
suite-hygiene machinery (REPRO_* environment isolation and the
REPRO_TEST_SHUFFLE randomized collection order)."""

from __future__ import annotations

import os
import random
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _repro_env_guard():
    """Snapshot and restore every ``REPRO_*`` environment variable
    around each test: the runtime reads REPRO_CACHE / REPRO_SANITIZE /
    REPRO_MELD at Device construction, so a test that leaks one
    silently reconfigures every later Device in the run."""
    saved = {
        key: value
        for key, value in os.environ.items()
        if key.startswith("REPRO_")
    }
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in saved:
            del os.environ[key]
    os.environ.update(saved)


def pytest_collection_modifyitems(config, items):
    """``REPRO_TEST_SHUFFLE=<seed>`` randomizes test order to flush
    out order-dependence, without extra plugins. Each module's items
    stay contiguous (several modules use module-scoped device/server
    fixtures whose lifetime assumes that), but module order and the
    order within each module are shuffled deterministically."""
    seed = os.environ.get("REPRO_TEST_SHUFFLE", "").strip()
    if not seed:
        return
    rng = random.Random(seed)
    modules: dict = {}
    for item in items:
        modules.setdefault(item.module.__name__, []).append(item)
    module_order = list(modules)
    rng.shuffle(module_order)
    shuffled = []
    for name in module_order:
        group = modules[name]
        rng.shuffle(group)
        shuffled.extend(group)
    items[:] = shuffled

from repro import (
    Device,
    ExecutionConfig,
    baseline_config,
    static_tie_config,
    vectorized_config,
)
from repro.frontend import translate_kernel
from repro.machine.array_backend import _ArrayBlocks
from repro.ptx import parse

#: Guarded element-wise add: one potential divergence site (the bounds
#: guard), no barriers. The canonical kernel for most unit tests.
VECADD_PTX = r"""
.version 2.3
.target sim
.entry vecAdd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [a];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  ld.param.u64 %rd4, [b];
  add.u64 %rd5, %rd4, %rd1;
  ld.global.f32 %f2, [%rd5];
  add.f32 %f3, %f1, %f2;
  ld.param.u64 %rd6, [c];
  add.u64 %rd7, %rd6, %rd1;
  st.global.f32 [%rd7], %f3;
DONE:
  exit;
}
"""

#: Data-dependent loop (Collatz step counts): sustained divergence.
COLLATZ_PTX = r"""
.version 2.3
.target sim
.entry collatz (.param .u64 src, .param .u64 dst, .param .u32 n)
{
  .reg .u32 %r<12>;
  .reg .u64 %rd<8>;
  .reg .pred %p<4>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [src];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r6, [%rd3];
  mov.u32 %r7, 0;
LOOP:
  setp.le.u32 %p2, %r6, 1;
  @%p2 bra EXITLOOP;
  and.b32 %r8, %r6, 1;
  setp.eq.u32 %p3, %r8, 0;
  @%p3 bra EVEN;
  mul.lo.u32 %r6, %r6, 3;
  add.u32 %r6, %r6, 1;
  bra NEXT;
EVEN:
  shr.u32 %r6, %r6, 1;
NEXT:
  add.u32 %r7, %r7, 1;
  bra LOOP;
EXITLOOP:
  ld.param.u64 %rd4, [dst];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r7;
DONE:
  exit;
}
"""

#: Shared-memory tree reduction: barriers + shrinking active set.
REDUCE_PTX = r"""
.version 2.3
.target sim
.entry reduceK (.param .u64 src, .param .u64 dst)
{
  .reg .u32 %r<12>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<4>;
  .shared .f32 sdata[64];

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [src];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  mov.u32 %r5, sdata;
  shl.b32 %r6, %r1, 2;
  add.u32 %r7, %r5, %r6;
  st.shared.f32 [%r7], %f1;
  bar.sync 0;
  mov.u32 %r8, 32;
RLOOP:
  setp.ge.u32 %p1, %r1, %r8;
  @%p1 bra SKIP;
  shl.b32 %r9, %r8, 2;
  add.u32 %r10, %r7, %r9;
  ld.shared.f32 %f2, [%r7];
  ld.shared.f32 %f3, [%r10];
  add.f32 %f2, %f2, %f3;
  st.shared.f32 [%r7], %f2;
SKIP:
  bar.sync 0;
  shr.u32 %r8, %r8, 1;
  setp.gt.u32 %p2, %r8, 0;
  @%p2 bra RLOOP;
  setp.ne.u32 %p3, %r1, 0;
  @%p3 bra DONE;
  ld.shared.f32 %f2, [%r5];
  ld.param.u64 %rd4, [dst];
  mul.wide.u32 %rd5, %r3, 4;
  add.u64 %rd6, %rd4, %rd5;
  st.global.f32 [%rd6], %f2;
DONE:
  exit;
}
"""


def scale_reader_ptx(kernel: str, scale: float) -> str:
    """A module with its own ``.global .f32 scale`` initialized to
    ``scale``, and a kernel that stores it to ``dst[tid.x]``."""
    return f"""
.version 2.3
.target sim
.global .f32 scale = {scale};
.entry {kernel} (.param .u64 dst)
{{
  .reg .u32 %r<2>;
  .reg .u64 %rd<4>;
  .reg .f32 %f<2>;
  mov.u32 %r1, %tid.x;
  mov.u64 %rd1, scale;
  ld.global.f32 %f1, [%rd1];
  mul.wide.u32 %rd2, %r1, 4;
  ld.param.u64 %rd3, [dst];
  add.u64 %rd3, %rd3, %rd2;
  st.global.f32 [%rd3], %f1;
  exit;
}}
"""


def collatz_steps(value: int) -> int:
    steps = 0
    while value > 1:
        value = 3 * value + 1 if value % 2 else value // 2
        steps += 1
    return steps


@pytest.fixture
def vecadd_module():
    return parse(VECADD_PTX)


@pytest.fixture
def vecadd_scalar_ir(vecadd_module):
    return translate_kernel(vecadd_module.kernel("vecAdd"))


@pytest.fixture
def reduce_scalar_ir():
    return translate_kernel(parse(REDUCE_PTX).kernel("reduceK"))


@pytest.fixture(
    params=["baseline", "vectorized", "static-tie"],
    ids=["baseline", "vec4", "static-tie"],
)
def any_config(request) -> ExecutionConfig:
    return {
        "baseline": baseline_config(),
        "vectorized": vectorized_config(4),
        "static-tie": static_tie_config(4),
    }[request.param]


@contextmanager
def sequential_only():
    """The forced-sequential leg (test support only — the product has
    no such switch): while active, admission refuses every batch, so
    every Device in this process runs one warp at a time. What a
    differential compares the default (batching) leg against; modeled
    statistics and guest memory must not be able to tell."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            _ArrayBlocks, "admits", lambda self, entry_point: False
        )
        yield


@pytest.fixture(params=["batching", "sequential"])
def execution_leg(request):
    """Run the test on both paths of the one executor: as admission
    decides, and under :func:`sequential_only`."""
    leg = sequential_only if request.param == "sequential" else nullcontext
    with leg():
        yield request.param


@pytest.fixture
def device():
    return Device()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
