"""Divergence-heavy workloads built around data-dependent diamonds.

The paper's suite is light on *structured* divergence: its divergent
applications mostly carry data-dependent loop trip counts, where the
only cure is warp re-formation. This family exercises the other shape
— if/else diamonds whose arms do similar work — which is exactly what
control-flow melding (:mod:`repro.transforms.melding`) targets, so
these workloads anchor the ``--meld`` ablation axis of the benchmark
suite alongside the yield-on-diverge baseline.
"""

from __future__ import annotations

import numpy as np

from .base import Category, Workload, grid_for
from .registry import register


@register
class Collatz(Workload):
    """Collatz step counts: a data-dependent loop wrapping an
    odd/even diamond with unbalanced pure arms."""

    name = "Collatz"
    category = Category.DIVERGENT
    suite = "extension"
    description = "3n+1 step counts (loop around an odd/even diamond)"

    def module_source(self) -> str:
        return r"""
.version 2.3
.target sim
.entry collatzSteps (.param .u64 src, .param .u64 dst, .param .u32 n)
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

    @staticmethod
    def reference(values: np.ndarray) -> np.ndarray:
        steps = np.zeros_like(values)
        for index, value in enumerate(values):
            value = int(value)
            count = 0
            while value > 1:
                value = 3 * value + 1 if value % 2 else value // 2
                count += 1
            steps[index] = count
        return steps

    def execute(self, device, scale: float = 1.0, check: bool = True):
        n = max(64, int(256 * scale))
        block = 64
        data = self.rng().integers(1, 500, size=n, dtype=np.uint32)
        source = device.upload(data)
        destination = device.malloc(n * 4)
        result = device.launch(
            "collatzSteps",
            grid=(grid_for(n, block), 1, 1),
            block=(block, 1, 1),
            args=[source, destination, n],
        )
        correct = None
        if check:
            correct = np.array_equal(
                destination.read(np.uint32, n), self.reference(data)
            )
        return self._finish([result], correct, check)


@register
class AbsDiff(Workload):
    """Branchy |a - b|: both arms subtract (swapped operands) and
    store to the same address — the melding pass aligns the stores and
    selects between the two differences."""

    name = "AbsDiff"
    category = Category.DIVERGENT
    suite = "extension"
    description = "elementwise |a-b| via a diamond with stores in arms"

    def module_source(self) -> str:
        return r"""
.version 2.3
.target sim
.entry absDiff (.param .u64 a, .param .u64 b, .param .u64 out,
                .param .u32 n)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<12>;
  .reg .f32 %f<8>;
  .reg .pred %p<4>;

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
  ld.param.u64 %rd6, [out];
  add.u64 %rd7, %rd6, %rd1;
  setp.gt.f32 %p2, %f1, %f2;
  @%p2 bra BIG;
  sub.f32 %f3, %f2, %f1;
  st.global.f32 [%rd7], %f3;
  bra JOIN;
BIG:
  sub.f32 %f4, %f1, %f2;
  st.global.f32 [%rd7], %f4;
JOIN:
DONE:
  exit;
}
"""

    def execute(self, device, scale: float = 1.0, check: bool = True):
        n = max(64, int(1024 * scale))
        block = 64
        rng = self.rng()
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        source_a = device.upload(a)
        source_b = device.upload(b)
        destination = device.malloc(n * 4)
        result = device.launch(
            "absDiff",
            grid=(grid_for(n, block), 1, 1),
            block=(block, 1, 1),
            args=[source_a, source_b, destination, n],
        )
        correct = None
        if check:
            correct = np.array_equal(
                destination.read(np.float32, n), np.abs(a - b)
            )
        return self._finish([result], correct, check)


@register
class OptionPayoff(Workload):
    """Interleaved call/put payoffs: odd threads price puts (with an
    extra scaling op — unbalanced arms), even threads price calls."""

    name = "OptionPayoff"
    category = Category.DIVERGENT
    suite = "extension"
    description = "call/put payoff diamond with unbalanced arms"

    STRIKE = 1.0

    def module_source(self) -> str:
        return r"""
.version 2.3
.target sim
.entry payoff (.param .u64 in, .param .u64 out, .param .u32 n)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<10>;
  .reg .f32 %f<10>;
  .reg .pred %p<4>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  and.b32 %r6, %r4, 1;
  setp.eq.u32 %p2, %r6, 0;
  @%p2 bra CALL;
  sub.f32 %f2, 1.0, %f1;
  max.f32 %f3, %f2, 0.0;
  mul.f32 %f4, %f3, 2.0;
  st.global.f32 [%rd5], %f4;
  bra JOIN;
CALL:
  sub.f32 %f5, %f1, 1.0;
  max.f32 %f6, %f5, 0.0;
  st.global.f32 [%rd5], %f6;
JOIN:
DONE:
  exit;
}
"""

    def reference(self, prices: np.ndarray) -> np.ndarray:
        indices = np.arange(prices.size)
        call = np.maximum(prices - np.float32(1.0), np.float32(0.0))
        put = np.maximum(np.float32(1.0) - prices, np.float32(0.0))
        put = (put * np.float32(2.0)).astype(np.float32)
        return np.where(indices % 2 == 0, call, put).astype(np.float32)

    def execute(self, device, scale: float = 1.0, check: bool = True):
        n = max(64, int(1024 * scale))
        block = 64
        prices = (
            self.rng().uniform(0.25, 2.0, size=n).astype(np.float32)
        )
        source = device.upload(prices)
        destination = device.malloc(n * 4)
        result = device.launch(
            "payoff",
            grid=(grid_for(n, block), 1, 1),
            block=(block, 1, 1),
            args=[source, destination, n],
        )
        correct = None
        if check:
            correct = np.array_equal(
                destination.read(np.float32, n), self.reference(prices)
            )
        return self._finish([result], correct, check)


@register
class GradClamp(Workload):
    """One clipped gradient-descent step: over-the-bound threads take
    a damped arm, the rest a plain-update arm — both arms are fma
    chains the melding pass can pair."""

    name = "GradClamp"
    category = Category.DIVERGENT
    suite = "extension"
    description = "clamped gradient step via an fma diamond"

    def module_source(self) -> str:
        return r"""
.version 2.3
.target sim
.entry gradClamp (.param .u64 x, .param .u64 g, .param .u64 out,
                  .param .u32 n)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<12>;
  .reg .f32 %f<10>;
  .reg .pred %p<4>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [x];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  ld.param.u64 %rd4, [g];
  add.u64 %rd5, %rd4, %rd1;
  ld.global.f32 %f2, [%rd5];
  fma.rn.f32 %f3, %f2, -0.5, %f1;
  ld.param.u64 %rd6, [out];
  add.u64 %rd7, %rd6, %rd1;
  setp.gt.f32 %p2, %f3, 1.0;
  @%p2 bra OVER;
  fma.rn.f32 %f4, %f3, 0.9, 0.05;
  st.global.f32 [%rd7], %f4;
  bra JOIN;
OVER:
  sub.f32 %f5, %f3, 1.0;
  fma.rn.f32 %f6, %f5, 0.1, 1.0;
  st.global.f32 [%rd7], %f6;
JOIN:
DONE:
  exit;
}
"""

    def reference(
        self, x: np.ndarray, g: np.ndarray
    ) -> np.ndarray:
        stepped = x + g * np.float32(-0.5)
        under = stepped * np.float32(0.9) + np.float32(0.05)
        over = (stepped - np.float32(1.0)) * np.float32(0.1) + np.float32(
            1.0
        )
        return np.where(stepped > 1.0, over, under).astype(np.float32)

    def execute(self, device, scale: float = 1.0, check: bool = True):
        n = max(64, int(1024 * scale))
        block = 64
        rng = self.rng()
        x = rng.uniform(0.0, 2.0, size=n).astype(np.float32)
        g = rng.standard_normal(n).astype(np.float32)
        source_x = device.upload(x)
        source_g = device.upload(g)
        destination = device.malloc(n * 4)
        result = device.launch(
            "gradClamp",
            grid=(grid_for(n, block), 1, 1),
            block=(block, 1, 1),
            args=[source_x, source_g, destination, n],
        )
        correct = None
        if check:
            correct = np.allclose(
                destination.read(np.float32, n),
                self.reference(x, g),
                rtol=1e-6,
            )
        return self._finish([result], correct, check)


@register
class SharedToggle(Workload):
    """Odd/even threads publish differently-transformed values into
    shared memory inside a divergent diamond, synchronize, and read
    their neighbour's slot — shared-memory stores inside melded arms."""

    name = "SharedToggle"
    category = Category.DIVERGENT
    suite = "extension"
    description = "diamond with shared stores, barrier, neighbour read"

    def module_source(self) -> str:
        return r"""
.version 2.3
.target sim
.entry sharedToggle (.param .u64 in, .param .u64 out, .param .u32 n)
{
  .reg .u32 %r<16>;
  .reg .u64 %rd<10>;
  .reg .pred %p<4>;
  .shared .u32 slots[64];

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r6, [%rd3];
  shl.b32 %r7, %r1, 2;
  mov.u32 %r8, slots;
  add.u32 %r9, %r8, %r7;
  and.b32 %r10, %r1, 1;
  setp.eq.u32 %p2, %r10, 0;
  @%p2 bra EVEN;
  mul.lo.u32 %r11, %r6, 3;
  st.shared.u32 [%r9], %r11;
  bra JOIN;
EVEN:
  add.u32 %r12, %r6, 7;
  st.shared.u32 [%r9], %r12;
JOIN:
  bar.sync 0;
  xor.b32 %r13, %r1, 1;
  shl.b32 %r14, %r13, 2;
  add.u32 %r15, %r8, %r14;
  ld.shared.u32 %r5, [%r15];
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r5;
  exit;
}
"""

    def reference(self, values: np.ndarray) -> np.ndarray:
        lanes = np.arange(values.size)
        published = np.where(
            lanes % 2 == 0, values + 7, values * 3
        ).astype(np.uint32)
        return published[lanes ^ 1]

    def execute(self, device, scale: float = 1.0, check: bool = True):
        block = 64
        ctas = max(1, int(4 * scale))
        n = block * ctas
        data = self.rng().integers(
            0, 10_000, size=n, dtype=np.uint32
        )
        source = device.upload(data)
        destination = device.malloc(n * 4)
        result = device.launch(
            "sharedToggle",
            grid=(ctas, 1, 1),
            block=(block, 1, 1),
            args=[source, destination, n],
        )
        correct = None
        if check:
            correct = np.array_equal(
                destination.read(np.uint32, n), self.reference(data)
            )
        return self._finish([result], correct, check)


@register
class Bisect(Workload):
    """Square roots by fixed-iteration bisection: every iteration
    branches on the residual's sign to move one interval endpoint — a
    one-instruction diamond executed 24 times per thread."""

    name = "Bisect"
    category = Category.DIVERGENT
    suite = "extension"
    description = "sqrt via bisection (per-iteration lo/hi diamond)"

    ITERATIONS = 24

    def module_source(self) -> str:
        return r"""
.version 2.3
.target sim
.entry bisectSqrt (.param .u64 in, .param .u64 out, .param .u32 n)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<10>;
  .reg .f32 %f<10>;
  .reg .pred %p<4>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  mov.f32 %f2, 0.0;
  mov.f32 %f3, 2.0;
  mov.u32 %r6, 0;
LOOP:
  add.f32 %f4, %f2, %f3;
  mul.f32 %f5, %f4, 0.5;
  mul.f32 %f6, %f5, %f5;
  sub.f32 %f7, %f6, %f1;
  setp.gt.f32 %p2, %f7, 0.0;
  @%p2 bra HIGH;
  mov.f32 %f2, %f5;
  bra NEXT;
HIGH:
  mov.f32 %f3, %f5;
NEXT:
  add.u32 %r6, %r6, 1;
  setp.lt.u32 %p3, %r6, 24;
  @%p3 bra LOOP;
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.f32 [%rd5], %f2;
DONE:
  exit;
}
"""

    def reference(self, values: np.ndarray) -> np.ndarray:
        lo = np.zeros_like(values)
        hi = np.full_like(values, np.float32(2.0))
        for _ in range(self.ITERATIONS):
            mid = ((lo + hi) * np.float32(0.5)).astype(np.float32)
            residual = (mid * mid - values).astype(np.float32)
            high = residual > 0.0
            hi = np.where(high, mid, hi).astype(np.float32)
            lo = np.where(high, lo, mid).astype(np.float32)
        return lo

    def execute(self, device, scale: float = 1.0, check: bool = True):
        n = max(64, int(512 * scale))
        block = 64
        values = (
            self.rng().uniform(0.0, 4.0, size=n).astype(np.float32)
        )
        source = device.upload(values)
        destination = device.malloc(n * 4)
        result = device.launch(
            "bisectSqrt",
            grid=(grid_for(n, block), 1, 1),
            block=(block, 1, 1),
            args=[source, destination, n],
        )
        correct = None
        if check:
            correct = np.array_equal(
                destination.read(np.float32, n), self.reference(values)
            )
        return self._finish([result], correct, check)
