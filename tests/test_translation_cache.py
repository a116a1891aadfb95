"""Translation-cache subsystem tests: registration identity (re-binding
a kernel name to another kernel or symbol table), the persistent
disk tier (config isolation, corruption recovery, eviction,
cold-process reuse), warm-up, observability, and the execution-manager
memory fixes (slab reuse, live-region zeroing)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import Device, ExecutionConfig, vectorized_config
from repro.errors import TranslationCacheError
from repro.ptx.module import Kernel
from repro.runtime.cache_store import SCHEMA_VERSION, CacheStore
from repro.transforms.vectorize import assign_spill_slots
from tests.conftest import VECADD_PTX, scale_reader_ptx

#: vecAdd with the add replaced by a multiply — same name, same
#: signature, different behaviour. The staleness regression swaps
#: between this and VECADD_PTX.
VECMUL_PTX = VECADD_PTX.replace("add.f32 %f3, %f1, %f2;",
                                "mul.f32 %f3, %f1, %f2;")

GLOBAL_SCALE_PTX = r"""
.version 2.3
.target sim
.global .f32 scale;
.entry scaled (.param .u64 src, .param .u64 dst, .param .u32 n)
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
  mov.u64 %rd1, scale;
  ld.global.f32 %f1, [%rd1];
  mul.wide.u32 %rd2, %r4, 4;
  ld.param.u64 %rd3, [src];
  add.u64 %rd4, %rd3, %rd2;
  ld.global.f32 %f2, [%rd4];
  mul.f32 %f3, %f1, %f2;
  ld.param.u64 %rd5, [dst];
  add.u64 %rd6, %rd5, %rd2;
  st.global.f32 [%rd6], %f3;
DONE:
  exit;
}
"""

#: The same module with one more variable ahead of ``scale``: a
#: different source, so registering it allocates ``scale`` anew.
MOVED_SCALE_PTX = GLOBAL_SCALE_PTX.replace(
    ".global .f32 scale;", ".global .f32 bias;\n.global .f32 scale;"
)


def _symbol(device, source, name):
    """``name``'s address in the table of the module ``source`` made."""
    return device._registered[source][1][name]


def _isolated_config(**overrides) -> ExecutionConfig:
    return ExecutionConfig(**overrides)


def _run_vecadd(device, n=64):
    a = device.upload(np.arange(n, dtype=np.float32))
    b = device.upload(np.full(n, 2.0, dtype=np.float32))
    c = device.malloc(n * 4)
    result = device.launch(
        "vecAdd", grid=(1, 1, 1), block=(n, 1, 1), args=[a, b, c, n]
    )
    return c.read(np.float32, n), result


@pytest.fixture(autouse=True)
def _no_ambient_disk_cache(monkeypatch):
    """Tests here construct their stores explicitly; strip the CI
    matrix's environment enablement so counters are deterministic."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TestStalenessInvalidation:
    """Satellite 1: re-registration must never serve stale code."""

    def test_reregister_modified_kernel_executes_new_code(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        added, _ = _run_vecadd(device)
        assert np.allclose(added, np.arange(64) + 2.0)
        # Re-register the same kernel name with different behaviour.
        device.register_module(VECMUL_PTX)
        multiplied, _ = _run_vecadd(device)
        assert np.allclose(multiplied, np.arange(64) * 2.0), (
            "stale specialization served after re-registration"
        )

    def test_reregistering_another_nan_payload_runs_it(self):
        # The two kernels differ only in a NaN payload: an identity
        # taken from printed text that showed both as "nan" kept the
        # first.
        def store_nan(payload):
            return (
                ".version 2.3\n.target sim\n"
                ".entry storeNaN (.param .u64 out)\n{\n"
                "  .reg .f32 %f<2>;\n  .reg .u64 %rd<2>;\n"
                "  ld.param.u64 %rd1, [out];\n"
                f"  mov.f32 %f1, 0f{payload};\n"
                "  st.global.f32 [%rd1], %f1;\n  exit;\n}\n"
            )

        device = Device(config=vectorized_config(4))
        out = device.malloc(4)
        for payload in ("7FC00001", "7FC00002"):
            device.register_module(store_nan(payload))
            device.launch(
                "storeNaN", grid=(1, 1, 1), block=(1, 1, 1), args=[out]
            )
            assert hex(out.read(np.uint32, 1)[0]) == hex(int(payload, 16))

    def test_reregistration_invalidates_and_counts(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        assert device.cache.statistics.invalidations == 0
        digest = device.cache.specialization_digest("vecAdd", 4)
        device.register_module(VECMUL_PTX)
        assert device.cache.specialization_digest("vecAdd", 4) != digest
        # scalar IR + one specialization per configured width dropped
        assert device.cache.statistics.invalidations == 1 + len(
            device.config.warp_sizes
        )
        assert device.cache.cached_specializations() == []

    def test_identical_reregistration_keeps_cache(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        specializations = device.cache.cached_specializations()
        device.register_module(VECADD_PTX)
        assert device.cache.statistics.invalidations == 0
        assert device.cache.cached_specializations() == specializations

    def test_lookups_never_revalidate(self, monkeypatch):
        # get() is asked once per warp execution: a hit is a lookup and
        # the hits bump, right after an identical registration too.
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        cache = device.cache
        executable = cache.get("vecAdd", 4)
        digests = []
        original = cache.specialization_digest
        monkeypatch.setattr(
            cache, "specialization_digest",
            lambda *key: digests.append(key) or original(*key),
        )
        hits = cache.statistics.hits
        assert all(cache.get("vecAdd", 4) is executable for _ in range(3))
        assert cache.statistics.hits == hits + 3 and digests == []
        device.register_module(VECADD_PTX)  # identical: nothing dropped
        assert all(cache.get("vecAdd", 4) is executable for _ in range(3))
        assert cache.statistics.hits == hits + 6 and digests == []

    def test_explicit_invalidate(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        translations = device.cache.statistics.translations
        dropped = device.cache.invalidate("vecAdd")
        assert dropped == 1 + len(device.config.warp_sizes)
        assert device.cache.statistics.invalidations == dropped
        device.warm("vecAdd")
        assert device.cache.statistics.translations == 2 * translations

    def test_global_symbol_update_invalidates_referencing_kernel(self):
        device = Device(config=vectorized_config(4))
        device.register_module(GLOBAL_SCALE_PTX)
        first_address = _symbol(device, GLOBAL_SCALE_PTX, "scale")
        device.memory.write_array(
            first_address, np.array([3.0], dtype=np.float32)
        )
        n = 32
        src = device.upload(np.ones(n, dtype=np.float32))
        dst = device.malloc(n * 4)
        device.launch(
            "scaled", grid=(1, 1, 1), block=(n, 1, 1), args=[src, dst, n]
        )
        assert np.allclose(dst.read(np.float32, n), 3.0)
        # Re-binding `scaled` from another source binds it to that
        # module's `scale`, at a new address: the translated IR baked
        # in the old one, so cached code must be invalidated.
        cached = len(device.cache.cached_specializations())
        device.register_module(MOVED_SCALE_PTX)
        second_address = _symbol(device, MOVED_SCALE_PTX, "scale")
        assert second_address != first_address
        assert device.cache.statistics.invalidations == 1 + cached
        device.memory.write_array(
            second_address, np.array([5.0], dtype=np.float32)
        )
        device.launch(
            "scaled", grid=(1, 1, 1), block=(n, 1, 1), args=[src, dst, n]
        )
        assert np.allclose(dst.read(np.float32, n), 5.0), (
            "scalar IR kept the stale global-symbol address"
        )

    def test_repeat_registration_only_rebinds(self):
        # A source is parsed, validated and allocated once: registering
        # it again neither moves its variables nor drops its code.
        source = GLOBAL_SCALE_PTX.replace(
            ".global .f32 scale;",
            ".global .b8 pad[1024];\n.global .f32 scale;",
        )
        device = Device(config=vectorized_config(4))

        def state():
            device.register_module(source)
            device.warm("scaled")
            return (
                len(device.modules),
                _symbol(device, source, "scale"),
                device.cache.statistics.invalidations,
                device.cache.statistics.translations,
                device.memory.bytes_allocated,
            )

        first = state()
        assert [state() for _ in range(3)] == [first] * 3

    def test_another_modules_symbol_does_not_retarget_a_kernel(self):
        device = Device(config=vectorized_config(4))
        device.register_module(scale_reader_ptx("readA", 3.0))
        out = device.malloc(16)
        device.launch("readA", 1, 4, [out])
        assert list(out.read(np.float32, 4)) == [3.0] * 4
        device.register_module(scale_reader_ptx("readB", 7.0))
        device.launch("readA", 1, 4, [out])
        assert list(out.read(np.float32, 4)) == [3.0] * 4
        assert device.cache.statistics.invalidations == 0
        device.launch("readB", 1, 4, [out])
        assert list(out.read(np.float32, 4)) == [7.0] * 4

    def test_a_parsed_module_is_held_by_identity(self):
        device = Device(config=vectorized_config(4))
        module = device.register_module(GLOBAL_SCALE_PTX)
        allocated = device.memory.bytes_allocated
        assert device.register_module(module) is module
        assert device.modules == [module]
        assert device.memory.bytes_allocated == allocated

    def test_unrelated_symbol_update_does_not_invalidate(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        unrelated = (
            ".version 2.3\n.target sim\n"
            ".global .u32 unrelatedCounter;\n"
            ".entry other () { exit; }"
        )
        device.register_module(unrelated)
        assert device.cache.statistics.invalidations == 0
        assert device.cache.cached_specializations() == [
            ("vecAdd", size) for size in device.config.warp_sizes
        ]


class TestRegistrationIdentity:
    """A registration is its kernel's identity: the kernel object and
    symbol table it binds, not the text the kernel prints."""

    def test_registering_the_same_module_again_keeps_its_code(self):
        device = Device(config=vectorized_config(4))
        module = device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        translations = device.cache.statistics.translations
        assert device.register_module(module) is module
        device.warm("vecAdd")
        assert device.cache.statistics.translations == translations
        assert device.cache.statistics.invalidations == 0

    def test_a_second_text_of_the_same_kernel_recompiles_it(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        translations = device.cache.statistics.translations
        device.register_module(VECADD_PTX + "\n")  # prints the same
        assert device.cache.statistics.invalidations == 1 + translations
        device.warm("vecAdd")
        assert device.cache.statistics.translations == 2 * translations
        values, _ = _run_vecadd(device)
        assert np.allclose(values, np.arange(64) + 2.0)

    def test_only_the_disk_tier_prints_a_kernel(self, monkeypatch, tmp_path):
        printed = []
        original = Kernel.__str__
        monkeypatch.setattr(
            Kernel, "__str__",
            lambda kernel: printed.append(kernel.name) or original(kernel),
        )
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm()
        _run_vecadd(device)
        assert printed == []
        stored = Device(
            config=vectorized_config(4),
            cache_store=CacheStore(directory=str(tmp_path)),
        )
        stored.register_module(VECADD_PTX)
        stored.warm()
        _run_vecadd(stored)
        # once for the entry names of all widths
        assert printed == ["vecAdd"]
        assert len(stored.cache.store.entries()) == len(
            stored.config.warp_sizes
        )


class TestScalarAnalyses:
    """Liveness, uniformity, entry ids and the spill layout belong to
    the scalar IR, not to a width: one object per kernel, kept and
    dropped with the scalar IR."""

    def _record_analyses(self, monkeypatch):
        from repro.runtime import translation_cache as module

        seen = []
        original = module.vectorize_kernel

        def recording(scalar, options, analyses):
            seen.append((options.warp_size, analyses))
            return original(scalar, options, analyses)

        monkeypatch.setattr(module, "vectorize_kernel", recording)
        return seen

    def test_widths_share_one_analysis_object(self, monkeypatch):
        seen = self._record_analyses(monkeypatch)
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        assert [width for width, _ in seen] == [1, 2, 4]
        first = seen[0][1]
        assert first is not None
        assert all(analyses is first for _, analyses in seen)
        assert first.function is device.cache.scalar_ir("vecAdd")
        # ... and the frame the manager lays out is stated from it.
        assert first.function.spill_size == first.spill_layout[1]
        assert first.spill_layout == assign_spill_slots(first.function)

    def test_reregistering_a_modified_kernel_drops_it(self, monkeypatch):
        seen = self._record_analyses(monkeypatch)
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")
        device.register_module(VECMUL_PTX)
        device.warm("vecAdd")
        before, after = seen[0][1], seen[3][1]
        assert after is not before
        assert after.function is device.cache.scalar_ir("vecAdd")
        assert all(analyses is after for _, analyses in seen[3:])
        # Identical content again: nothing is recomputed.
        device.register_module(VECMUL_PTX)
        device.warm("vecAdd")
        assert len(seen) == 6

    def test_moving_a_referenced_symbol_drops_it(self, monkeypatch):
        seen = self._record_analyses(monkeypatch)
        device = Device(config=vectorized_config(4))
        device.register_module(GLOBAL_SCALE_PTX)
        scalar = device.cache.scalar_ir("scaled")
        device.warm("scaled")
        assert seen[0][1].function is scalar
        device.register_module(MOVED_SCALE_PTX)  # `scale` moves
        assert device.cache.statistics.invalidations == 1 + 3
        device.warm("scaled")
        assert seen[3][1] is not seen[0][1]
        assert seen[3][1].spill_layout == seen[0][1].spill_layout
        assert device.cache.scalar_ir("scaled") is not scalar

    def test_nothing_outlives_the_device(self, monkeypatch):
        # A second Device compiling the same source analyses it again.
        seen = self._record_analyses(monkeypatch)
        for _ in range(2):
            device = Device(config=vectorized_config(4))
            device.register_module(VECADD_PTX)
            device.warm("vecAdd")
        assert seen[0][1] is not seen[3][1]
        assert seen[0][1].function is not seen[3][1].function


class TestContentAddressedKeys:
    def test_digest_depends_on_warp_size(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        digests = {
            device.cache.specialization_digest("vecAdd", size)
            for size in (1, 2, 4)
        }
        assert len(digests) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"warp_sizes": (1, 2)},
            {"meld": True},
            {"optimize": False},
            {"static_warps": True},
            {"thread_invariant_elimination": True},
        ],
        ids=["warp_sizes", "meld", "optimize", "static_warps", "tie"],
    )
    def test_digest_depends_on_config_axes(self, overrides, monkeypatch):
        # the meld-off side must be off under REPRO_MELD=1 too
        monkeypatch.delenv("REPRO_MELD", raising=False)
        base = Device(config=_isolated_config())
        other = Device(config=_isolated_config(**overrides))
        for device in (base, other):
            device.register_module(VECADD_PTX)
        assert base.cache.specialization_digest(
            "vecAdd", 1
        ) != other.cache.specialization_digest("vecAdd", 1)

    def test_digest_depends_on_machine(self):
        from repro import avx_machine

        sse = Device(config=_isolated_config())
        avx = Device(machine=avx_machine(), config=_isolated_config())
        for device in (sse, avx):
            device.register_module(VECADD_PTX)
        assert sse.cache.specialization_digest(
            "vecAdd", 1
        ) != avx.cache.specialization_digest("vecAdd", 1)


class TestDiskTier:
    def _store(self, tmp_path) -> CacheStore:
        return CacheStore(directory=str(tmp_path))

    def test_second_device_loads_from_disk(self, tmp_path):
        store = self._store(tmp_path)
        first = Device(config=vectorized_config(4), cache_store=store)
        first.register_module(VECADD_PTX)
        first.warm("vecAdd")
        assert first.cache.statistics.translations == 3
        assert len(store.entries()) == 3

        second = Device(config=vectorized_config(4), cache_store=store)
        second.register_module(VECADD_PTX)
        values, result = _run_vecadd(second)
        assert np.allclose(values, np.arange(64) + 2.0)
        stats = second.cache.statistics
        assert stats.translations == 0
        assert stats.disk_hits >= 1
        assert result.statistics.cache.disk_hits >= 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"warp_sizes": (1, 2)},
            {"meld": True},
            {"optimize": False},
        ],
        ids=["warp_sizes", "meld", "optimize"],
    )
    def test_configs_never_exchange_specializations(
        self, tmp_path, overrides, monkeypatch
    ):
        """Satellite 4: devices sharing a disk cache with different
        cache_key() axes must never exchange specializations."""
        monkeypatch.delenv("REPRO_MELD", raising=False)
        store = self._store(tmp_path)
        first = Device(config=_isolated_config(), cache_store=store)
        first.register_module(VECADD_PTX)
        first.warm("vecAdd")
        second = Device(
            config=_isolated_config(**overrides), cache_store=store
        )
        second.register_module(VECADD_PTX)
        second.warm("vecAdd")
        stats = second.cache.statistics
        assert stats.disk_hits == 0
        assert stats.translations == len(second.config.warp_sizes)
        values, _ = _run_vecadd(second)
        assert np.allclose(values, np.arange(64) + 2.0)

    def test_same_config_shares(self, tmp_path):
        store = self._store(tmp_path)
        for index in range(2):
            device = Device(
                config=_isolated_config(), cache_store=store
            )
            device.register_module(VECADD_PTX)
            device.warm("vecAdd")
            if index:
                assert device.cache.statistics.disk_hits == len(
                    device.config.warp_sizes
                )
                assert device.cache.statistics.translations == 0

    def test_corrupted_entry_recovers(self, tmp_path):
        """Satellite 4 (second half): bad entries are deleted and
        recompiled, never crash a launch."""
        store = self._store(tmp_path)
        first = Device(config=vectorized_config(4), cache_store=store)
        first.register_module(VECADD_PTX)
        first.warm("vecAdd")
        for digest in store.entries():
            with open(store.path(digest), "wb") as handle:
                handle.write(b"\x80\x04 this is not a pickle")
        second = Device(config=vectorized_config(4), cache_store=store)
        second.register_module(VECADD_PTX)
        second.warm("vecAdd")
        values, _ = _run_vecadd(second)
        assert np.allclose(values, np.arange(64) + 2.0)
        stats = second.cache.statistics
        assert stats.disk_hits == 0
        assert stats.disk_errors == 3
        assert stats.translations == 3
        # The corrupt files were replaced by fresh entries.
        third = Device(config=vectorized_config(4), cache_store=store)
        third.register_module(VECADD_PTX)
        third.warm("vecAdd")
        assert third.cache.statistics.disk_hits == 3

    def test_wrong_schema_discarded(self, tmp_path):
        store = self._store(tmp_path)
        device = Device(config=vectorized_config(4), cache_store=store)
        device.register_module(VECADD_PTX)
        digest = device.cache.specialization_digest("vecAdd", 4)
        with open(store.path(digest), "wb") as handle:
            pickle.dump({"schema": SCHEMA_VERSION + 1}, handle)
        device.cache.get("vecAdd", 4)
        stats = device.cache.statistics
        assert stats.disk_errors == 1
        assert stats.translations == 1

    def test_semantically_bad_payload_recovers(self, tmp_path):
        store = self._store(tmp_path)
        device = Device(config=vectorized_config(4), cache_store=store)
        device.register_module(VECADD_PTX)
        digest = device.cache.specialization_digest("vecAdd", 4)
        # Valid pickle, valid schema, nonsense contents.
        store.store(digest, {"function": "not an IRFunction"})
        device.cache.get("vecAdd", 4)
        stats = device.cache.statistics
        assert stats.disk_errors == 1
        assert stats.translations == 1
        # The bad entry was replaced by the fresh compilation.
        other = Device(config=vectorized_config(4), cache_store=store)
        other.register_module(VECADD_PTX)
        other.cache.get("vecAdd", 4)
        assert other.cache.statistics.disk_hits == 1

    def test_eviction_bounds_entries(self, tmp_path):
        store = CacheStore(directory=str(tmp_path), max_entries=2)
        device = Device(config=vectorized_config(4), cache_store=store)
        device.register_module(VECADD_PTX)
        device.warm("vecAdd")  # 3 specializations > max_entries=2
        assert len(store.entries()) == 2
        assert device.cache.statistics.evictions >= 1

    def test_store_disabled_by_default(self):
        device = Device(config=_isolated_config())
        assert device.cache.store is None

    def test_store_enabled_by_config(self, tmp_path):
        config = _isolated_config(
            persistent_cache=True, cache_dir=str(tmp_path)
        )
        device = Device(config=config)
        assert device.cache.store is not None
        assert device.cache.store.directory == str(tmp_path)

    def test_store_enabled_by_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        device = Device(config=_isolated_config())
        assert device.cache.store is not None
        assert device.cache.store.directory == str(tmp_path)


class TestColdProcessReuse:
    """Acceptance: a cold-process rerun with the disk tier enabled
    reports >=1 disk hit and fewer translations than the first run."""

    SCRIPT = textwrap.dedent(
        """
        import numpy as np
        from repro import Device, vectorized_config
        from tests.conftest import VECADD_PTX, scale_reader_ptx

        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        n = 64
        a = device.upload(np.arange(n, dtype=np.float32))
        b = device.upload(np.ones(n, dtype=np.float32))
        c = device.malloc(n * 4)
        device.launch("vecAdd", grid=(2, 1, 1), block=(32, 1, 1),
                      args=[a, b, c, n])
        assert np.allclose(c.read(np.float32, n), np.arange(n) + 1.0)
        stats = device.cache.statistics
        print(f"translations={stats.translations} "
              f"disk_hits={stats.disk_hits}")
        """
    )

    def _run(self, tmp_path) -> dict:
        env = dict(os.environ)
        env["REPRO_CACHE"] = "1"
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        repo_root = os.path.dirname(os.path.dirname(__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        fields = dict(
            part.split("=")
            for part in completed.stdout.strip().split()
        )
        return {key: int(value) for key, value in fields.items()}

    def test_second_process_hits_disk(self, tmp_path):
        first = self._run(tmp_path)
        second = self._run(tmp_path)
        assert first["translations"] >= 1
        assert first["disk_hits"] == 0
        assert second["disk_hits"] >= 1
        assert second["translations"] < first["translations"]


class TestWarmUp:
    def test_warm_compiles_all_widths(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        compiled = device.warm()
        assert set(compiled) == {
            ("vecAdd", size) for size in (1, 2, 4)
        }
        assert all(seconds > 0.0 for seconds in compiled.values())
        translations = device.cache.statistics.translations
        _run_vecadd(device)
        assert device.cache.statistics.translations == translations

    def test_warm_reports_only_what_it_compiled(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        first = device.warm()
        assert all(seconds > 0.0 for seconds in first.values())
        assert device.warm() == dict.fromkeys(first, 0.0)
        device.register_module(VECMUL_PTX)  # re-binds vecAdd
        assert all(seconds > 0.0 for seconds in device.warm().values())
        assert device.warm() == dict.fromkeys(first, 0.0)

    def test_warm_subset(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        compiled = device.warm("vecAdd", warp_sizes=(4,))
        assert set(compiled) == {("vecAdd", 4)}
        assert device.cache.cached_specializations() == [("vecAdd", 4)]

    def test_warm_rejects_unconfigured_width(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        with pytest.raises(TranslationCacheError):
            device.warm("vecAdd", warp_sizes=(8,))


class TestObservability:
    def test_launch_carries_cache_delta(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        _, first = _run_vecadd(device)
        cache = first.statistics.cache
        assert cache is not None
        assert cache.translations >= 1
        assert cache.compile_seconds
        _, second = _run_vecadd(device)
        assert second.statistics.cache.translations == 0
        assert second.statistics.cache.hits > 0

    def test_delta_reports_a_recompiled_specialization(self):
        # The key is in compile_seconds before the launch; its value is
        # what changed (delta used to keep new keys only).
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        _run_vecadd(device)
        device.register_module(VECMUL_PTX)
        _, again = _run_vecadd(device)
        cache = again.statistics.cache
        assert cache.translations == 1
        assert ("vecAdd", 4) in cache.compile_seconds

    def test_report_includes_cache_lines(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        _, result = _run_vecadd(device)
        report = result.statistics.report(device.machine.clock_hz)
        assert "cache " in report
        assert "cache disk" in report

    def test_stage_record_is_kept(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        _, first = _run_vecadd(device)  # compiles the 4-wide kernel
        cache = first.statistics.cache
        # CSE and DCE clean the scalar IR once, before the first width
        # is vectorized. (REPRO_MELD=1 adds melding ahead of them, and
        # a verify of the scalar IR after.)
        stages = [s for s in cache.stage_seconds if s != "meld"]
        assert [s for s in stages if s != "verify"] == [
            "translate", "cse", "dce", "vectorize", "constant-folding",
            "block-merge", "unreachable-elim",
        ]
        assert "verify" in stages
        assert all(seconds > 0 for seconds in cache.stage_seconds.values())
        assert set(cache.stage_changes) <= set(cache.stage_seconds)
        # Per launch it is a delta like the counters: no compile, no row.
        _, second = _run_vecadd(device)
        assert second.statistics.cache.stage_seconds == {}
        merged = cache.snapshot()
        merged.merge(cache)
        assert merged.stage_seconds["cse"] == 2 * cache.stage_seconds["cse"]
        assert merged.stage_changes == {
            stage: 2 * count for stage, count in cache.stage_changes.items()
        }
        # The cache's own record keeps accumulating.
        device.warm()
        total = device.cache.statistics
        assert total.stage_seconds["vectorize"] > (
            cache.stage_seconds["vectorize"]
        )
        # ... but not the scalar passes: the other widths reuse them.
        for stage in ("translate", "cse", "dce"):
            assert total.stage_seconds[stage] == cache.stage_seconds[stage]
        assert total.stage_changes["block-merge"] > 0
        assert total.stage_changes["verify"] == 0
        assert 2 in total.stage_changes.values()  # block-merge's two

    def test_statistics_merge_accumulates_cache(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        _, first = _run_vecadd(device)
        _, second = _run_vecadd(device)
        expected = (
            first.statistics.cache.hits + second.statistics.cache.hits
        )
        merged = first.statistics
        merged.merge(second.statistics)
        assert merged.cache.hits == expected


class TestExecutionManagerMemory:
    """Satellites 2 and 3: slab reuse and live-region zeroing."""

    def test_repeated_launches_do_not_grow_arena(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        n = 64
        a = device.upload(np.arange(n, dtype=np.float32))
        b = device.upload(np.ones(n, dtype=np.float32))
        c = device.malloc(n * 4)

        def launch():
            device.launch(
                "vecAdd", grid=(2, 1, 1), block=(32, 1, 1),
                args=[a, b, c, n],
            )

        launch()  # reserves slabs
        stable = device.memory.bytes_allocated
        for _ in range(5):
            launch()
        assert device.memory.bytes_allocated == stable

    def test_growing_launch_frees_old_slabs(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        n = 512
        a = device.upload(np.arange(n, dtype=np.float32))
        b = device.upload(np.ones(n, dtype=np.float32))
        c = device.malloc(n * 4)

        def launch(block):
            device.launch(
                "vecAdd", grid=(n // block, 1, 1), block=(block, 1, 1),
                args=[a, b, c, n],
            )

        launch(16)
        launch(128)  # local slabs must grow: old ones freed
        grown = device.memory.bytes_allocated
        # Shrinking and repeating must reuse, not accumulate.
        for block in (16, 128, 16, 128):
            launch(block)
        assert device.memory.bytes_allocated == grown

    def test_window_zeroes_only_live_local_region(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        n = 32
        a = device.upload(np.arange(n, dtype=np.float32))
        b = device.upload(np.ones(n, dtype=np.float32))
        c = device.malloc(n * 4)

        def launch():
            # One CTA -> worker 0 runs a 1-CTA window inside a slab
            # reserved for CTA_WINDOW (4) CTAs.
            device.launch(
                "vecAdd", grid=(1, 1, 1), block=(n, 1, 1),
                args=[a, b, c, n],
            )

        launch()
        manager = device.launcher.managers[0]
        scalar = device.cache.scalar_ir("vecAdd")
        _, spill = assign_spill_slots(scalar)
        local_bytes = scalar.local_segment_size + spill
        local_bytes += (-local_bytes) % 16
        live = local_bytes * n  # one CTA in the window
        assert manager._local_slab_bytes > live
        # Poison the slab tail beyond the live region; the next launch
        # must leave it untouched.
        tail_size = manager._local_slab_bytes - live
        tail_base = manager._local_slab + live
        device.memory.fill(tail_base, tail_size, 0xAB)
        launch()
        tail = device.memory.read_array(tail_base, np.uint8, tail_size)
        assert np.all(tail == 0xAB), (
            "window zeroed local memory beyond its live region"
        )
        assert np.allclose(c.read(np.float32, n), np.arange(n) + 1.0)


class TestMemoryFreeList:
    def test_free_top_lowers_brk(self):
        from repro.machine.memory import MemorySystem

        memory = MemorySystem(size=1 << 16)
        base = memory.allocate(256)
        before = memory.bytes_allocated
        top = memory.allocate(128)
        memory.free(top, 128)
        assert memory.bytes_allocated == before
        again = memory.allocate(128)
        assert again == top
        assert base < again

    def test_interior_free_is_reused(self):
        from repro.machine.memory import MemorySystem

        memory = MemorySystem(size=1 << 16)
        first = memory.allocate(256)
        memory.allocate(64)  # pins the top
        memory.free(first, 256)
        reused = memory.allocate(128)
        assert reused == first

    def test_reused_block_is_zeroed(self):
        from repro.machine.memory import MemorySystem

        memory = MemorySystem(size=1 << 16)
        first = memory.allocate(64)
        memory.allocate(64)
        memory.data[first : first + 64] = 0xFF
        memory.free(first, 64)
        reused = memory.allocate(32)
        assert reused == first
        assert np.all(memory.data[reused : reused + 32] == 0)

    def test_device_free_allows_reuse(self):
        device = Device()
        first = device.malloc(1024)
        device.malloc(16)
        address = first.address
        device.free(first)
        second = device.malloc(512)
        assert second.address == address
