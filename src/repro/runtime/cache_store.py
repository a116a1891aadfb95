"""On-disk tier of the translation cache.

Specializations survive the process that compiled them: the vectorized
IR (post-cleanup, pre-lowering) is pickled under a content-addressed
file name, so repeated benchmark runs skip translation entirely.
Lowering is not cheap — it was the larger half of a cold compile when
it ran at load time — but it now happens per basic block, when a warp
first enters the block, so a warm-disk start does none of it before
launch and never lowers a block no warp reaches. Storing the generated
code next to the IR, so a warm start does none at all, is an open
ROADMAP item. Design points:

- **Content addressing.** The file name is the specialization digest
  computed by :class:`~repro.runtime.translation_cache.TranslationCache`
  (kernel PTX body + its module's global symbols + ``ExecutionConfig.
  cache_key()`` + warp size + machine descriptor), so stores shared by
  several devices/configs can never exchange incompatible code.
- **Versioning.** Every payload carries ``SCHEMA_VERSION``; entries
  written by an incompatible schema are discarded, not deserialized
  into the wrong shape.
- **Corruption tolerance.** A truncated, unreadable, or wrong-schema
  entry is deleted and the specialization recompiled; a launch never
  crashes because of the disk tier. All disk failures are counted,
  never raised.
- **Bounded size.** ``max_entries`` (default 4096, override with
  ``REPRO_CACHE_MAX_ENTRIES``) evicts the least recently used entries
  (by mtime) on store.

The tier is opt-in: ``ExecutionConfig(persistent_cache=True)`` or
``REPRO_CACHE=1`` in the environment; the directory defaults to
``~/.cache/repro`` and can be overridden with
``ExecutionConfig(cache_dir=...)`` or ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import List, Optional

#: Bump whenever the pickled payload layout or the IR representation
#: changes incompatibly, or the same source compiles to different IR
#: (2: constant folding and CSE stopped merging what the machine keeps
#: apart); old entries are then discarded on load.
SCHEMA_VERSION = 2

#: Default location of the persistent tier.
DEFAULT_CACHE_DIR = "~/.cache/repro"

_ENTRY_SUFFIX = ".rtc"  # "repro translation cache"


def _default_max_entries() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_ENTRIES", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 4096


class CacheStore:
    """Directory of pickled translation-cache entries.

    Counter updates land on the ``statistics`` object passed per call
    (a :class:`~repro.runtime.translation_cache.CacheStatistics`), so a
    store shared between devices attributes activity to the device that
    caused it.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        schema: int = SCHEMA_VERSION,
        max_entries: Optional[int] = None,
    ):
        self.directory = os.path.expanduser(
            directory
            or os.environ.get("REPRO_CACHE_DIR")
            or DEFAULT_CACHE_DIR
        )
        self.schema = schema
        self.max_entries = (
            max_entries if max_entries is not None else _default_max_entries()
        )

    @classmethod
    def from_config(cls, config) -> Optional["CacheStore"]:
        """Build the store an :class:`ExecutionConfig` asks for, or
        ``None`` when the persistent tier is disabled. ``REPRO_CACHE=1``
        force-enables it (the CI matrix uses this)."""
        enabled = bool(getattr(config, "persistent_cache", False))
        enabled = enabled or os.environ.get("REPRO_CACHE") == "1"
        if not enabled:
            return None
        return cls(directory=getattr(config, "cache_dir", None))

    # -- paths ---------------------------------------------------------------

    def path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + _ENTRY_SUFFIX)

    def entries(self) -> List[str]:
        """Digests currently stored (unordered)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [
            name[: -len(_ENTRY_SUFFIX)]
            for name in names
            if name.endswith(_ENTRY_SUFFIX)
        ]

    # -- load / store --------------------------------------------------------

    def load(self, digest: str, statistics=None) -> Optional[dict]:
        """The payload stored under ``digest``, or ``None``. Corrupt or
        schema-incompatible entries are deleted (counted as
        ``disk_errors``), never raised."""
        path = self.path(digest)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self.discard(digest)
            if statistics is not None:
                statistics.disk_errors += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self.schema
        ):
            self.discard(digest)
            if statistics is not None:
                statistics.disk_errors += 1
            return None
        try:
            # Touch for LRU eviction ordering.
            os.utime(path)
        except OSError:
            pass
        return payload

    def store(self, digest: str, payload: dict, statistics=None) -> bool:
        """Atomically persist ``payload`` under ``digest``. Returns
        False (and counts a ``disk_error``) on any OS/pickle failure."""
        payload = dict(payload)
        payload["schema"] = self.schema
        tmp_path = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            handle, tmp_path = tempfile.mkstemp(
                dir=self.directory, suffix=".tmp"
            )
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(payload, stream, protocol=4)
            os.replace(tmp_path, self.path(digest))
            tmp_path = None
        except Exception:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            if statistics is not None:
                statistics.disk_errors += 1
            return False
        self._prune(statistics)
        return True

    def discard(self, digest: str) -> None:
        try:
            os.unlink(self.path(digest))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for digest in self.entries():
            self.discard(digest)
            removed += 1
        return removed

    # -- eviction ------------------------------------------------------------

    def _prune(self, statistics=None) -> None:
        digests = self.entries()
        excess = len(digests) - self.max_entries
        if excess <= 0:
            return
        def mtime(digest: str) -> float:
            try:
                return os.path.getmtime(self.path(digest))
            except OSError:
                return 0.0
        for digest in sorted(digests, key=mtime)[:excess]:
            self.discard(digest)
            if statistics is not None:
                statistics.evictions += 1

    def __repr__(self):
        return (
            f"<CacheStore {self.directory!r} schema={self.schema} "
            f"entries={len(self.entries())}>"
        )
