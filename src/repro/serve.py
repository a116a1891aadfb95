"""``python -m repro.serve`` — run the multi-tenant kernel server.

Starts a :class:`~repro.runtime.pool.DevicePool` of persistent worker
processes behind the JSON/HTTP front-end of
:mod:`repro.runtime.service`. With ``REPRO_CACHE=1`` in the
environment the workers warm-start from the persistent translation
cache (pass ``--warm`` to pre-translate registered modules at boot).

The pool is self-healing: a supervisor respawns crashed or hung
workers warm, and the server sheds launches with 503 + ``Retry-After``
once ``--max-queue`` / ``--max-tenant-queue`` outstanding launches
are reached. SIGINT/SIGTERM trigger a graceful drain: new launches
are shed, queued work flushes (bounded by ``--drain-timeout``), then
the workers stop.

With ``--durability journal|checkpoint`` tenant sessions become
*durable*: the pool journals their state-mutating operations in its
own memory (and, in checkpoint mode, every ``--checkpoint-interval``
launches compacts that journal to a snapshot of the live buffers), so
after a worker crash the supervisor restores each tenant's guest
memory bit-identically onto the respawned worker and clients never
observe ``DeviceLost``. Nothing is written to disk: a tenant's state
lives as long as the server.

Example::

    PYTHONPATH=src REPRO_CACHE=1 python -m repro.serve \
        --workers 4 --module kernels.ptx --warm --port 8420 \
        --max-queue 256 --max-tenant-queue 32 --deadline 30
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional, Sequence

from .runtime.pool import DevicePool
from .runtime.service import KernelServer


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve kernel launches from a DevicePool over HTTP.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=8420,
        help="TCP port; 0 picks a free port (default %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the pool (default %(default)s)",
    )
    parser.add_argument(
        "--module", action="append", default=[], metavar="PTX_FILE",
        help="PTX module to register on every worker (repeatable)",
    )
    parser.add_argument(
        "--warm", action="store_true",
        help="pre-translate registered kernels before accepting clients",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="global outstanding-launch limit before shedding with 503",
    )
    parser.add_argument(
        "--max-tenant-queue", type=int, default=None, metavar="N",
        help="per-tenant outstanding-launch limit before shedding",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default queue-wait deadline applied to every launch",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="graceful-drain flush bound on shutdown (default %(default)s)",
    )
    parser.add_argument(
        "--no-respawn", action="store_true",
        help="disable supervisor respawn of lost workers",
    )
    parser.add_argument(
        "--durability", choices=("none", "journal", "checkpoint"),
        default="none",
        help="default session durability: journal ops in server "
             "memory (with 'checkpoint', compacted to snapshots of the "
             "live buffers) so tenant state is restored transparently "
             "after a worker crash (default %(default)s)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=32, metavar="N",
        help="auto-checkpoint period in executed launches for "
             "checkpoint-durable sessions (default %(default)s)",
    )
    args = parser.parse_args(argv)

    modules = []
    for path in args.module:
        with open(path, "r", encoding="utf-8") as handle:
            modules.append(handle.read())

    pool = DevicePool(
        workers=args.workers,
        modules=modules,
        warm=args.warm,
        respawn=not args.no_respawn,
    )
    server = KernelServer(
        pool,
        host=args.host,
        port=args.port,
        max_queue_depth=args.max_queue,
        max_tenant_queue=args.max_tenant_queue,
        default_deadline=args.deadline,
        durability=args.durability,
        checkpoint_interval=args.checkpoint_interval,
    )
    # SIGTERM (systemd/containers) drains like Ctrl-C does.
    signal.signal(
        signal.SIGTERM,
        lambda signum, frame: (_ for _ in ()).throw(KeyboardInterrupt),
    )
    print(
        f"repro.serve: {args.workers} workers, "
        f"{len(modules)} modules, listening on "
        f"http://{server.host}:{server.port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            "repro.serve: draining (new launches shed with 503)",
            flush=True,
        )
    finally:
        server.shutdown(drain=True, drain_timeout=args.drain_timeout)
        print("repro.serve: stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
