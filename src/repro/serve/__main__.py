"""Standalone run-server process: ``python -m repro.serve``.

Boots a :class:`~repro.serve.server.RunServer`, prints the client-API
endpoint, and serves until interrupted.  Clients connect with
:class:`~repro.serve.client.ServeClient` (or anything that writes
:mod:`repro.net.codec` frames, as :mod:`repro.serve.wire` does).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from repro.serve.server import RunServer


def _parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived multi-instance protocol run-server.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7340, help="client API port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard sessions across N worker processes (0 = in-process)",
    )
    parser.add_argument(
        "--no-batching",
        dest="batching",
        action="store_false",
        help="disable frame batching on worker connections only -- with "
        "--workers 0 no session frame crosses a socket (diagnostic)",
    )
    return parser.parse_args(argv)


async def _serve(args: argparse.Namespace) -> int:
    server = RunServer(workers=args.workers, batching=args.batching)
    await server.start()
    port = await server.listen(args.host, args.port)
    print(
        f"repro run-server on {args.host}:{port} "
        f"(workers={args.workers}, batching={args.batching})",
        flush=True,
    )
    try:
        await asyncio.Event().wait()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
    return 0


def main(argv: Optional[list] = None) -> int:
    try:
        return asyncio.run(_serve(_parse_args(argv)))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
