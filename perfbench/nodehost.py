"""Cache-node host: every cache node of a workload in one process.

Starts ``--nodes`` :class:`~repro.net.server.MemcachedServer` instances on
one event loop, each with the workload's capacity and digest geometry,
and prints their ports as ``PORTS <p1> <p2> ...``.  It is then driven by
lines on standard input:

* ``trace on`` -- wrap the node-side layers (``CommandParser.feed``,
  ``KeyValueStore.get``/``set``/``purge_expired``,
  ``CountingBloomFilter.add``/``remove``/``snapshot``) in spans kept in
  memory; answers ``OK``;
* ``trace off`` -- remove the wrappers and answer one JSON line with the
  per-layer ledger of the spans recorded meanwhile;
* ``quit`` (or end of input) -- stop every server and exit.

Run it as ``python3 perfbench/nodehost.py --nodes 4 --capacity-bytes 1048576
--expected-keys 8192`` with the program's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from repro.bloom.config import optimal_config
from repro.bloom.counting import CountingBloomFilter
from repro.cache.store import KeyValueStore
from repro.net.parser import CommandParser
from repro.net.server import MemcachedServer

from spans import Tracer, clock

#: (owner, attribute, layer, root span?, work counter)
NODE_LAYERS = (
    (CommandParser, "feed", "net.parser.feed", True,
     lambda args, result: len(result)),
    (KeyValueStore, "get", "cache.store.get", True, None),
    (KeyValueStore, "set", "cache.store.set", True, None),
    (KeyValueStore, "purge_expired", "cache.store.purge_expired", False, None),
    (CountingBloomFilter, "add", "bloom.counting.update", False, None),
    (CountingBloomFilter, "remove", "bloom.counting.update", False, None),
    (CountingBloomFilter, "snapshot", "bloom.counting.snapshot", False, None),
)


class NodeHost:
    def __init__(self, nodes: int, capacity_bytes: int, expected_keys: int):
        config = optimal_config(expected_keys)
        self.servers = [
            MemcachedServer(
                capacity_bytes=capacity_bytes, bloom_config=config
            )
            for _ in range(nodes)
        ]
        self.tracer = None
        self.started = 0.0

    def trace_on(self) -> str:
        self.tracer = tracer = Tracer()
        for owner, attr, layer, root, items in NODE_LAYERS:
            tracer.patch(
                owner, attr,
                lambda fn, layer=layer, root=root, items=items: tracer.wrap(
                    layer, fn, items=items, root=root
                ),
            )
        self.started = clock()
        return "OK"

    def trace_off(self) -> str:
        tracer, self.tracer = self.tracer, None
        if tracer is None:
            return json.dumps({"window": 0.0, "layers": {}})
        window = clock() - self.started
        tracer.restore()
        layers = {
            name: row.as_dict() for name, row in tracer.totals().items()
        }
        return json.dumps({"window": window, "layers": layers})

    async def serve(self) -> None:
        ports = [await server.start("127.0.0.1", 0) for server in self.servers]
        print("PORTS " + " ".join(map(str, ports)), flush=True)
        loop = asyncio.get_running_loop()
        done = asyncio.Event()
        buffer = bytearray()

        def on_input() -> None:
            data = os.read(sys.stdin.fileno(), 4096)
            if not data:
                done.set()
                return
            buffer.extend(data)
            while b"\n" in buffer:
                line, _, rest = bytes(buffer).partition(b"\n")
                buffer[:] = rest
                command = line.decode().strip()
                if command == "trace on":
                    reply = self.trace_on()
                elif command == "trace off":
                    reply = self.trace_off()
                elif command == "quit":
                    done.set()
                    return
                else:
                    reply = json.dumps({"error": f"unknown command {command!r}"})
                print(reply, flush=True)

        loop.add_reader(sys.stdin.fileno(), on_input)
        try:
            await done.wait()
        finally:
            loop.remove_reader(sys.stdin.fileno())
            for server in self.servers:
                await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument(
        "--capacity-bytes", type=int, required=True, help="per node"
    )
    parser.add_argument(
        "--expected-keys", type=int, required=True,
        help="per node; sizes the digest",
    )
    args = parser.parse_args()
    host = NodeHost(args.nodes, args.capacity_bytes, args.expected_keys)
    asyncio.run(host.serve())


if __name__ == "__main__":
    main()
