"""Open-loop HTTP load over a few keep-alive connections.

Requests come from one continuous, pre-encoded stream: a
:class:`Cursor` hands out stream positions across every block of a
run, so no block replays an earlier block's requests. Arrivals are
due on a fixed clock (``start + i / rate``); each connection takes the
next arrival when it is free, waits for its due time if it is early,
sends it and reads the whole response. Latency runs from the due time
to the last byte, so time spent waiting for a busy connection counts,
as it would for independent users. How late the generator itself sent
(a free connection, a due arrival, and the event loop still busy) is
reported apart as ``late_s``, so a client-bound run shows up there.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Extra time a block may run past its last due arrival before the
#: arrivals still unsent are counted as failed.
GRACE_S = 2.0

#: A response slower than this counts as failed.
REQUEST_TIMEOUT_S = 10.0


class Cursor:
    """The next unused position in a run's request stream."""

    def __init__(self, stream: Sequence[bytes]):
        self.stream = stream
        self.position = 0

    def take(self) -> int:
        if self.position >= len(self.stream):
            raise IndexError("request stream exhausted")
        index = self.position
        self.position += 1
        return index


@dataclass
class Block:
    """Outcome of one fixed-rate block."""

    rate: float
    scheduled: int
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    send_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    failed: int = 0
    unsent: int = 0
    answered: List[int] = field(default_factory=list)
    bodies: Dict[int, bytes] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0


async def _read_response(reader: asyncio.StreamReader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


class Connections:
    """A fixed pool of keep-alive connections to one server."""

    def __init__(self, host: str, port: int, count: int):
        self.host, self.port, self.count = host, port, count
        self._streams: List = []

    async def open(self) -> None:
        for _ in range(self.count):
            self._streams.append(
                await asyncio.open_connection(self.host, self.port)
            )

    async def close(self) -> None:
        for _reader, writer in self._streams:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._streams.clear()

    async def _reconnect(self, slot: int) -> None:
        _reader, writer = self._streams[slot]
        writer.close()
        self._streams[slot] = await asyncio.open_connection(
            self.host, self.port
        )

    async def run_block(
        self,
        cursor: Cursor,
        rate: float,
        seconds: float,
        keep: frozenset = frozenset(),
    ) -> Block:
        """Offer *rate* arrivals/s for *seconds* from *cursor*.

        Responses to the stream positions in *keep* are kept for the
        correctness gate. A non-2xx status or a broken connection
        counts as a failure; arrivals not sent by the end of the
        grace period count as unsent and failed.
        """
        total = max(1, round(rate * seconds))
        indices = [cursor.take() for _ in range(total)]
        block = Block(rate=rate, scheduled=total)
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.001
        cutoff = start + seconds + GRACE_S
        next_arrival = 0

        async def connection(slot: int) -> None:
            nonlocal next_arrival
            while next_arrival < total:
                arrival = next_arrival
                next_arrival += 1
                picked = loop.time()
                due = start + arrival / rate
                if picked > cutoff:
                    block.unsent += total - arrival
                    next_arrival = total
                    return
                if due > picked:
                    await asyncio.sleep(due - picked)
                sent = loop.time()
                block.late_s.append(sent - max(due, picked))
                index = indices[arrival]
                reader, writer = self._streams[slot]
                try:
                    writer.write(cursor.stream[index])
                    await writer.drain()
                    status, body = await asyncio.wait_for(
                        _read_response(reader), REQUEST_TIMEOUT_S)
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError):
                    block.failed += 1
                    await self._reconnect(slot)
                    continue
                done = loop.time()
                if status >= 300:
                    block.failed += 1
                    continue
                block.latencies_s.append(done - due)
                block.answered.append(index)
                block.send_s.append(done - sent)
                if index in keep:
                    block.bodies[index] = body

        began = time.perf_counter()
        await asyncio.gather(
            *(connection(slot) for slot in range(self.count))
        )
        block.wall_s = time.perf_counter() - began
        block.failed += block.unsent
        return block
