"""The asyncio control service: sessions, acks, telemetry push.

:class:`ServeService` listens on a TCP socket (loopback by default,
port 0 = pick free) and runs one :class:`ControlSession` per
connection, all sharing one :class:`~repro.serve.engine.LiveRun`.
Every operation that touches the pool — an epoch barrier, a delta, a
collect — runs in the default executor behind one asyncio lock, so the
event loop stays responsive while a barrier is in flight and control
operations serialize exactly as the pool's single-coordinator protocol
requires.  Deltas therefore land *between* epoch barriers by
construction, which is precisely "applied at the next epoch barrier".

Telemetry flows the other way: each drive step drains the live run's
queued events — per fold, its SLO alert edges, its epoch summary and the
per-group conformance totals, plus the applied-delta journal entries —
and fans them out as ``event`` frames to every session subscribed to
the matching topic.  Subscription state is per-session; a session that
never subscribes gets a pure request/ack channel.

Drive modes: with ``auto_drive=True`` the service paces itself to the
horizon in a background task; otherwise clients drive explicitly with
``step`` — the deterministic mode the scripted eval uses.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Set

from repro.scale.spec import ScenarioSpec
from repro.serve.delta import DeltaError, SpecDelta
from repro.serve.engine import TOPICS, LiveRun
from repro.serve.protocol import (
    FrameError,
    error_response,
    event,
    read_frame,
    response,
    write_frame,
)


class ControlSession:
    """One connected controller: request/ack plus subscribed pushes."""

    def __init__(self, service: "ServeService", reader, writer):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.subscriptions: Set[str] = set()
        self.seq = 0
        self._write_lock = asyncio.Lock()
        self.closed = False

    async def send(self, message: Dict[str, Any]) -> None:
        if self.closed:
            return
        try:
            async with self._write_lock:
                await write_frame(self.writer, message)
        except (ConnectionError, RuntimeError, OSError):
            self.closed = True

    async def push(self, topic: str, data: Any) -> None:
        if topic not in self.subscriptions:
            return
        self.seq += 1
        await self.send(event(topic, self.seq, data))

    async def serve(self) -> None:
        """The session's read loop: one ack per request, in order."""
        try:
            while True:
                try:
                    request = await read_frame(self.reader)
                except FrameError:
                    break
                except EOFError:
                    break
                await self.send(await self.service.handle(self, request))
                if request.get("op") == "shutdown":
                    break
        finally:
            self.closed = True
            self.service.sessions.discard(self)
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServeService:
    """The long-running routing service around one live scenario."""

    def __init__(
        self,
        spec: ScenarioSpec,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        auto_drive: bool = False,
        pace_s: float = 0.0,
    ):
        self.spec = spec
        self.workers = workers
        self.host = host
        self.port = port
        self.auto_drive = auto_drive
        self.pace_s = pace_s
        self.live: Optional[LiveRun] = None
        self.sessions: Set[ControlSession] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._driver: Optional[asyncio.Task] = None
        self._pool_lock = asyncio.Lock()
        self._stopping = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ServeService":
        """Begin the run and open the listener (port resolves here)."""
        loop = asyncio.get_running_loop()
        self.live = LiveRun(self.spec, workers=self.workers)
        await loop.run_in_executor(None, self.live.begin)
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.auto_drive:
            self._driver = asyncio.create_task(self._drive())
        return self

    async def _on_connection(self, reader, writer) -> None:
        session = ControlSession(self, reader, writer)
        self.sessions.add(session)
        await session.serve()

    async def _drive(self) -> None:
        while not self._stopping.is_set():
            finished = await self._step_once()
            if finished:
                return
            if self.pace_s:
                try:
                    await asyncio.wait_for(
                        self._stopping.wait(), timeout=self.pace_s
                    )
                except asyncio.TimeoutError:
                    pass

    async def _step_once(self) -> bool:
        loop = asyncio.get_running_loop()
        async with self._pool_lock:
            finished = await loop.run_in_executor(
                None, self.live.advance_epoch
            )
        await self._fan_out()
        return finished

    async def _fan_out(self) -> None:
        for record in self.live.drain_events():
            for session in list(self.sessions):
                await session.push(record["topic"], record["data"])

    async def stop(self) -> None:
        """Close the listener, the sessions, and the pool — idempotent."""
        self._stopping.set()
        if self._driver is not None:
            await self._driver
            self._driver = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self.sessions):
            session.closed = True
            try:
                session.writer.close()
            except (ConnectionError, OSError):
                pass
        self.sessions.clear()
        if self.live is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.live.close)

    # -- request dispatch ----------------------------------------------------

    async def handle(
        self, session: ControlSession, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if op else None
        if handler is None:
            return error_response(request_id, f"unknown op {op!r}")
        try:
            result = await handler(session, request)
        except (DeltaError, ValueError, KeyError) as exc:
            # A rejected request: the run is untouched (validation
            # precedes mutation end to end) and the session continues.
            return error_response(request_id, str(exc))
        return response(request_id, **result)

    async def _op_hello(self, session, request) -> Dict[str, Any]:
        return {
            "scenario": self.spec.name,
            "slots": self.live.spec.slots,
            "epoch_slots": self.live.spec.effective_epoch_slots(),
            "workers": self.live.pool.plan.workers,
            "topics": list(TOPICS),
            "auto_drive": self.auto_drive,
            "routing_version": self.live.routes.version,
        }

    async def _op_status(self, session, request) -> Dict[str, Any]:
        async with self._pool_lock:
            return self.live.status()

    async def _op_routes(self, session, request) -> Dict[str, Any]:
        cell = request.get("cell")
        table = self.live.routes
        if cell is not None:
            routes = [r.to_dict() for r in table.routes_for_cell(cell)]
            if not routes:
                raise KeyError(f"no routes for cell {cell!r}")
            return {"version": table.version, "routes": routes}
        return table.to_dict()

    async def _op_subscribe(self, session, request) -> Dict[str, Any]:
        topics = request.get("topics", list(TOPICS))
        unknown = [t for t in topics if t not in TOPICS]
        if unknown:
            raise ValueError(
                f"unknown topics {unknown}; available: {list(TOPICS)}"
            )
        session.subscriptions.update(topics)
        return {"subscribed": sorted(session.subscriptions)}

    async def _op_unsubscribe(self, session, request) -> Dict[str, Any]:
        topics = request.get("topics", list(TOPICS))
        session.subscriptions.difference_update(topics)
        return {"subscribed": sorted(session.subscriptions)}

    async def _op_apply(self, session, request) -> Dict[str, Any]:
        delta = SpecDelta.from_dict(request.get("delta") or {})
        loop = asyncio.get_running_loop()
        async with self._pool_lock:
            applied = await loop.run_in_executor(
                None, self.live.apply, delta
            )
        await self._fan_out()
        return {"applied": applied}

    async def _op_step(self, session, request) -> Dict[str, Any]:
        epochs = int(request.get("epochs", 1))
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        finished = self.live.finished
        for _ in range(epochs):
            finished = await self._step_once()
            if finished:
                break
        return {"done": self.live.done, "finished": finished}

    async def _op_collect(self, session, request) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        async with self._pool_lock:
            result = await loop.run_in_executor(None, self.live.collect)
        return {
            "digest": result.digest,
            "slots": result.slots,
            "workers": result.workers,
            "groups": sorted(result.groups),
            "recovery": getattr(result, "recovery", None),
        }

    async def _op_shutdown(self, session, request) -> Dict[str, Any]:
        self._stopping.set()
        return {"stopping": True}


__all__ = ["ControlSession", "ServeService"]
