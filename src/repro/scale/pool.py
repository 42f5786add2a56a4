"""The persistent worker pool: the one coordinator of every scenario run.

One :class:`WorkerPool` drives one :class:`~repro.scale.runner.
ShardEngine` per shard of the :func:`~repro.scale.shard.plan_shards`
plan through ``begin → advance_epoch → (mutate) → collect``; batch
``run()`` is a loop over those, the live control plane
(:mod:`repro.serve`) interleaves them with deltas.  The sharding
contract is byte-identical digests at any worker count:

1. **Workers outlive a run.**  ``start()`` forks one worker per shard;
   each builds its coupling groups once and then serves commands.  A
   later ``run()`` rebuilds worker-side state with a ``reset`` command
   instead of re-forking, so a service, a benchmark sweep, or a
   parameter study amortizes process creation and module state across
   runs.  ``workers=0`` forks nothing: the single shard's engine lives
   in the calling process behind the same exchange (no pickling) —
   what ``run_scenario(workers<=1)`` uses.
2. **Barrier epochs.**  The coordinator barriers every
   :meth:`~repro.scale.spec.ScenarioSpec.effective_epoch_slots` slots
   (default: the whole horizon — the coarsest epoch) and each ack
   carries ``(slots, telemetry payloads)``.
   Telemetry accumulates worker-side between barriers (the cumulative
   metric snapshot and the group's sample always; span rows when the
   spec streams) and folds into the coordinator's
   :attr:`WorkerPool.telemetry` stream at each epoch boundary, so long
   runs expose progressing telemetry without per-slot chatter.
3. **One transport.**  A forked worker's bulk (epoch telemetry payloads,
   the collected :class:`~repro.scale.runner.GroupResult` list) rides in
   its reply tuple on the control pipe, pickled once; the in-process
   shard hands over the live objects.  Either way the coordinator checks
   the bulk against the shard's plan row before folding any of it.
4. **One exchange, one policy.**  Every barrier (``epoch``, ``collect``,
   ``mutate``, ``reset``) is the same issue → await → check-reply →
   recover routine.  What a failed step means is the pool's
   supervision policy (:mod:`repro.scale.supervisor`): with a
   :class:`~repro.scale.spec.SupervisorSpec` the worker is respawned
   and replayed, without one the first failure ends the run.

Teardown is unconditional: normal exit, a coordinator exception mid-run
and a crashed worker all funnel through :meth:`WorkerPool.close`, which
drains workers (``exit`` then join, terminate, kill) and closes the
control pipes.  A ``weakref.finalize`` backstop covers even a dropped,
never-closed pool.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import TelemetryStream
from repro.scale.build import build_groups
from repro.scale.runner import GroupResult, ScenarioResult, ShardEngine
from repro.scale.shard import plan_shards, rebalance_plan
from repro.scale.spec import (
    ScenarioSpec,
    SupervisorSpec,
    assert_same_run_shape,
)
from repro.scale.supervisor import (
    REPLAYED_SLOTS_METRIC,
    RESTARTS_METRIC,
    ShardRecoveryExhausted,
    WorkerFailure,
)

#: How long any teardown path waits for a worker to exit before
#: escalating (graceful join -> SIGTERM -> SIGKILL, each bounded).
JOIN_TIMEOUT_S = 10.0
#: Each respawn of a worker waits this many times longer than the last.
_BACKOFF_FACTOR = 2.0


def _serve(engine: ShardEngine, command: Tuple) -> Tuple:
    """Run one pool command on a shard engine and build its reply.

    Commands and their ``(tag, slots, bulk, heartbeat)`` replies:

    - ``("epoch", n_slots)`` advances every local group ``n_slots``
      and replies ``("ok", n_slots, bulk|None, hb)`` where the bulk is
      the list of the local groups' telemetry epoch payloads
      (:meth:`~repro.obs.stream.GroupStreamSource.epoch_payload`) — the
      cumulative metric snapshot always, plus spans/deadline/
      conformance lanes when the spec streams.
    - ``("collect",)`` summarizes the groups and replies
      ``("result", 0, bulk, hb)``.
    - ``("reset",)`` rebuilds the groups from the spec (fresh state,
      same bytes as a new fork) and replies ``("ok", 0, None, hb)``.
    - ``("mutate", spec, shards, rebuild, replay_slots)`` rebases the
      engine onto its row of the mutated plan's ``shards``
      (:meth:`~repro.scale.runner.ShardEngine.rebase`) and replies
      ``("ok", 0, None, hb)``.

    The trailing heartbeat (``{"pid"}``) lets the coordinator
    reject replies that cannot have come from the process it is
    barriering on.
    """
    op = command[0]
    tag, slots, bulk = "ok", 0, None
    if op == "epoch":
        slots = command[1]
        bulk = engine.step(slots) or None
    elif op == "collect":
        tag, bulk = "result", engine.summarize()
    elif op == "reset":
        engine.rebase(engine.spec, engine.names, engine.names, 0)
    elif op == "mutate":
        engine.rebase(
            command[1], command[2][engine.shard], command[3], command[4]
        )
    else:
        raise ValueError(f"unknown command {command!r}")
    heartbeat = {"pid": os.getpid()}
    return (tag, slots, bulk, heartbeat)


def _worker_loop(
    conn,
    spec: ScenarioSpec,
    names: List[str],
    index: int,
    replay_slots: int = 0,
    chaos_armed: bool = True,
) -> None:
    """Serve :func:`_serve` commands over the control pipe until ``exit``.

    The pipe carries command tuples one way and whole reply tuples, bulk
    included, the other.

    ``replay_slots`` is the respawn fast-forward: a worker replacing a
    failed one replays that many confirmed slots *before* serving
    (:meth:`~repro.scale.runner.ShardEngine.rebase`).
    ``chaos_armed=False`` (the respawn default) disarms one-shot fault
    injections so recovery converges; ``rearm`` injections stay live.

    A build failure is remembered and answered to every command instead
    of closing the pipe, so the coordinator surfaces the traceback
    rather than a BrokenPipeError.
    """
    from repro.faults.process import ProcessChaosAgent, corrupt_bulk

    failure: Optional[str] = None
    engine: Optional[ShardEngine] = None
    chaos_agent: Optional[ProcessChaosAgent] = None
    epoch_index = 0
    try:
        engine = ShardEngine(spec, names, index, replay_slots)
        chaos_agent = ProcessChaosAgent(
            spec.chaos_specs(), index, names, armed=chaos_armed
        )
        # The replayed prefix counts toward the chaos epoch clock.
        epoch_index = -(-replay_slots // spec.effective_epoch_slots())
    except Exception:
        failure = traceback.format_exc()

    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):  # coordinator vanished: stop serving
            break
        op = command[0]
        if op == "exit":
            break
        try:
            if failure is not None:
                conn.send(("error", failure))
                continue
            kind = None
            if op == "epoch":
                chaos = chaos_agent.take(epoch_index)
                epoch_index += 1
                kind = chaos.kind if chaos is not None else None
                if kind == "kill":
                    # Crash mid-epoch: half the slots stepped, no reply,
                    # no cleanup — the harshest failure shape.
                    engine.step(command[1] // 2)
                    os.kill(os.getpid(), signal.SIGKILL)
                if kind == "stall":
                    # Hang through the barrier deadline; if the
                    # supervisor has not killed us by the time the nap
                    # ends we proceed as a merely slow worker.
                    time.sleep(chaos.stall_s)
                if kind == "poison":
                    # Protocol-violating reply: alien heartbeat, wrong
                    # slot count, no work done.
                    conn.send(("ok", command[1], None, {"pid": -1}))
                    continue
            reply = _serve(engine, command)
            if kind == "corrupt_frame":
                reply = reply[:2] + (corrupt_bulk(reply[2]),) + reply[3:]
            if op == "reset":
                chaos_agent = ProcessChaosAgent(
                    engine.spec.chaos_specs(), index, engine.names, armed=True
                )
                epoch_index = 0
            conn.send(reply)
        except Exception:
            conn.send(("error", traceback.format_exc()))
    conn.close()


class _LocalShard:
    """The zero-process transport: the shard's engine in this process.

    ``send`` executes the command on the spot and ``recv`` hands back
    its reply — no fork, no pickling; bulk payloads are the live
    objects.  Nothing here can crash, hang or garble
    independently of the caller, so engine errors propagate as
    themselves.
    """

    def __init__(self, spec: ScenarioSpec, names: List[str]):
        self.pid = os.getpid()
        self._engine = ShardEngine(spec, names, shard=0)
        self._reply: Optional[Tuple] = None

    def send(self, command: Tuple) -> None:
        self._reply = _serve(self._engine, command)

    def recv(
        self, timeout: Optional[float], poll_s: Optional[float]
    ) -> Tuple:
        return self._reply


class _ForkedShard:
    """The pipe transport: one forked worker process.

    Holds the coordinator's end of the control pipe.  Every way the
    worker can let the coordinator down surfaces as a typed
    :class:`WorkerFailure`.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        names: List[str],
        index: int,
        replay_slots: int = 0,
        chaos_armed: bool = True,
    ):
        context = _mp_context()
        self.index = index
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_worker_loop,
            args=(child, spec, names, index, replay_slots, chaos_armed),
            daemon=True,
        )
        self.process.start()
        child.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def send(self, command: Tuple) -> None:
        try:
            self.conn.send(command)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerFailure(
                "crash", self.index, f"control-pipe send failed: {exc}"
            )

    def recv(
        self, timeout: Optional[float], poll_s: Optional[float]
    ) -> Tuple:
        """Await one reply; classify silence as crash or hang.

        ``timeout=None`` waits as long as the worker lives (the
        fail-fast policy): a dead worker's closed pipe wakes the poll
        just as data does.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = poll_s
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerFailure(
                        "hang",
                        self.index,
                        f"no barrier reply within {timeout:.1f}s "
                        f"(pid {self.pid} still alive)",
                    )
                wait = min(poll_s, remaining)
            try:
                if self.conn.poll(wait):
                    return self.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerFailure(
                    "crash",
                    self.index,
                    f"control pipe broke mid-reply "
                    f"(exitcode {self.process.exitcode}): {exc}",
                )
            if not self.process.is_alive() and not self.conn.poll(0):
                raise WorkerFailure(
                    "crash",
                    self.index,
                    f"worker exited (exitcode {self.process.exitcode}) "
                    f"with no reply in flight",
                )

    def alive(self) -> bool:
        return self.process.is_alive()

    def dismiss(self) -> None:
        """Teardown phase one: ask the worker to exit, hang up."""
        try:
            self.conn.send(("exit",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def stop(self, graceful: bool = True) -> None:
        """Bounded-time stop: join, escalate to terminate, then to kill.

        ``graceful=True`` first gives the worker ``JOIN_TIMEOUT_S`` to
        exit on its own (it was sent ``exit``); crash/finalizer paths
        skip straight to SIGTERM.  A worker that ignores SIGTERM gets
        SIGKILL — teardown never hangs on an unkillable child.
        """
        process = self.process
        if graceful:
            process.join(timeout=JOIN_TIMEOUT_S)
        if process.is_alive():
            process.terminate()
            process.join(timeout=JOIN_TIMEOUT_S / 2)
        if process.is_alive():
            process.kill()
            process.join(timeout=JOIN_TIMEOUT_S / 2)


def _finalize_pool(shards: List) -> None:
    """Kill stragglers: ``close()``'s last step, and all of the cleanup
    for a pool dropped without it."""
    for shard in shards:
        if shard.alive():
            shard.stop(graceful=False)


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class WorkerPool:
    """Persistent executor for one :class:`ScenarioSpec`, any width.

    Use as a context manager (or call :meth:`close` yourself)::

        with WorkerPool(spec, workers=8) as pool:
            first = pool.run()     # forks + builds once
            second = pool.run()    # reuses live workers (reset + rerun)
            assert first.digest == second.digest

    ``workers >= 1`` forks that many processes (capped at the group
    count); ``workers=0`` keeps the single shard in the calling process.
    ``run()`` returns the same :class:`~repro.scale.runner.
    ScenarioResult` either way.

    ``supervisor`` is the failure policy (:mod:`repro.scale.supervisor`):
    the spec's own whenever it is
    :meth:`~repro.scale.spec.ScenarioSpec.supervised`, else ``None``
    (fail-fast).  ``result.recovery`` describes any self-healing.
    """

    def __init__(self, spec: ScenarioSpec, workers: int):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.spec = spec
        self.plan = plan_shards(spec, max(workers, 1))
        self.workers = self.plan.workers
        self._forks = workers > 0
        self.supervisor = (
            spec.supervisor or SupervisorSpec() if spec.supervised() else None
        )
        #: Coordinator-side recovery metrics (NOT the stream registry,
        #: which every fold rebuilds from worker snapshots — restarts
        #: are coordinator events and live here).
        self.metrics = MetricsRegistry()
        self._shards: List = []
        self._finalizer = None
        self._started = False
        self._closed = False
        self._begun = False
        self._run_started = 0.0
        self._fresh_run()

    # -- lifecycle -----------------------------------------------------------

    def _fresh_run(self) -> None:
        """Per-run coordinator state (set at construction and ``begin``)."""
        #: The live coordinator fold of every epoch's telemetry payloads
        #: (see :mod:`repro.obs.stream`).
        self.telemetry = TelemetryStream(slo_specs=self.spec.obs.slo_specs())
        #: Recovery state: respawns per worker, the failure log,
        #: group-slots replayed into replacements.
        self.restarts: List[int] = [0] * self.workers
        self.failures: List[Dict[str, Any]] = []
        self.replayed_slots = 0
        #: Slots confirmed by every shard so far in the current run.
        self.done = 0
        #: Epoch barriers completed so far in the current run.
        self._epochs = 0

    @property
    def _processes(self) -> List:
        """The live worker processes (none for the in-process shard)."""
        return [shard.process for shard in self._shards if self._forks]

    def start(self) -> "WorkerPool":
        """Fork the workers and let them build their groups (idempotent)."""
        if self._started:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            return self
        self._started = True
        if not self._forks:
            self._shards.append(_LocalShard(self.spec, self.plan.shards[0]))
            return self
        self._finalizer = weakref.finalize(
            self, _finalize_pool, self._shards
        )
        try:
            for index, names in enumerate(self.plan.shards):
                self._shards.append(_ForkedShard(self.spec, names, index))
        except Exception:
            self.close()
            raise
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Tear everything down; safe on every path, safe to call twice."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer is None:  # in-process shard, or never started
            self._shards.clear()
            return
        for shard in self._shards:
            shard.dismiss()
        for shard in self._shards:
            shard.stop(graceful=True)
        self._finalizer()  # runs once: stragglers killed

    # -- the barrier exchange ------------------------------------------------

    def _exchange(
        self,
        command: Tuple,
        expect: str,
        slots: int = 0,
        reissue: bool = True,
    ) -> List[Any]:
        """One barrier: every shard gets ``command``, every reply awaited.

        Issue → await → check-reply, per shard, with :meth:`_recover`
        between any failed step and its retry.  A respawned worker
        replays the confirmed prefix and then runs the re-issued
        command, so whatever finally comes back is what the lost worker
        would have sent.  ``reissue=False`` is for commands a
        respawn makes moot (``mutate``: the replacement builds from the
        already-committed spec).  Returns the shards' bulk payloads
        concatenated in worker-index order.
        """
        timeout = poll_s = None  # fail-fast: wait as long as the worker lives
        if self.supervisor is not None:
            # A replacement worker replays the confirmed slots before it
            # can answer the re-issued command, so the allowance grows
            # with the prefix — one base timeout per completed epoch.
            epochs_done = self.done // self.spec.effective_epoch_slots()
            timeout = self.supervisor.barrier_timeout_s * (1 + epochs_done)
            poll_s = self.supervisor.poll_interval_s
        for index in range(len(self._shards)):
            self._issue(index, command)
        bulk: List[Any] = []
        for index in range(len(self._shards)):
            while True:
                try:
                    reply = self._shards[index].recv(timeout, poll_s)
                    self._check_reply(index, reply, expect, slots)
                    bulk.extend(reply[2] or ())
                    break
                except WorkerFailure as failure:
                    self._recover(index, failure)
                    if not reissue:
                        break
                    self._issue(index, command)
        return bulk

    def _issue(self, index: int, command: Tuple) -> None:
        """Send a command, recovering (then resending) on a dead pipe."""
        while True:
            try:
                self._shards[index].send(command)
                return
            except WorkerFailure as failure:
                self._recover(index, failure)

    def _check_reply(
        self, index: int, reply: Any, expect: str, slots: int
    ) -> None:
        """Reject replies the live worker cannot have produced.

        A worker-side ``("error", traceback)`` reply is a deterministic
        application error: replaying it would fail identically, so it
        propagates under either policy — recovery is for *process*
        faults, not for bugs.

        The bulk is checked against the shard's plan row before any of
        it is folded: epoch payloads must be dicts stamped with this
        shard and one of its groups, a collect must name exactly the
        row.  Anything else is a ``frame`` failure.
        """
        if (
            isinstance(reply, tuple)
            and len(reply) == 2
            and reply[0] == "error"
        ):
            raise RuntimeError(f"scale worker failed:\n{reply[1]}")
        if (
            not isinstance(reply, tuple)
            or len(reply) != 4
            or reply[0] != expect
        ):
            raise WorkerFailure(
                "poisoned", index, f"protocol-violating reply: {reply!r}"
            )
        if reply[1] != slots:
            raise WorkerFailure(
                "poisoned",
                index,
                f"acked {reply[1]} slots for a {slots}-slot command",
            )
        heartbeat = reply[-1]
        pid = self._shards[index].pid
        if not isinstance(heartbeat, dict) or heartbeat.get("pid") != pid:
            raise WorkerFailure(
                "poisoned",
                index,
                f"heartbeat {heartbeat!r} does not match worker pid {pid}",
            )
        row, bulk = self.plan.shards[index], reply[2]
        if expect == "result":
            sound = (
                isinstance(bulk, list)
                and all(isinstance(result, GroupResult) for result in bulk)
                and [result.name for result in bulk] == list(row)
            )
        else:
            sound = bulk is None or (
                isinstance(bulk, list)
                and all(
                    isinstance(payload, dict)
                    and payload.get("shard") == index
                    and payload.get("group") in row
                    for payload in bulk
                )
            )
        if not sound:
            raise WorkerFailure(
                "frame", index, f"bulk does not match plan row {list(row)}"
            )

    # -- recovery ------------------------------------------------------------

    def _recover(self, index: int, failure: WorkerFailure) -> None:
        """Kill, back off, respawn, fast-forward — or end the run.

        Fail-fast policy: the failure *is* the end of the run.
        """
        policy = self.supervisor
        if policy is None:
            what = (
                "died mid-command"
                if failure.kind == "crash"
                else "protocol error"
            )
            raise RuntimeError(
                f"scale worker {index} {what} ({failure.detail}); "
                f"shard groups: {self.plan.shards[index]}"
            ) from failure
        self.failures.append(
            {
                "worker": index,
                "kind": failure.kind,
                "confirmed_slots": self.done,
                "detail": failure.detail,
            }
        )
        if self.restarts[index] >= policy.max_restarts_per_worker:
            raise ShardRecoveryExhausted(
                worker=index,
                shard_groups=list(self.plan.shards[index]),
                restarts=self.restarts[index],
                failures=[
                    entry for entry in self.failures if entry["worker"] == index
                ],
                partial=self._partial_collect(exclude=index),
            )
        backoff = policy.backoff_base_s * _BACKOFF_FACTOR ** self.restarts[index]
        if backoff:
            time.sleep(backoff)
        self._respawn(index)

    def _respawn(self, index: int) -> None:
        """Replace worker ``index`` with a twin fast-forwarded to ``done``."""
        self._shards[index].dismiss()
        self._shards[index].stop(graceful=False)
        # In-place replacement: the weakref finalizer holds this very
        # list, so the backstop always sees the current processes.
        self._shards[index] = _ForkedShard(
            self.spec,
            self.plan.shards[index],
            index,
            replay_slots=self.done,
            chaos_armed=False,
        )
        self.restarts[index] += 1
        replayed = self.done * len(self.plan.shards[index])
        self.replayed_slots += replayed
        worker_label = str(index)
        self.metrics.counter(
            RESTARTS_METRIC,
            "pool workers respawned by the scale-out supervisor",
            labels=("worker",),
        ).labels(worker_label).inc()
        if replayed:
            self.metrics.counter(
                REPLAYED_SLOTS_METRIC,
                "group-slots replayed to fast-forward replacement workers",
                labels=("worker",),
            ).labels(worker_label).inc(replayed)
        self.telemetry.note_worker_restart(index)

    def _partial_collect(self, exclude: int) -> Dict[str, Any]:
        """Scavenge group results from the still-healthy workers.

        Best-effort and bounded: survivors may have an in-flight epoch
        reply queued ahead of the collect answer (they may even be a
        partial epoch *ahead* of the last confirmed barrier — stated
        as-is in the result's ``slots``); anything that fails or times
        out is simply skipped.
        """
        partial: Dict[str, Any] = {}
        for index, shard in enumerate(self._shards):
            if index == exclude or not shard.alive():
                continue
            try:
                shard.send(("collect",))
                deadline = (
                    time.monotonic() + self.supervisor.barrier_timeout_s
                )
                while (remaining := deadline - time.monotonic()) > 0:
                    reply = shard.recv(
                        remaining, self.supervisor.poll_interval_s
                    )
                    if isinstance(reply, tuple) and reply[:1] == ("result",):
                        self._check_reply(index, reply, "result", 0)
                        for result in reply[2]:
                            partial[result.name] = result
                        break
                    # Anything else is a stale in-flight epoch reply;
                    # drop it and keep waiting for the collect answer.
            except (WorkerFailure, RuntimeError, OSError):
                continue
        return partial

    # -- incremental drive (the live control plane's view of a run) ----------

    def begin(self) -> "WorkerPool":
        """Open an incrementally-driven run (fork/reset, fresh stream).

        ``run()`` is ``begin()`` + ``advance_epoch()`` to the horizon +
        ``collect()``; a live service drives the same three stages
        itself so it can interleave barriers with control traffic —
        :meth:`mutate` between epochs, :meth:`collect` mid-run.
        """
        self.start()
        self._fresh_run()
        if self._begun:
            self._exchange(("reset",), "ok")
        self._begun = True
        self._run_started = time.perf_counter()
        return self

    def advance_epoch(self) -> bool:
        """Run one epoch barrier; ``True`` once the horizon is done.

        Telemetry payloads fold into :attr:`telemetry` exactly as in a
        batch run — an incrementally-driven, unmutated run is
        byte-identical to ``run()``.
        """
        if not self._begun:
            raise RuntimeError("begin() first")
        if self.done >= self.spec.slots:
            return True
        epoch = self.spec.effective_epoch_slots()
        step = min(epoch, self.spec.slots - self.done)
        # Barrier: every shard finishes the epoch before any proceeds.
        payloads = self._exchange(("epoch", step), "ok", slots=step)
        if payloads:
            self.telemetry.fold_epoch(
                payloads, final=self.done + step >= self.spec.slots
            )
        self.done += step
        self._epochs += 1
        return self.done >= self.spec.slots

    def collect(self) -> ScenarioResult:
        """Summarize every group as of the last barrier (mid-run safe).

        Workers summarize without disturbing state, so a mid-run
        collect observes the confirmed prefix — its digest matches a
        from-scratch run of the same spec truncated to :attr:`done`
        slots — and the run then continues to the horizon.  (A recovery
        here replays :attr:`done`, not the horizon: a mid-run collect
        must not make a respawn run slots nobody has confirmed.)
        """
        if not self._begun:
            raise RuntimeError("begin() first")
        results = self._exchange(("collect",), "result")
        recovery: Dict[str, Any] = {}
        if self.supervisor is not None:
            recovery = {
                "restarts": {
                    str(i): n for i, n in enumerate(self.restarts) if n
                },
                "total_restarts": sum(self.restarts),
                "replayed_slots": self.replayed_slots,
                "failures": list(self.failures),
            }
        return ScenarioResult(
            name=self.spec.name,
            workers=self.plan.workers,
            wall_seconds=time.perf_counter() - self._run_started,
            groups={result.name: result for result in results},
            plan=self.plan,
            transport={
                "epochs": self._epochs,
                "epoch_slots": self.spec.effective_epoch_slots(),
                # Constant: there is no arena and so no fallback from it.
                # bench/suite.py still indexes both keys; the next
                # benchmark PR drops them with scale.arena_bytes_per_epoch
                # and scale.pipe_fallbacks.
                "arena_bytes": 0,
                "pipe_fallback_payloads": 0,
            },
            telemetry=self.telemetry if self.spec.obs.enabled else None,
            recovery=recovery,
        )

    # -- live mutation -------------------------------------------------------

    def mutate(self, new_spec: ScenarioSpec) -> Dict[str, Any]:
        """Rebase the live run onto a mutated spec (rebase semantics).

        Only groups whose build fingerprint changed
        (:meth:`~repro.scale.spec.ScenarioSpec.group_fingerprints`) are
        rebuilt and deterministically fast-forwarded over the
        :attr:`done` confirmed slots; untouched groups keep their warm
        worker state, and no process restarts.  The run's results from
        here on are byte-identical to a from-scratch run of the mutated
        spec — the digest oracle survives mutation.

        All validation (run-shape equality, a coordinator-side trial
        build of every disturbed group) happens *before* any worker is
        told anything, so a rejected mutation raises with the run
        untouched.  The mutated spec and plan are committed *before*
        the exchange, so a worker that fails in it is simply recovered:
        the respawn rebuilds every local group from the already-mutated
        spec and fast-forwards the confirmed prefix — it needs no
        mutate command of its own.  Call between epochs only — the
        mutation lands at the next barrier.
        """
        if not self._started or self._closed:
            raise RuntimeError("mutate() needs a started, open pool")
        assert_same_run_shape(self.spec, new_spec)
        old_fp = self.spec.group_fingerprints()
        new_fp = new_spec.group_fingerprints()
        rebuild = [
            name for name, fp in new_fp.items() if old_fp.get(name) != fp
        ]
        removed = [name for name in old_fp if name not in new_fp]
        if rebuild:
            # Trial build: user-level build errors (a stage factory
            # rejecting its params, say) surface here as a clean
            # rejection instead of as a poisoned shard mid-run.
            build_groups(new_spec, rebuild)
        self.spec = new_spec
        if rebuild or removed:
            self.plan = rebalance_plan(self.plan, new_spec)
            self._exchange(
                ("mutate", new_spec, self.plan.shards, rebuild, self.done),
                "ok",
                reissue=False,
            )
        return {
            "rebuilt": rebuild,
            "removed": removed,
            "replayed_slots": self.done if rebuild else 0,
        }

    # -- batch execution -----------------------------------------------------

    def run(self) -> ScenarioResult:
        """Execute the spec's horizon once; see module docstring.

        Any error — a worker crash, a protocol violation, a coordinator
        exception between barriers — closes the pool (workers joined)
        before propagating.
        """
        try:
            self.begin()
            while not self.advance_epoch():
                pass
            return self.collect()
        except Exception:
            self.close()
            raise


__all__ = ["JOIN_TIMEOUT_S", "WorkerPool"]
