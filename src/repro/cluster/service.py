"""Transport and process management around the scheduler core.

Three entry points, all thin shells over
:class:`repro.cluster.scheduler.ClusterScheduler`:

- :class:`SchedulerServer` — an asyncio JSON-lines server speaking
  :mod:`repro.cluster.protocol` on TCP or a Unix socket, with a reaper
  task driving ``scheduler.tick()`` (lease expiry, finalize).  A
  worker's ``lease`` request is held until a job or the drain is due:
  every state change (a result, a disconnect, a submit, a cancel, a
  shutdown, an issued lease, a reaper tick) wakes the held requests,
  and each re-checks at least every ``idle_retry_after()`` so retry
  backoff still elapses.
- :func:`run_cluster` — the one-shot front end of ``repro campaign
  run|resume`` and ``repro cluster run``: submit one campaign, bind the
  socket (by default a Unix socket in a private temporary directory),
  fork N local workers onto it, serve until drained, reap the workers.
  An interrupt stops the campaign unfinalized, with every finished
  record kept, so ``campaign resume`` continues it.  ``drill_kill_worker``
  SIGKILLs the first worker after N results land, once one of them is
  its own and while it holds a lease — the crash-recovery drill the CI
  smoke and the integration tests run.
- :func:`control_request` — the synchronous client the
  ``submit``/``status``/``cancel``/``shutdown`` commands use.

Service mode (``repro cluster serve``) is the same server with
``serve_forever=True``: idle workers are parked instead of drained, so
campaigns submitted later drain through the already-connected fleet.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import socket
import tempfile
import time
from typing import Callable, Optional

from repro import obs
from repro.campaign.spec import CampaignSpec
from repro.cluster import protocol
from repro.cluster.protocol import Endpoint, MessageStream, ProtocolError
from repro.cluster.scheduler import ClusterScheduler, WorkerInfo
from repro.cluster.worker import ClusterWorker
from repro.obs import tracectx
from repro.obs.core import STATE as OBS_STATE

# Messages a connection may send only as the worker it registered.
WORKER_PLANE = (protocol.MSG_LEASE, protocol.MSG_HEARTBEAT, protocol.MSG_RESULT)

# How long a stopping server lets its open connections end by
# themselves, and how long a stopping fleet waits after SIGTERM.
STOP_GRACE_SECONDS = 2.0
FLEET_STOP_SECONDS = 5.0


class SchedulerServer:
    """Asyncio transport for one :class:`ClusterScheduler`.

    Args:
        scheduler: the synchronous scheduler core.
        endpoint: where to listen; for TCP, port ``0`` picks an
            ephemeral port (read the bound one from ``self.endpoint``
            after :meth:`start`).
        serve_forever: service mode — park idle workers instead of
            draining them when no campaign is active.
        tick_interval: reaper cadence (lease expiry, finalize).
        listener: a socket already bound and listening on ``endpoint``
            (:meth:`Endpoint.listen`); :meth:`start` binds one if
            absent.
    """

    def __init__(
        self,
        scheduler: ClusterScheduler,
        endpoint: Endpoint,
        serve_forever: bool = False,
        tick_interval: float = 0.1,
        listener: Optional[socket.socket] = None,
    ) -> None:
        self.scheduler = scheduler
        self.endpoint = endpoint
        self.serve_forever = serve_forever
        self.tick_interval = tick_interval
        self._listener = listener
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        # Open connections: handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._shutdown = False
        self._changed = asyncio.Event()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Listen (binding first unless given a listener) and start the
        reaper."""
        if self._listener is None:
            self._listener, self.endpoint = self.endpoint.listen()
        if self.endpoint.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle, sock=self._listener,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, sock=self._listener,
                limit=protocol.MAX_LINE_BYTES,
            )
        self._reaper = asyncio.ensure_future(self._reap_loop())
        obs.log("info", "cluster scheduler listening", endpoint=str(self.endpoint))

    async def stop(self) -> None:
        """Stop accepting, let open connections end (closing those
        still open after ``STOP_GRACE_SECONDS``, so no handler is left
        to be cancelled mid-read), cancel the reaper, drop the socket
        file."""
        if self._server is not None:
            self._server.close()
        if self._connections:
            _, pending = await asyncio.wait(
                list(self._connections), timeout=STOP_GRACE_SECONDS
            )
            for task in pending:
                self._connections[task].close()  # EOF ends the handler
            if pending:
                await asyncio.wait(pending)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        if self._listener is not None:
            self._listener.close()
        if self.endpoint.kind == "unix":
            try:
                os.unlink(self.endpoint.path)
            except OSError:
                pass

    def request_shutdown(self) -> None:
        """Stop once every campaign has drained; held leases drain."""
        self._shutdown = True
        self.notify()

    def notify(self) -> None:
        """Wake everything waiting in :meth:`changed`."""
        self._changed.set()
        self._changed = asyncio.Event()

    async def changed(self, timeout: Optional[float]) -> None:
        """Return at the next :meth:`notify`, or after ``timeout``
        seconds.  Check the awaited condition before calling: no wake-up
        is lost between the check and the wait."""
        try:
            await asyncio.wait_for(self._changed.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` control message arrives and every
        campaign has finished draining."""
        while not (self._shutdown and not self.scheduler.active()):
            await self.changed(self.tick_interval)

    async def _reap_loop(self) -> None:
        while True:
            self.scheduler.tick()
            self.notify()
            await asyncio.sleep(self.tick_interval)

    # -- connection handling --------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_message(message))
        await writer.drain()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker_id: Optional[str] = None
        worker: Optional[WorkerInfo] = None  # this connection's registration
        task = asyncio.current_task()
        self._connections[task] = writer
        # A held lease request is answered from its own task, so this
        # loop keeps reading: heartbeats while held, EOF if the worker
        # dies idle (then no lease was issued and none is charged).
        lease: Optional[asyncio.Task] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:  # over the stream's line limit
                    raise ProtocolError(f"oversized protocol line: {exc}") from exc
                if not line:
                    break
                message = protocol.decode_message(line.rstrip(b"\n"))
                protocol.check_worker_message(message)
                kind = message["type"]
                if kind in WORKER_PLANE and message["worker_id"] != worker_id:
                    raise ProtocolError(
                        f"{kind} for worker {message['worker_id']!r} on a "
                        f"connection registered as {worker_id!r}"
                    )
                if worker_id is not None and self.scheduler.workers.get(worker_id) is not worker:
                    raise ProtocolError(
                        f"worker {worker_id!r} registered again on another connection"
                    )
                if kind == protocol.MSG_REGISTER:
                    if worker_id is not None:
                        # One connection is one worker: another id
                        # would strand this one's leases.
                        raise ProtocolError(f"second register on worker {worker_id!r}'s connection")
                    new_id = message["worker_id"]
                    version = message.get("protocol")
                    refusal = None
                    if version is not None and version != protocol.PROTOCOL_VERSION:
                        refusal = (
                            f"worker speaks protocol {version}, this "
                            f"scheduler {protocol.PROTOCOL_VERSION}"
                        )
                    elif self.scheduler.is_connected(new_id):
                        # The newcomer would lease, report and release
                        # as the worker that holds this id.
                        refusal = f"worker {new_id!r} is already connected"
                    if refusal is not None:
                        await self._send(
                            writer, {"type": protocol.MSG_ERROR, "error": refusal}
                        )
                        break
                    # A stale holder of this id is gone: its leases go
                    # back before the newcomer takes the id.
                    self.scheduler.disconnect_worker(new_id)
                    worker_id = new_id
                    pid = message.get("pid") or 0
                    body = self.scheduler.register_worker(worker_id, pid=pid)
                    worker = self.scheduler.workers[worker_id]
                    if self.serve_forever:
                        # A one-shot run's workers are its own forked
                        # fleet; a service announces who connects.
                        self.scheduler.emit(
                            f"worker {worker_id} registered (pid {pid})"
                        )
                    await self._send(
                        writer, {"type": protocol.MSG_REGISTERED, **body}
                    )
                elif kind == protocol.MSG_LEASE:
                    if lease is not None:
                        if not lease.done():
                            raise ProtocolError("lease requested while one is held")
                        lease.result()  # re-raise a failed send
                    lease = asyncio.ensure_future(
                        self._handle_lease(writer, message["worker_id"])
                    )
                elif kind == protocol.MSG_HEARTBEAT:
                    self.scheduler.heartbeat(message["worker_id"])
                elif kind == protocol.MSG_RESULT:
                    self.scheduler.handle_result(message["worker_id"], message)
                    self.notify()
                elif kind == protocol.MSG_GOODBYE:
                    break
                elif kind == protocol.MSG_SUBMIT:
                    await self._handle_submit(writer, message)
                    self.notify()
                elif kind == protocol.MSG_STATUS:
                    await self._send(
                        writer,
                        {
                            "type": protocol.MSG_STATUS,
                            **self.scheduler.status_payload(),
                        },
                    )
                elif kind == protocol.MSG_CANCEL:
                    ok = self.scheduler.cancel(
                        str(message.get("campaign_id", ""))
                    )
                    self.notify()
                    await self._send(
                        writer,
                        {"type": protocol.MSG_OK}
                        if ok
                        else {
                            "type": protocol.MSG_ERROR,
                            "error": (
                                f"no running campaign "
                                f"{message.get('campaign_id')!r}"
                            ),
                        },
                    )
                elif kind == protocol.MSG_SHUTDOWN:
                    self.request_shutdown()
                    await self._send(writer, {"type": protocol.MSG_OK})
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
        except (
            ProtocolError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            if lease is not None:
                lease.cancel()
                await asyncio.gather(lease, return_exceptions=True)
            if worker_id is not None and self.scheduler.workers.get(worker_id) is worker:
                # EOF from a registered worker: clean goodbye or death,
                # either way its leases must not stay checked out.
                self.scheduler.disconnect_worker(worker_id)
                self.notify()
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass
            finally:
                del self._connections[task]

    async def _handle_lease(
        self, writer: asyncio.StreamWriter, worker_id: str
    ) -> None:
        """Answer one ``lease`` with a job or the drain, holding the
        request until one of the two is due."""
        while True:
            job = self.scheduler.request_lease(worker_id)
            if job is not None:
                await self._send(writer, {"type": protocol.MSG_JOB, **job})
                self.notify()  # a lease is held: the kill drill's moment
                return
            if not self.scheduler.active() and (
                self._shutdown or not self.serve_forever
            ):
                await self._send(writer, {"type": protocol.MSG_DRAIN})
                return
            await self.changed(self.scheduler.idle_retry_after())

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, message: dict
    ) -> None:
        try:
            spec = CampaignSpec.from_dict(message["spec"])
            campaign_id = self.scheduler.submit(
                spec,
                message["store"],
                resume=bool(message.get("resume", False)),
            )
        except (KeyError, TypeError, ValueError, OSError) as exc:
            await self._send(
                writer,
                {
                    "type": protocol.MSG_ERROR,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        await self._send(
            writer, {"type": protocol.MSG_OK, "campaign_id": campaign_id}
        )


# -- synchronous control client -----------------------------------------
def control_request(
    endpoint: Endpoint, message: dict, timeout: float = 30.0
) -> dict:
    """One request/response exchange with a running scheduler."""
    sock = endpoint.connect(timeout=timeout)
    sock.settimeout(timeout)
    stream = MessageStream(sock)
    try:
        stream.send(message)
        reply = stream.recv()
    finally:
        stream.close()
    if reply is None:
        raise ProtocolError("scheduler closed the connection without a reply")
    return reply


# -- one-shot local cluster run -----------------------------------------
class LocalFleet:
    """The forked local workers of one :func:`run_cluster`.

    Each worker is forked from the scheduler process onto its bound
    socket, so it starts with the campaign's code already imported.
    A pid is reaped at most once and never signalled after that.
    """

    def __init__(self) -> None:
        self.pids: dict[str, int] = {}
        self._reaped: set[int] = set()

    def fork(
        self,
        endpoint: Endpoint,
        worker_id: str,
        sink: Optional[str],
        listener: socket.socket,
    ) -> None:
        """Fork one worker that serves ``endpoint`` until drained.

        The child starts as a ``cluster worker`` started by hand does:
        no inherited trace context, open span or ``REPRO_OBS*``
        variable (a worker adopts trace context per lease), obs
        recording only to ``sink``, stdio on ``/dev/null``.  It leaves
        with ``os._exit``, so none of the parent's exit handlers run
        twice.
        """
        pid = os.fork()
        if pid:
            self.pids[worker_id] = pid
            return
        code = 1
        try:
            listener.close()
            devnull = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(devnull, fd)
            os.environ.pop(obs.ENV_SINK, None)
            os.environ.pop(obs.ENV_TRACE, None)
            tracectx.clear_trace()
            OBS_STATE.span_stack().clear()
            obs.disable()
            if sink is not None:
                obs.enable(sink_path=sink)
            ClusterWorker(endpoint, worker_id=worker_id).run()
            code = 0
        finally:
            os._exit(code)

    def alive(self, worker_id: str) -> bool:
        """Whether the worker still runs (reaps it if it has exited)."""
        pid = self.pids[worker_id]
        if pid in self._reaped:
            return False
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                return True
        except ChildProcessError:
            pass
        self._reaped.add(pid)
        return False

    def kill(self, worker_id: str) -> None:
        """SIGKILL one worker (the crash drill)."""
        if self.alive(worker_id):
            os.kill(self.pids[worker_id], signal.SIGKILL)

    async def exited(self, timeout: float) -> None:
        """Wait until every worker has exited, at most ``timeout`` s."""
        waits = [self._exit_of(worker_id) for worker_id in self.pids]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), timeout)
        except asyncio.TimeoutError:
            pass

    async def _exit_of(self, worker_id: str) -> None:
        """Return once the worker has exited, reaped."""
        if not self.alive(worker_id):
            return
        try:
            # Unreaped, so the pid still names this child.
            pidfd = os.pidfd_open(self.pids[worker_id])
        except (AttributeError, OSError):  # no pidfd here: poll
            while self.alive(worker_id):
                await asyncio.sleep(0.05)
            return
        loop = asyncio.get_running_loop()
        ready = asyncio.Event()
        loop.add_reader(pidfd, ready.set)
        try:
            await ready.wait()
        finally:
            loop.remove_reader(pidfd)
            os.close(pidfd)
        self.alive(worker_id)

    def stop(self) -> None:
        """SIGTERM every live worker, SIGKILL what outlives
        ``FLEET_STOP_SECONDS``, and reap them all."""
        for worker_id in self.pids:
            if self.alive(worker_id):
                os.kill(self.pids[worker_id], signal.SIGTERM)
        deadline = time.monotonic() + FLEET_STOP_SECONDS
        while time.monotonic() < deadline and any(map(self.alive, self.pids)):
            time.sleep(0.01)
        for worker_id, pid in self.pids.items():
            if self.alive(worker_id):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                self._reaped.add(pid)


def run_cluster(
    spec: CampaignSpec,
    store_root,
    workers: int = 2,
    endpoint: Optional[Endpoint] = None,
    resume: bool = False,
    lease_seconds: float = 30.0,
    heartbeat_seconds: float = 1.0,
    obs_shards: bool = False,
    obs_sink: Optional[str] = None,
    drill_kill_worker: Optional[int] = None,
    on_event: Optional[Callable[[str], None]] = None,
    deadline_seconds: Optional[float] = None,
) -> dict:
    """Run one campaign on a local fleet of forked worker processes.

    Blocks until the campaign finalizes, reaps the workers, and
    returns the outcome counts.  ``deadline_seconds`` bounds the wait
    (``TimeoutError`` when it passes); ``None``, the default, waits as
    long as the campaign takes.  The socket is
    bound and the workers forked before the event loop starts; the
    server then accepts the connections they already queued.  Without
    an ``endpoint`` it is a Unix socket in a fresh ``0700`` temporary
    directory, removed afterwards, so a one-shot run opens no port.

    ``KeyboardInterrupt`` stops the campaign unfinalized
    (:meth:`ClusterScheduler.interrupt`): the workers finish or drop
    the jobs they hold, nothing is charged, and the interrupt
    propagates once they are reaped.

    ``drill_kill_worker=N`` SIGKILLs the first worker after N jobs have
    completed, at least one of them on that worker, at a moment it
    holds a lease — the lease/disconnect recovery drill.
    ``obs_shards`` points each worker's obs sink at
    ``<store>/shard-<worker_id>/obs.jsonl``; ``obs_sink`` instead gives
    every worker the *same* sink path (one merged JSONL file — fine for
    smoke-scale fleets, where one-line appends don't interleave), which
    together with the scheduler writing to the same file yields a
    single self-contained sink whose span tree ``obs report --trace``
    can stitch with no extra globbing.  With neither, workers record
    nothing.
    """
    scheduler = ClusterScheduler(
        lease_seconds=lease_seconds,
        heartbeat_seconds=heartbeat_seconds,
        on_event=on_event,
    )
    campaign_id = scheduler.submit(spec, store_root, resume=resume)
    exec_ = scheduler.campaigns[campaign_id]
    private_dir = None
    if endpoint is None:
        private_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        endpoint = Endpoint(
            kind="unix", path=os.path.join(private_dir, "scheduler.sock")
        )
    listener, bound = endpoint.listen()
    fleet = LocalFleet()

    async def _drive() -> None:
        server = SchedulerServer(scheduler, bound, listener=listener)
        await server.start()
        try:
            deadline = (
                None if deadline_seconds is None
                else time.monotonic() + deadline_seconds
            )
            killed_drill = False
            while scheduler.active():
                first = scheduler.workers.get("w0")
                if (
                    drill_kill_worker is not None
                    and not killed_drill
                    and exec_.queue.done_count >= drill_kill_worker
                    and first is not None
                    and first.jobs_done > 0
                    and exec_.queue.held_by("w0")
                    and fleet.alive("w0")
                ):
                    fleet.kill("w0")
                    killed_drill = True
                    obs.counter_add("cluster.drill_kills")
                    if on_event is not None:
                        on_event(
                            f"drill: SIGKILLed worker w0 after "
                            f"{exec_.queue.done_count} results"
                        )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"cluster run exceeded {deadline_seconds}s "
                            f"deadline"
                        )
                await server.changed(remaining)
            # Campaign finalized; let workers see the drain reply.
            await fleet.exited(timeout=10.0)
        except asyncio.CancelledError:  # KeyboardInterrupt
            scheduler.interrupt(campaign_id)
            server.notify()  # held leases see the drain
            raise
        finally:
            await server.stop()

    try:
        for index in range(max(1, workers)):
            worker_id = f"w{index}"
            sink = obs_sink
            if obs_shards:
                shard_root = exec_.store.shard_store(worker_id).root
                shard_root.mkdir(parents=True, exist_ok=True)
                sink = str(shard_root / "obs.jsonl")
            fleet.fork(bound, worker_id, sink, listener)
        asyncio.run(_drive())
    finally:
        fleet.stop()
        listener.close()
        if private_dir is not None:
            shutil.rmtree(private_dir, ignore_errors=True)
    counts = dict(exec_.counts)
    counts["skipped"] = exec_.skipped
    return {
        "campaign_id": campaign_id,
        "state": exec_.state,
        "counts": counts,
        "retries": exec_.retries,
        "elapsed_seconds": (
            (exec_.finished_at or scheduler.clock()) - exec_.started_at
        ),
        "store": str(exec_.store.root),
    }


def serve(
    endpoint: Endpoint,
    lease_seconds: float = 30.0,
    heartbeat_seconds: float = 5.0,
    on_event: Optional[Callable[[str], None]] = None,
) -> None:
    """Run the scheduler as a long-lived service (``cluster serve``).

    Campaigns arrive via ``cluster submit``; a ``shutdown`` control
    message stops the loop once every campaign has drained.  SIGTERM
    and SIGINT trigger the same graceful path.
    """
    scheduler = ClusterScheduler(
        lease_seconds=lease_seconds,
        heartbeat_seconds=heartbeat_seconds,
        on_event=on_event,
    )

    async def _serve() -> None:
        server = SchedulerServer(scheduler, endpoint, serve_forever=True)
        await server.start()
        if on_event is not None:
            on_event(f"cluster scheduler serving on {server.endpoint}")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await server.serve_until_shutdown()
        finally:
            await server.stop()
            obs.flush()

    asyncio.run(_serve())
