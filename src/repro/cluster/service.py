"""Transport and process management around the scheduler core.

Three entry points, all thin shells over
:class:`repro.cluster.scheduler.ClusterScheduler`:

- :class:`SchedulerServer` — an asyncio JSON-lines server speaking
  :mod:`repro.cluster.protocol` on TCP or a Unix socket, with a reaper
  task driving ``scheduler.tick()`` (lease expiry, finalize).
- :func:`run_cluster` — the one-shot ``repro cluster run`` front end:
  submit one campaign, spawn N local worker subprocesses, serve until
  drained, reap the workers.  ``drill_kill_worker`` SIGKILLs the first
  worker after N results land, once one of them is its own — the
  crash-recovery drill the CI smoke and the integration tests run.
- :func:`control_request` — the synchronous client the
  ``submit``/``status``/``cancel``/``shutdown`` commands use.

Service mode (``repro cluster serve``) is the same server with
``serve_forever=True``: idle workers are parked instead of drained, so
campaigns submitted later drain through the already-connected fleet.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from typing import Callable, Optional

from repro import obs
from repro.campaign.spec import CampaignSpec
from repro.cluster import protocol
from repro.cluster.protocol import Endpoint, MessageStream, ProtocolError
from repro.cluster.scheduler import ClusterScheduler


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
    """

    def __init__(
        self,
        scheduler: ClusterScheduler,
        endpoint: Endpoint,
        serve_forever: bool = False,
        tick_interval: float = 0.1,
    ) -> None:
        self.scheduler = scheduler
        self.endpoint = endpoint
        self.serve_forever = serve_forever
        self.tick_interval = tick_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind, listen, and start the reaper."""
        if self.endpoint.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.endpoint.path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.endpoint.host or "127.0.0.1",
                port=self.endpoint.port, limit=protocol.MAX_LINE_BYTES,
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self.endpoint = Endpoint(kind="tcp", host=host, port=port)
        self._reaper = asyncio.ensure_future(self._reap_loop())
        obs.log("info", "cluster scheduler listening", endpoint=str(self.endpoint))

    async def stop(self) -> None:
        """Stop accepting, cancel the reaper, drop the socket file."""
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.endpoint.kind == "unix":
            try:
                os.unlink(self.endpoint.path)
            except OSError:
                pass

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` control message arrives and every
        campaign has finished draining."""
        while not (self._shutdown.is_set() and not self.scheduler.active()):
            await asyncio.sleep(self.tick_interval)

    async def _reap_loop(self) -> None:
        while True:
            self.scheduler.tick()
            await asyncio.sleep(self.tick_interval)

    # -- connection handling --------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_message(message))
        await writer.drain()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker_id: Optional[str] = None
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
                if kind == protocol.MSG_REGISTER:
                    worker_id = message["worker_id"]
                    pid = message.get("pid") or 0
                    body = self.scheduler.register_worker(worker_id, pid=pid)
                    self.scheduler.emit(f"worker {worker_id} registered (pid {pid})")
                    await self._send(
                        writer, {"type": protocol.MSG_REGISTERED, **body}
                    )
                elif kind == protocol.MSG_LEASE:
                    await self._handle_lease(writer, message)
                elif kind == protocol.MSG_HEARTBEAT:
                    self.scheduler.heartbeat(message["worker_id"])
                elif kind == protocol.MSG_RESULT:
                    self.scheduler.handle_result(message["worker_id"], message)
                elif kind == protocol.MSG_GOODBYE:
                    break
                elif kind == protocol.MSG_SUBMIT:
                    await self._handle_submit(writer, message)
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
                    self._shutdown.set()
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
            if worker_id is not None:
                # EOF from a registered worker: clean goodbye or death,
                # either way its leases must not stay checked out.
                self.scheduler.disconnect_worker(worker_id)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    async def _handle_lease(
        self, writer: asyncio.StreamWriter, message: dict
    ) -> None:
        worker_id = message["worker_id"]
        job = self.scheduler.request_lease(worker_id)
        if job is not None:
            await self._send(writer, {"type": protocol.MSG_JOB, **job})
            return
        draining = self._shutdown.is_set() or (
            not self.serve_forever and not self.scheduler.active()
        )
        if draining and not self.scheduler.active():
            await self._send(writer, {"type": protocol.MSG_DRAIN})
            return
        await self._send(
            writer,
            {
                "type": protocol.MSG_IDLE,
                "retry_after": self.scheduler.idle_retry_after(),
            },
        )

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
def spawn_worker(
    endpoint: Endpoint,
    worker_id: str,
    obs_sink: Optional[str] = None,
) -> subprocess.Popen:
    """Start one ``repro cluster worker`` subprocess."""
    env = dict(os.environ)
    if obs_sink is not None:
        env[obs.ENV_SINK] = obs_sink
    else:
        env.pop(obs.ENV_SINK, None)
    # Cluster workers adopt trace context per-lease from the job
    # message, never from the environment — an inherited process-level
    # trace would misattribute a parked worker's idle time to whatever
    # campaign the parent process happened to be tracing.
    env.pop(obs.ENV_TRACE, None)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "cluster",
            "worker",
            "--connect",
            str(endpoint),
            "--worker-id",
            worker_id,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


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
    deadline_seconds: float = 600.0,
) -> dict:
    """Run one campaign on a local fleet of worker subprocesses.

    Blocks until the campaign finalizes (or the deadline passes),
    reaps the workers, and returns the outcome counts.

    ``drill_kill_worker=N`` SIGKILLs the first worker after N jobs have
    completed, at least one of them on that worker — the
    lease/disconnect recovery drill.  (A worker still starting up when
    the others finish N jobs has no lease and no shard to recover.)
    ``obs_shards`` points each worker's obs sink at
    ``<store>/shard-<worker_id>/obs.jsonl``; ``obs_sink`` instead gives
    every worker the *same* sink path (one merged JSONL file — fine for
    smoke-scale fleets, where one-line appends don't interleave), which
    together with the scheduler writing to the same file yields a
    single self-contained sink whose span tree ``obs report --trace``
    can stitch with no extra globbing.
    """
    scheduler = ClusterScheduler(
        lease_seconds=lease_seconds,
        heartbeat_seconds=heartbeat_seconds,
        on_event=on_event,
    )
    campaign_id = scheduler.submit(spec, store_root, resume=resume)

    async def _drive() -> dict:
        server = SchedulerServer(
            scheduler,
            endpoint or Endpoint(kind="tcp", host="127.0.0.1", port=0),
        )
        await server.start()
        procs: list[subprocess.Popen] = []
        try:
            for index in range(max(1, workers)):
                worker_id = f"w{index}"
                sink = obs_sink
                if obs_shards:
                    shard_root = (
                        scheduler.campaigns[campaign_id]
                        .store.shard_store(worker_id)
                        .root
                    )
                    shard_root.mkdir(parents=True, exist_ok=True)
                    sink = str(shard_root / "obs.jsonl")
                procs.append(
                    spawn_worker(server.endpoint, worker_id, obs_sink=sink)
                )
            deadline = time.monotonic() + deadline_seconds
            killed_drill = False
            exec_ = scheduler.campaigns[campaign_id]
            while scheduler.active():
                first = scheduler.workers.get("w0")
                if (
                    drill_kill_worker is not None
                    and not killed_drill
                    and exec_.queue.done_count >= drill_kill_worker
                    and first is not None
                    and first.jobs_done > 0
                    and procs[0].poll() is None
                ):
                    procs[0].kill()
                    killed_drill = True
                    obs.counter_add("cluster.drill_kills")
                    if on_event is not None:
                        on_event(
                            f"drill: SIGKILLed worker w0 after "
                            f"{exec_.queue.done_count} results"
                        )
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"cluster run exceeded {deadline_seconds}s deadline"
                    )
                await asyncio.sleep(0.05)
            # Campaign finalized; let workers see the drain reply.
            drain_deadline = time.monotonic() + 10.0
            while any(p.poll() is None for p in procs):
                if time.monotonic() > drain_deadline:
                    break
                await asyncio.sleep(0.05)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            await server.stop()
        exec_ = scheduler.campaigns[campaign_id]
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

    return asyncio.run(_drive())


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
                loop.add_signal_handler(signum, server._shutdown.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await server.serve_until_shutdown()
        finally:
            await server.stop()
            obs.flush()

    asyncio.run(_serve())
