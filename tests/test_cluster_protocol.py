"""Typed checks of worker -> scheduler messages.

A malformed message is a :class:`ProtocolError` at the wire: the
scheduler drops the connection, which charges the worker's leases,
instead of letting a bad field raise inside the scheduler.
"""

import asyncio
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    metrics_digest,
    register_experiment,
)
from repro.campaign.executor import run_attempt
from repro.cluster import ClusterScheduler, Endpoint, SchedulerServer, protocol
from repro.cluster.protocol import ProtocolError, check_worker_message
from repro.cluster.worker import finish_job


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@register_experiment("protocol_echo")
def _echo(params: dict, seed: int) -> dict:
    return {"value": params.get("x", 0)}


def _result(job: dict, **override) -> dict:
    message = {
        "type": protocol.MSG_RESULT,
        "worker_id": "w",
        "campaign_id": job["campaign_id"],
        "lease_id": job["lease_id"],
        "job_id": job["job_id"],
        "status": "ok",
        "duration": 0.1,
    }
    message.update(override)
    return message


# Each case builds a malformed message from the job leased to "w".
MALFORMED = {
    "missing worker_id": lambda job: {"type": protocol.MSG_HEARTBEAT},
    "non-numeric pid": lambda job: {
        "type": protocol.MSG_REGISTER, "worker_id": "w", "pid": "abc",
    },
    "non-numeric duration": lambda job: _result(job, duration="abc"),
    "bool duration": lambda job: _result(job, duration=True),
    "trace not a dict": lambda job: _result(job, trace="abc"),
    "unknown status": lambda job: _result(job, status="exploded"),
}

JOB = {"campaign_id": "c1-x", "lease_id": "j.1", "job_id": "j"}


class TestCheckWorkerMessage:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_message_is_a_protocol_error(self, case):
        with pytest.raises(ProtocolError):
            check_worker_message(MALFORMED[case](JOB))

    @pytest.mark.parametrize(
        "message",
        [
            {"type": protocol.MSG_REGISTER, "worker_id": "w", "pid": 7,
             "protocol": protocol.PROTOCOL_VERSION},
            {"type": protocol.MSG_LEASE, "worker_id": "w"},
            _result(JOB, error="boom", status="failed",
                    timeout_enforced=False, trace={"trace": "t"}),
            _result(JOB, duration=1, error=None),
            {"type": protocol.MSG_GOODBYE},
            {"type": protocol.MSG_STATUS},  # control plane: not checked
        ],
    )
    def test_well_formed_messages_pass(self, message):
        check_worker_message(message)


class TestServerDropsMalformedWorker:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_connection_dropped_and_lease_charged(self, tmp_path, case):
        scheduler = ClusterScheduler()
        spec = CampaignSpec(
            name="bad", experiment="protocol_echo", grid={"x": [1]},
            max_retries=0,
        )
        campaign_id = scheduler.submit(spec, tmp_path / "c")

        async def scenario() -> bytes:
            server = SchedulerServer(
                scheduler, Endpoint(kind="tcp", host="127.0.0.1", port=0)
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.endpoint.host, server.endpoint.port
                )

                async def ask(message: dict) -> dict:
                    writer.write(protocol.encode_message(message))
                    await writer.drain()
                    return protocol.decode_message(await reader.readline())

                await ask({"type": protocol.MSG_REGISTER, "worker_id": "w"})
                job = await ask({"type": protocol.MSG_LEASE, "worker_id": "w"})
                assert job["type"] == protocol.MSG_JOB
                writer.write(protocol.encode_message(MALFORMED[case](job)))
                await writer.drain()
                tail = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return tail
            finally:
                await server.stop()

        assert asyncio.run(scenario()) == b""  # EOF: the server hung up
        exec_ = scheduler.campaigns[campaign_id]
        assert exec_.counts == {"crashed": 1}
        assert exec_.state == "done"


# -- the trust boundary: any received line parses or is a ProtocolError --

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FIELD_NAMES = sorted(
    {"type", *(n for req, opt in protocol.WORKER_FIELDS.values() for n in {**req, **opt})}
)
DEEP = b'{"type":' + b"[" * 100_000


def _json_line(value) -> bytes:
    return json.dumps(value).encode("utf-8")


LINES = st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(_json_line),
    st.builds(
        lambda kind, fields: _json_line({**fields, "type": kind}),
        JSON_VALUES | st.sampled_from(sorted(protocol.WORKER_FIELDS)),
        st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUES, max_size=8),
    ),
    st.integers(1, 50).map(lambda depth: b'{"type":' + b"[" * depth * 1000),
)


class TestWireFuzz:
    @given(line=LINES)
    @example(line=b'{"type":[]}')
    @example(line=b'{"type":{}}')
    @example(line=DEEP)
    @settings(max_examples=300, deadline=500)
    def test_line_decodes_to_a_checked_dict_or_protocol_error(self, line):
        try:
            message = protocol.decode_message(line)
        except ProtocolError:
            return
        assert isinstance(message, dict)
        try:
            check_worker_message(message)
        except ProtocolError:
            pass

    @given(
        kind=JSON_VALUES | st.sampled_from(sorted(protocol.WORKER_FIELDS)),
        fields=st.dictionaries(
            st.sampled_from(FIELD_NAMES), JSON_VALUES, max_size=8
        ),
    )
    @example(kind=[], fields={})
    @settings(max_examples=300, deadline=500)
    def test_check_worker_message_passes_or_raises_protocol_error(
        self, kind, fields
    ):
        try:
            check_worker_message({**fields, "type": kind})
        except ProtocolError:
            pass


# -- the held-lease task: hostile worker-plane messages are no-ops or
# -- ProtocolErrors, and the campaign ends as it would have anyway ------

def _fuzz_spec() -> CampaignSpec:
    return CampaignSpec(
        name="fuzz", experiment="protocol_echo", grid={"x": [1, 2]},
        max_retries=1, retry_backoff=0.0,
    )


WORKER_IDS = st.text(max_size=6).filter(lambda wid: wid != "w")
HOSTILE_MOVES = st.lists(
    st.one_of(
        # A result for a held job naming an unknown or stale lease, sent
        # by the holder, or by a connection that never registered.
        st.tuples(
            st.just("result"),
            st.one_of(st.text(max_size=12), st.integers(1, 9)),
            st.sampled_from(protocol.RESULT_STATUSES),
            st.booleans(),
        ),
        # A heartbeat from a connection that never registered.
        st.tuples(st.just("heartbeat"), st.one_of(st.just("w"), WORKER_IDS)),
        # A second lease while the first one is held.
        st.tuples(st.just("lease"), WORKER_IDS),
        # A second connection registering as the holder.
        st.tuples(st.just("register"), st.just("w")),
    ),
    min_size=1,
    max_size=4,
)


class _Peer:
    """One client connection to the server under test."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, path: str) -> "_Peer":
        return cls(*await asyncio.open_unix_connection(path))

    async def send(self, message: dict) -> None:
        self.writer.write(protocol.encode_message(message))
        await self.writer.drain()

    async def recv(self):
        """The next message, or None at EOF (the server hung up)."""
        line = await asyncio.wait_for(self.reader.readline(), timeout=10)
        return protocol.decode_message(line) if line else None

    def close(self) -> None:
        self.writer.close()


async def _hostile(path: str, move: tuple, job: dict, holder: _Peer) -> None:
    """Play one hostile move against ``job``, held by worker ``w`` on
    ``holder``; returns once the server has dealt with it."""
    kind = move[0]
    if kind == "result":
        _, lease, status, impostor = move
        if isinstance(lease, int):  # stale: the same job, another lease
            lease = f"{job['job_id']}.{int(job['lease_id'].rsplit('.', 1)[1]) + lease}"
        if not impostor:
            if lease == job["lease_id"]:
                return
            await holder.send(_result(job, lease_id=lease, status=status))
            return  # handled in order, before the holder's next message
        peer = await _Peer.open(path)
        await peer.send(_result(job, lease_id=job["lease_id"], status=status))
    elif kind == "heartbeat":
        peer = await _Peer.open(path)
        await peer.send({"type": protocol.MSG_HEARTBEAT, "worker_id": move[1]})
    elif kind == "register":
        peer = await _Peer.open(path)
        await peer.send({"type": protocol.MSG_REGISTER, "worker_id": move[1]})
        reply = await peer.recv()
        assert reply is not None and reply["type"] == protocol.MSG_ERROR, reply
    else:
        peer = await _Peer.open(path)
        await peer.send({"type": protocol.MSG_REGISTER, "worker_id": move[1]})
        assert (await peer.recv())["type"] == protocol.MSG_REGISTERED
        for _ in range(2):
            await peer.send({"type": protocol.MSG_LEASE, "worker_id": move[1]})
    # A status reply proves the move was a no-op; EOF, a ProtocolError.
    try:
        await peer.send({"type": protocol.MSG_STATUS})
        reply = await peer.recv()
    except (BrokenPipeError, ConnectionResetError):
        reply = None
    assert reply is None or reply["type"] == protocol.MSG_STATUS
    peer.close()


class TestHeldLeaseFuzz:
    """Worker ``w`` holds both jobs of a campaign while hostile peers
    send results for unknown or stale leases, heartbeats without a
    registration, a second lease while one is held and a ``register``
    as ``w``.  Each is a no-op, a refusal or a ProtocolError: the
    campaign's counts, records and ``metrics_digest`` are those of an
    undisturbed run."""

    @given(moves=HOSTILE_MOVES)
    @example(moves=[("result", 1, "failed", False)])
    @example(moves=[("result", "", "failed", True)])
    @example(moves=[("heartbeat", "w"), ("lease", "h")])
    @settings(max_examples=60, deadline=None)
    def test_hostile_messages_leave_the_campaign_unchanged(self, moves):
        scheduler = ClusterScheduler()
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "c")
            campaign_id = scheduler.submit(_fuzz_spec(), root)

            async def scenario(path: str) -> None:
                server = SchedulerServer(scheduler, Endpoint(kind="unix", path=path))
                await server.start()
                try:
                    holder = await _Peer.open(path)
                    await holder.send({"type": protocol.MSG_REGISTER, "worker_id": "w"})
                    assert (await holder.recv())["type"] == protocol.MSG_REGISTERED
                    jobs = []
                    for _ in range(2):
                        await holder.send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                        jobs.append(await holder.recv())
                    for job in jobs:
                        for move in moves:
                            await _hostile(path, move, job, holder)
                    for job in jobs:
                        shard = ResultStore(root).shard_store("w")
                        await holder.send(
                            finish_job(shard, "w", job, run_attempt(job["payload"]))
                        )
                    await holder.send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                    assert (await holder.recv())["type"] == protocol.MSG_DRAIN
                    holder.close()
                finally:
                    await server.stop()

            asyncio.run(scenario(os.path.join(tmp, "s.sock")))
            exec_ = scheduler.campaigns[campaign_id]
            assert exec_.counts == {"ok": 2}
            assert exec_.retries == 0
            records = ResultStore(root).load_records()
            assert sorted(r.attempts for r in records.values()) == [1, 1]
            assert metrics_digest(records) == _undisturbed_digest()

    def test_a_second_register_under_another_id_drops_the_connection(self):
        """One connection is one worker: registering another id would
        strand the first id's lease, so the connection is dropped and
        the lease goes back to the queue."""
        scheduler = ClusterScheduler()
        with tempfile.TemporaryDirectory() as tmp:
            campaign_id = scheduler.submit(_fuzz_spec(), os.path.join(tmp, "c"))

            async def scenario(path: str):
                server = SchedulerServer(scheduler, Endpoint(kind="unix", path=path))
                await server.start()
                try:
                    peer = await _Peer.open(path)
                    await peer.send({"type": protocol.MSG_REGISTER, "worker_id": "w"})
                    assert (await peer.recv())["type"] == protocol.MSG_REGISTERED
                    await peer.send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                    assert (await peer.recv())["type"] == protocol.MSG_JOB
                    await peer.send({"type": protocol.MSG_REGISTER, "worker_id": "v"})
                    eof = await peer.recv()
                    peer.close()
                    await asyncio.sleep(0.05)  # the server's finally block
                    return eof
                finally:
                    await server.stop()

            assert asyncio.run(scenario(os.path.join(tmp, "s.sock"))) is None
        queue = scheduler.campaigns[campaign_id].queue
        assert queue.leased_count == 0 and queue.pending_count == 2
        assert not scheduler.is_connected("w") and "v" not in scheduler.workers

    def test_a_stale_holders_id_registers_again(self):
        """A holder silent for a lease (its host died behind a half-open
        socket) does not keep its id: a restarted worker registers under
        it, the stale lease goes back to the queue, and the old
        connection no longer speaks for the id."""
        now = [1000.0]
        scheduler = ClusterScheduler(lease_seconds=10.0, clock=lambda: now[0])
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "c")
            campaign_id = scheduler.submit(_fuzz_spec(), root)

            async def scenario(path: str) -> None:
                server = SchedulerServer(scheduler, Endpoint(kind="unix", path=path))
                await server.start()
                try:
                    stale = await _Peer.open(path)
                    await stale.send({"type": protocol.MSG_REGISTER, "worker_id": "w"})
                    assert (await stale.recv())["type"] == protocol.MSG_REGISTERED
                    await stale.send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                    assert (await stale.recv())["type"] == protocol.MSG_JOB
                    now[0] += 11.0
                    fresh = await _Peer.open(path)
                    await fresh.send({"type": protocol.MSG_REGISTER, "worker_id": "w"})
                    assert (await fresh.recv())["type"] == protocol.MSG_REGISTERED
                    assert scheduler.campaigns[campaign_id].queue.leased_count == 0
                    await stale.send({"type": protocol.MSG_HEARTBEAT, "worker_id": "w"})
                    assert await stale.recv() is None
                    stale.close()
                    shard = ResultStore(root).shard_store("w")
                    for _ in range(2):
                        await fresh.send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                        job = await fresh.recv()
                        await fresh.send(
                            finish_job(shard, "w", job, run_attempt(job["payload"]))
                        )
                    await fresh.send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                    assert (await fresh.recv())["type"] == protocol.MSG_DRAIN
                    assert scheduler.is_connected("w")
                    fresh.close()
                finally:
                    await server.stop()

            asyncio.run(scenario(os.path.join(tmp, "s.sock")))
            exec_ = scheduler.campaigns[campaign_id]
            assert exec_.counts == {"ok": 2} and exec_.retries == 1


_UNDISTURBED: list = []


def _undisturbed_digest() -> str:
    if not _UNDISTURBED:
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(os.path.join(tmp, "ref"))
            CampaignRunner(_fuzz_spec(), store).run()
            _UNDISTURBED.append(metrics_digest(store.load_records()))
    return _UNDISTURBED[0]


class TestServerSurvivesJunkLines:
    """Each junk line drops its own connection; nothing reaches the
    event loop's exception handler and the server keeps answering."""

    def test_junk_lines_are_dropped_and_server_still_answers(self):
        scheduler = ClusterScheduler()
        junk = [
            b'{"type":[]}\n',
            DEEP + b"\n",
            b'{"type":"status","pad":"' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n',
        ]
        loop_errors: list[dict] = []

        async def scenario(path: str) -> dict:
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            server = SchedulerServer(scheduler, Endpoint(kind="unix", path=path))
            await server.start()
            try:
                for line in junk:
                    reader, writer = await asyncio.open_unix_connection(path)
                    writer.write(line)
                    await writer.drain()
                    tail = await asyncio.wait_for(reader.read(), timeout=10)
                    assert tail == b""  # the server hung up
                    writer.close()
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(protocol.encode_message({"type": protocol.MSG_STATUS}))
                await writer.drain()
                reply = protocol.decode_message(
                    await asyncio.wait_for(reader.readline(), timeout=10)
                )
                writer.close()
                # Let the server-side handler tasks finish.
                await asyncio.sleep(0.2)
                return reply
            finally:
                await server.stop()

        with tempfile.TemporaryDirectory() as tmp:
            reply = asyncio.run(scenario(os.path.join(tmp, "s.sock")))
        assert reply["type"] == protocol.MSG_STATUS
        assert loop_errors == []


class TestHeldLease:
    """Service mode answers a lease only with a job or the drain: an
    idle worker's request is held, and a later submit wakes it."""

    def test_held_lease_gets_the_job_of_a_later_submit(self, tmp_path):
        scheduler = ClusterScheduler()
        spec = CampaignSpec(
            name="held", experiment="protocol_echo", grid={"x": [4]},
        )
        lines: list[dict] = []

        async def scenario(path: str) -> None:
            server = SchedulerServer(
                scheduler, Endpoint(kind="unix", path=path), serve_forever=True
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(path)

                async def send(message: dict) -> None:
                    writer.write(protocol.encode_message(message))
                    await writer.drain()

                async def recv() -> dict:
                    line = await asyncio.wait_for(reader.readline(), timeout=10)
                    lines.append(protocol.decode_message(line))
                    return lines[-1]

                await send({"type": protocol.MSG_REGISTER, "worker_id": "w",
                            "protocol": protocol.PROTOCOL_VERSION})
                assert (await recv())["type"] == protocol.MSG_REGISTERED
                await send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                # Longer than any idle retry: the request stays held.
                await asyncio.sleep(0.5)
                assert not reader.at_eof() and len(lines) == 1

                control_reader, control = await asyncio.open_unix_connection(path)
                control.write(protocol.encode_message({
                    "type": protocol.MSG_SUBMIT, "spec": spec.to_dict(),
                    "store": str(tmp_path / "held"),
                }))
                await control.drain()
                reply = protocol.decode_message(await control_reader.readline())
                assert reply["type"] == protocol.MSG_OK
                job = await recv()
                assert job["type"] == protocol.MSG_JOB
                assert job["payload"]["params"] == {"x": 4}
                await send(_result(job))

                # The campaign is done; the next request is held again
                # until shutdown, which drains it.
                await send({"type": protocol.MSG_LEASE, "worker_id": "w"})
                await asyncio.sleep(0.3)
                assert len(lines) == 2
                control.write(protocol.encode_message(
                    {"type": protocol.MSG_SHUTDOWN}
                ))
                await control.drain()
                assert (await recv())["type"] == protocol.MSG_DRAIN
                await asyncio.wait_for(server.serve_until_shutdown(), 10)
                for stream in (writer, control):
                    stream.close()
            finally:
                await server.stop()

        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(scenario(os.path.join(tmp, "s.sock")))
        assert [line["type"] for line in lines] == [
            protocol.MSG_REGISTERED, protocol.MSG_JOB, protocol.MSG_DRAIN,
        ]
        assert scheduler.campaigns["c1-held"].counts == {"ok": 1}

    def test_worker_of_another_protocol_version_is_refused(self):
        scheduler = ClusterScheduler()

        async def scenario(path: str) -> tuple[dict, bytes]:
            server = SchedulerServer(scheduler, Endpoint(kind="unix", path=path))
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(protocol.encode_message({
                    "type": protocol.MSG_REGISTER, "worker_id": "old",
                    "protocol": protocol.PROTOCOL_VERSION - 1,
                }))
                await writer.drain()
                reply = protocol.decode_message(
                    await asyncio.wait_for(reader.readline(), timeout=10)
                )
                tail = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return reply, tail
            finally:
                await server.stop()

        with tempfile.TemporaryDirectory() as tmp:
            reply, tail = asyncio.run(scenario(os.path.join(tmp, "s.sock")))
        assert reply["type"] == protocol.MSG_ERROR
        assert "protocol 1" in reply["error"]
        assert tail == b""
        assert "old" not in scheduler.workers
