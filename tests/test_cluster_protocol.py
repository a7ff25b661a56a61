"""Typed checks of worker -> scheduler messages.

A malformed message is a :class:`ProtocolError` at the wire: the
scheduler drops the connection, which charges the worker's leases,
instead of letting a bad field raise inside the scheduler.
"""

import asyncio

import pytest

from repro import obs
from repro.campaign import CampaignSpec, register_experiment
from repro.cluster import ClusterScheduler, Endpoint, SchedulerServer, protocol
from repro.cluster.protocol import ProtocolError, check_worker_message


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
