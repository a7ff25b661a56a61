"""Shared test configuration.

Pins a hypothesis profile with no deadline (the traced/simulated runs
have high variance on shared CI machines) and a fixed derandomization
seed is deliberately NOT set — property tests should explore.

The ``claims`` fixture runs every paper claim (``repro.diag.claims``)
once per session; every test of the claims gate, the diagnostics rows
included, asserts against that one collection.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def claims():
    """Every claim's rows and verdicts, collected with obs off.  No row
    reads a clock (REPLAY counts victim runs, not seconds), so on one
    machine a second collection gives the same rows."""
    from repro import obs
    from repro.diag.claims import collect_claim_metrics

    obs.reset()
    return collect_claim_metrics()
