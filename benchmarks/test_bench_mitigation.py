"""MITIG: the Section VIII defence, implemented and costed.

The paper's mitigation discussion proposes constant-time compression;
this bench runs the full Section V attack against the oblivious-access
histogram and measures both the security win (recovery collapses to
noise) and the honest cost (orders of magnitude more memory traffic —
why such defences are not deployed and "disabling compression ... is
the only known complete defense").
"""

from repro.core.zipchannel import AttackConfig, run_attack
from repro.workloads import random_bytes

SECRET = random_bytes(200, seed=44)


def run_pair():
    vulnerable = run_attack(SECRET, AttackConfig())
    hardened = run_attack(SECRET, AttackConfig(), mitigated=True)
    return vulnerable, hardened


def test_bench_mitigation(benchmark, experiment_report):
    vulnerable, hardened = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    overhead = hardened.victim_accesses / vulnerable.victim_accesses

    experiment_report(
        "Section VIII — constant-access (oblivious) histogram",
        [
            (
                "byte accuracy, vulnerable",
                "> 99% (Section V-E)",
                f"{vulnerable.byte_accuracy * 100:.1f}%",
            ),
            (
                "byte accuracy, mitigated",
                "defence goal: ~chance",
                f"{hardened.byte_accuracy * 100:.1f}%",
            ),
            (
                "bit accuracy, mitigated",
                "~50-75% (guessing + bias)",
                f"{hardened.bit_accuracy * 100:.1f}%",
            ),
            (
                "victim memory-access overhead",
                "large (why it's not deployed)",
                f"{overhead:,.0f}x",
            ),
        ],
    )

    assert vulnerable.byte_accuracy > 0.95
    assert hardened.byte_accuracy < 0.10
    assert overhead > 100
