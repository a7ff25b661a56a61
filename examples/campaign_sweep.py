"""Demo: a fault-tolerant, resumable campaign over the LZW recovery.

Sweeps channel noise × input size over the Section IV-C Ncompress
recovery (24 jobs: 4 noise levels × 3 sizes × 2 trials).  The same
campaign is what
``python -m repro campaign run examples/specs/lzw_noise_sweep.json``
runs: :func:`repro.cluster.run_cluster` forks a local fleet of worker
processes, here driven from the Python API, then we print the report.

Interrupt it and run again — completed jobs are skipped on resume.
To watch the retry machinery survive deliberately injected failures,
run ``specs/lzw_fault_drill.json`` instead (pass ``--drill``).
"""

import pathlib
import sys

from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    ResultStore,
    render_report,
)
from repro.cluster import run_cluster

SPECS = pathlib.Path(__file__).parent / "specs"


def main() -> int:
    name = (
        "lzw_fault_drill.json"
        if "--drill" in sys.argv[1:]
        else "lzw_noise_sweep.json"
    )
    spec = CampaignSpec.from_json_file(SPECS / name)
    store = ResultStore(f"runs/{spec.name}")
    outcome = run_cluster(
        spec, store.root, workers=4, resume=store.exists(), on_event=print
    )
    print()
    print(CampaignResult.from_outcome(outcome).summary())
    print()
    print(render_report(store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
