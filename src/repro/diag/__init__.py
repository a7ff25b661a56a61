"""repro.diag — channel-quality diagnostics on top of repro.obs.

Four layers, all deterministic given their seeds:

* **leakage metering** (:mod:`repro.diag.leakage`) — per-gadget
  empirical mutual information and per-bit accuracy maps for the
  zlib/lzw/bzip2 survey gadgets, computed identically from live runs
  or stored ``.trc`` traces, rendered as Figs. 2-4-style ASCII
  heatmaps;
* **channel-health probes** (:mod:`repro.diag.channel`) — hit/miss
  timing-margin histograms (decision margin in σ), eviction-set
  quality versus the cache model's ground truth, single-step fidelity,
  and fingerprint confusion matrices;
* **oracle channel MI** (:mod:`repro.diag.oracle`) — per-character
  mutual information of the BREACH compression-ratio oracle, scored
  through the same plug-in MI core as the cache gadgets, open
  unmitigated and closed mitigated;
* **paper claims** (:mod:`repro.diag.claims`) — every experiment of
  the paper's evaluation, these diagnostics included, as measured
  values plus ``claim.*.holds`` verdict rows with their gate
  directions, and the pinned hot-path benches' metrics digests
  (``DIGEST``); ``repro diag compare``, the one behaviour gate, gates
  them with :mod:`repro.gate` against
  ``benchmarks/claims_baseline.json``.

Campaign workers publish these metrics through the obs sink
(``obs.publish_metrics``); ``repro obs watch`` renders them live and
the campaign dossier (``repro report``) derives their per-run
timeseries from the stored job records.
"""

from repro.diag.channel import (
    channel_health,
    eviction_quality,
    fingerprint_confusion,
    render_channel_health,
    render_timing_margins,
    single_step_fidelity,
    timing_margins,
)
from repro.diag.claims import metric_direction
from repro.diag.leakage import (
    GADGET_TARGETS,
    GadgetLeakage,
    leakage_from_lines,
    measure_gadget_from_store,
    measure_gadget_live,
    plugin_mutual_information,
    render_heatmap,
    render_leakage,
    render_survey_leakage,
    survey_leakage,
    survey_leakage_from_store,
)
from repro.diag.oracle import (
    ORACLE_MI_CHARSET,
    OracleChannelDiag,
    measure_oracle_channel,
)

__all__ = [
    "GADGET_TARGETS",
    "GadgetLeakage",
    "ORACLE_MI_CHARSET",
    "OracleChannelDiag",
    "channel_health",
    "eviction_quality",
    "fingerprint_confusion",
    "leakage_from_lines",
    "measure_gadget_from_store",
    "measure_gadget_live",
    "measure_oracle_channel",
    "metric_direction",
    "plugin_mutual_information",
    "render_channel_health",
    "render_heatmap",
    "render_leakage",
    "render_survey_leakage",
    "render_timing_margins",
    "single_step_fidelity",
    "survey_leakage",
    "survey_leakage_from_store",
    "timing_margins",
]
