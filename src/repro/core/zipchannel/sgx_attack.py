"""End-to-end Prime+Probe extraction from Bzip2 inside SGX (Section V).

The victim runs the histogram loop of Listing 3 over a secret buffer
inside a simulated enclave.  The attacker — playing the OS, as the SGX
threat model allows — combines:

1. mprotect single-stepping over quadrant/block/ftab (Fig. 5),
2. the architectural page leak from ftab write faults (Section V-B),
3. Prime+Probe over the faulting page's 64 cache lines, sharpened by
   Intel CAT way partitioning (Section V-C1) and frame selection
   (Section V-C2), and
4. the Section IV-D / V-D algebraic recovery with the
   consecutive-iteration redundancy as error correction,

to reconstruct the buffer.  The paper reports > 99 % of bits recovered
for 10 KB of random data in under 30 s; the SEC5E claim of
:mod:`repro.diag.claims` reproduces that row, and the ABL-CAT,
ABL-FRAME and MITIG claims re-run this attack with CAT or frame
selection disabled or the histogram mitigated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.cache.model import Cache, CacheConfig
from repro.cache.cat import CatController
from repro.cache.noise import BackgroundNoise, OsPollution
from repro.compression.bzip2.blocksort import FTAB_LEN, FTAB_MISALIGN, histogram
from repro.memsys.paging import PAGE_SIZE, AddressSpace, PageFault
from repro.recovery.bzip2_recover import (
    Observation,
    RecoveredBlock,
    recover_bzip2_block,
)
from repro.sgx.enclave import Enclave
from repro.sidechannel.frame_selection import FrameSelector
from repro.sidechannel.prime_probe import AttackerMemory, PrimeProbe
from repro.sidechannel.single_step import SingleStepper

LINES_PER_PAGE = PAGE_SIZE // 64


@dataclass
class AttackConfig:
    """Attack and environment knobs (ablation points in bold in the
    paper: CAT, frame selection)."""

    use_cat: bool = True
    use_frame_selection: bool = True
    background_noise_rate: int = 2
    os_pollution_lines: int = 48
    max_frame_remaps: int = 32
    cache: CacheConfig = field(default_factory=CacheConfig)
    attacker_pool_lines: int = 1 << 17


@dataclass
class AttackOutcome:
    """What the attack recovered, and at what cost."""

    recovered: RecoveredBlock
    bit_accuracy: float
    byte_accuracy: float
    elapsed_seconds: float
    faults: int
    victim_accesses: int
    frame_remaps: int
    observations_empty: int
    observations_ambiguous: int

    def summary(self) -> str:
        return (
            f"SGX ZipChannel attack: bit accuracy {self.bit_accuracy * 100:.2f}%, "
            f"byte accuracy {self.byte_accuracy * 100:.2f}%, "
            f"{self.elapsed_seconds:.2f}s, {self.faults} faults, "
            f"{self.frame_remaps} frame remaps"
        )

    def to_dict(self) -> dict:
        """Picklable/JSON-ready metrics (drops the recovered buffer
        itself — campaigns aggregate accuracies, not plaintexts)."""
        return {
            "bit_accuracy": self.bit_accuracy,
            "byte_accuracy": self.byte_accuracy,
            "elapsed_seconds": self.elapsed_seconds,
            "faults": self.faults,
            "victim_accesses": self.victim_accesses,
            "frame_remaps": self.frame_remaps,
            "observations_empty": self.observations_empty,
            "observations_ambiguous": self.observations_ambiguous,
        }


class SgxBzip2Attack:
    """One attack instance over one secret buffer."""

    def __init__(
        self,
        secret: bytes,
        config: Optional[AttackConfig] = None,
        victim_histogram=histogram,
    ) -> None:
        """``victim_histogram`` selects the victim kernel, called as
        ``victim_histogram(enclave, block, n, ftab=ftab, quadrant=quadrant)``: the
        default is the vulnerable Listing 3 loop; :func:`run_attack`
        with ``mitigated`` runs that same loop over an
        :class:`~repro.mitigations.ObliviousTable` ``ftab`` to evaluate
        the Section VIII mitigation under the same attack."""
        if not secret:
            raise ValueError("need a non-empty secret buffer")
        self.secret = secret
        self.config = config or AttackConfig()
        self.victim_histogram = victim_histogram
        cfg = self.config

        self.cache = Cache(cfg.cache)
        self.cat = CatController(self.cache)
        if cfg.use_cat:
            self.cat.partition_for_attack(attack_cos=0, other_cos=1)
            self.prime_ways = 1
        else:
            self.cat.reset()
            self.cache.cos_masks[1] = tuple(range(cfg.cache.ways))
            self.prime_ways = cfg.cache.ways

        self.noise = BackgroundNoise(
            self.cache, rate=cfg.background_noise_rate, cos=1
        )
        self.pollution = OsPollution(
            self.cache, n_lines=cfg.os_pollution_lines, cos=0
        )

        self.space = AddressSpace()
        self.enclave = Enclave(
            self.space,
            self.cache,
            cos=0,
            env_hook=lambda paddr, kind: self.noise.step(),
        )

        n = len(secret)
        self.block = self.enclave.array("block", n, elem_size=1)
        self.block.load(list(secret))
        self.quadrant = self.enclave.array("quadrant", n, elem_size=2)
        self.ftab = self.enclave.array(
            "ftab", FTAB_LEN, elem_size=4, misalign=FTAB_MISALIGN
        )

        self.attacker_memory = AttackerMemory(
            self.cache, n_lines=cfg.attacker_pool_lines
        )
        self.pp = PrimeProbe(
            self.cache, self.attacker_memory, cos=0, ways=self.prime_ways
        )
        self.frames = FrameSelector(
            self.space,
            self.cache,
            self.pp,
            transition=self.pollution.fault_entry,
            max_remaps=cfg.max_frame_remaps,
            enabled=cfg.use_frame_selection,
        )

        self.stepper = SingleStepper(
            self.space,
            self.quadrant,
            self.block,
            self.ftab,
            before_ftab_access=self._on_ftab_fault,
            probe_point=self._probe_point,
        )

        self._current_page: Optional[int] = None
        self._observations: list[list[int]] = []  # per ftab access, in step order

    # -- attacker callbacks ----------------------------------------------
    def _on_ftab_fault(self, page_vaddr: int) -> None:
        """S2: know the page; vet its frame; prime its 64 locations."""
        vetted = self.frames.vet(page_vaddr)
        self.pp.prime(vetted.locations)
        self._current_page = page_vaddr

    def _probe_point(self) -> None:
        """S4->S0 of the next iteration: measure the previous access."""
        if self._current_page is None:
            return
        vetted = self.frames.vet(self._current_page)
        missed = self.pp.probe(vetted.locations) - vetted.noisy
        first = self._current_page >> 6  # the page's first line
        offsets = vetted.offsets
        lines = sorted(first + k for loc in missed for k in offsets[loc])
        self._observations.append(lines)
        self._current_page = None

    def _handle_fault(self, fault: PageFault) -> None:
        """Fault delivery: the OS/SGX transition cost lands first."""
        self.pollution.fault_entry()
        self.stepper.handle_fault(fault)

    # -- the attack --------------------------------------------------------
    def run(self) -> AttackOutcome:
        start = time.perf_counter()
        n = len(self.secret)

        with obs.span(
            "attack.sgx",
            secret_bytes=n,
            use_cat=self.config.use_cat,
            use_frame_selection=self.config.use_frame_selection,
        ):
            self.enclave.fault_handler = self._handle_fault
            self.stepper.arm()
            self.victim_histogram(
                self.enclave, self.block, n,
                ftab=self.ftab, quadrant=self.quadrant,
            )
            self._probe_point()  # the last iteration's access
            self.stepper.disarm()
            self.enclave.fault_handler = None

        # Map step order (i = n-1 .. 0) onto per-index observations.
        per_index: list[Observation] = [None] * n
        for step, lines in enumerate(self._observations):
            i = n - 1 - step
            if 0 <= i < n:
                per_index[i] = lines

        recovered = recover_bzip2_block(per_index, self.ftab.base, n)
        elapsed = time.perf_counter() - start

        self.cache.publish_stats()
        obs.counter_add("attack.sgx.faults", self.space.fault_count)
        obs.counter_add("attack.sgx.victim_accesses", self.enclave.access_count)

        remaps = sum(v.remaps for v in self.frames._vetted.values())
        return AttackOutcome(
            recovered=recovered,
            bit_accuracy=recovered.bit_accuracy(self.secret),
            byte_accuracy=recovered.byte_accuracy(self.secret),
            elapsed_seconds=elapsed,
            faults=self.space.fault_count,
            victim_accesses=self.enclave.access_count,
            frame_remaps=remaps,
            observations_empty=sum(1 for o in per_index if not o),
            observations_ambiguous=sum(
                1 for o in per_index if o and len(o) > 1
            ),
        )


def run_attack(
    secret: bytes,
    config: Optional[AttackConfig] = None,
    mitigated: bool = False,
) -> AttackOutcome:
    """Run the extraction once against the vulnerable victim or, with
    ``mitigated``, against the Section VIII defence: the same Listing 3
    loop over an oblivious ``ftab`` that scans every line per
    increment."""
    if not mitigated:
        return SgxBzip2Attack(secret, config).run()
    from repro.mitigations import ObliviousTable

    def oblivious_victim(ctx, block, nblock, ftab, quadrant):
        histogram(
            ctx, block, nblock, ftab=ObliviousTable(ftab), quadrant=quadrant
        )

    return SgxBzip2Attack(
        secret, config, victim_histogram=oblivious_victim
    ).run()


def run_extraction_experiment(
    size: int,
    seed: int,
    noise: int = 2,
    use_cat: bool = True,
    use_frame_selection: bool = True,
    mitigated: bool = False,
    secret_seed: int | None = None,
) -> dict:
    """One campaign-runnable Section V attack: build a random secret,
    run the extraction, return picklable metrics.

    ``seed`` seeds the secret unless ``secret_seed`` pins it (ablation
    grids attack the *same* buffer across cells so the only variable is
    the technique under test).
    """
    from repro.workloads import random_bytes

    secret = random_bytes(size, seed=secret_seed if secret_seed is not None else seed)
    config = AttackConfig(
        use_cat=use_cat,
        use_frame_selection=use_frame_selection,
        background_noise_rate=noise,
    )
    return run_attack(secret, config, mitigated).to_dict()
