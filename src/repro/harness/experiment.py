"""Experiment runner: build fresh systems, stream batches, merge outcomes.

Scaling note (see DESIGN.md §1): the paper runs 1M-request batches against
2^23–2^26-key trees on a 108-SM A100. This reproduction scales every axis
together — default 2^13-request batches against 2^13–2^16-key trees on an
8-SM device — preserving the ratios that drive the effects (requests per
leaf, request groups per SM, update fraction). Paper-scale absolute numbers
are therefore not comparable; speedups and shapes are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines.base import BatchOutcome, System, merge_outcomes
from ..config import DeviceConfig, EireneConfig, TreeConfig
from ..factory import EIRENE_VARIANTS, make_system
from ..lincheck import SequentialReference, check_linearizable
from ..workloads import PAPER_DEFAULT, YcsbMix, YcsbWorkload, build_key_pool

#: systems of the paper's evaluation, in figure order
SYSTEMS = ("nocc", "stm", "lock", "eirene")
SYSTEM_LABELS = {
    "nocc": "GB-tree w/o concurrent control",
    "stm": "STM GB-tree",
    "lock": "Lock GB-tree",
    "eirene": "Eirene",
    "eirene+combining": "+ Combining",
    "eirene-no-locality": "Eirene (no locality)",
    "eirene-no-rf": "Eirene (no RF decision)",
    "eirene-no-ntg": "Eirene (no NTG search)",
    "eirene-no-partition": "Eirene (unified kernel)",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's knobs (paper §8.1 defaults, scaled)."""

    tree_size: int = 2**14
    batch_size: int = 2**13
    n_batches: int = 3
    fanout: int = 32
    num_sms: int = 8
    mix: YcsbMix = field(default_factory=lambda: PAPER_DEFAULT)
    distribution: str = "uniform"
    engine: str = "vector"
    seed: int = 7
    fill_factor: float = 0.7
    check_linearizability: bool = False

    def with_(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    @property
    def device(self) -> DeviceConfig:
        return DeviceConfig(num_sms=self.num_sms)

    @property
    def tree_config(self) -> TreeConfig:
        return TreeConfig(fanout=self.fanout)


@dataclass
class SystemRun:
    """Merged measurement of one system over an experiment's batches."""

    system: str
    label: str
    outcome: BatchOutcome
    #: per-batch average response times (across-run QoS variance source)
    batch_avg_response_s: list[float]
    linearizable: bool | None = None

    @property
    def qos_variance(self) -> float:
        """The paper's QoS metric: worst deviation of a run's average
        response time from the mean of all runs."""
        a = np.asarray(self.batch_avg_response_s)
        if a.size == 0 or a.mean() <= 0:
            return 0.0
        m = a.mean()
        return float(max((a.max() - m) / m, (m - a.min()) / m))


def run_system(
    system: str,
    cfg: ExperimentConfig,
    eirene_config: EireneConfig | None = None,
) -> SystemRun:
    """Build a fresh tree for ``system`` and stream the experiment at it.

    ``system`` may be any Eirene variant name from
    :data:`repro.factory.EIRENE_VARIANTS` — the factory resolves it to the
    pass selection; an explicit ``eirene_config`` overrides the variant's.
    """
    rng = np.random.default_rng(cfg.seed)
    keys, values = build_key_pool(cfg.tree_size, rng)
    kwargs = {}
    name = system
    if system.startswith("eirene"):
        if eirene_config is not None:
            kwargs["config"] = eirene_config
        if name not in EIRENE_VARIANTS:
            name = "eirene"
    sys_ = make_system(
        name, keys, values,
        tree_config=cfg.tree_config,
        device=cfg.device,
        fill_factor=cfg.fill_factor,
        **kwargs,
    )
    wl = YcsbWorkload(pool=keys, mix=cfg.mix, distribution=cfg.distribution)
    ref = SequentialReference(keys, values) if cfg.check_linearizability else None

    outcomes: list[BatchOutcome] = []
    batch_avgs: list[float] = []
    linearizable: bool | None = None
    for _ in range(cfg.n_batches):
        batch = wl.generate(cfg.batch_size, rng)
        expected = ref.execute(batch) if ref is not None else None
        out = sys_.process_batch(batch, engine=cfg.engine)
        outcomes.append(out)
        batch_avgs.append(out.seconds / batch.n)
        if expected is not None:
            rep = check_linearizable(batch, out.results, expected)
            ok = rep.ok
            linearizable = ok if linearizable is None else (linearizable and ok)
    sys_.tree.validate()
    return SystemRun(
        system=system,
        label=SYSTEM_LABELS.get(system, system),
        outcome=merge_outcomes(outcomes),
        batch_avg_response_s=batch_avgs,
        linearizable=linearizable,
    )


def run_all(
    systems: tuple[str, ...],
    cfg: ExperimentConfig,
    eirene_configs: dict[str, EireneConfig] | None = None,
) -> dict[str, SystemRun]:
    """Run several systems on identical workloads (same seed ⇒ same batches)."""
    eirene_configs = eirene_configs or {}
    return {
        s: run_system(s, cfg, eirene_configs.get(s)) for s in systems
    }
