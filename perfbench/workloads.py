"""The benchmark's workloads: one fold of the paper's protocol at two
input shapes. Every input and every training seed derives from the
workload seed, so one seed always yields the same corpus, split and
initial parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from stepalign.classifier import ClassifierTrainConfig
from stepalign.model import TrainConfig
from stepalign.synth import SynthConfig

NUM_FOLDS = 5
FOLD_ID = 0


@dataclass(frozen=True)
class Workload:
    name: str
    synth: SynthConfig
    split_seed: int
    align: TrainConfig
    detect: ClassifierTrainConfig
    folds_per_run: int      # fold repetitions; stage times are medians
    setups_per_fold: int    # set-ups before each fold; setup_s is the median
    # (phase span, module span) whose self time should lead that phase
    claim: tuple[str, str]


_SHAPES = {
    "paper-fold": dict(
        synth=SynthConfig(),
        align=TrainConfig(),
        detect=ClassifierTrainConfig(),
        folds_per_run=4,
        setups_per_fold=2,
        claim=("bench.train_align", "model.batch_loss_and_grads"),
    ),
    "long-video": dict(
        synth=SynthConfig(steps_per_task=12, frames_per_step=(90, 130)),
        align=TrainConfig(epochs=3),
        detect=ClassifierTrainConfig(epochs=200),
        folds_per_run=6,
        setups_per_fold=1,
        claim=("bench.infer", "alignment.drop_dtw"),
    ),
}

WORKLOAD_NAMES = tuple(_SHAPES)


def make_workload(name: str, seed: int) -> Workload:
    """The named workload with synth, split and training seeds drawn from
    ``seed``."""
    if name not in _SHAPES:
        raise KeyError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    shape = _SHAPES[name]
    synth_seed, split_seed, align_seed, detect_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4))
    return Workload(
        name=name,
        synth=replace(shape["synth"], seed=synth_seed),
        split_seed=split_seed,
        align=replace(shape["align"], seed=align_seed),
        detect=replace(shape["detect"], seed=detect_seed),
        folds_per_run=shape["folds_per_run"],
        setups_per_fold=shape["setups_per_fold"],
        claim=shape["claim"],
    )
