"""The JSON that configs serialize to, pinned as literals.

Manifests, checkpoints and latent sidecars write these dictionaries, so a
change to any field name, order-independent value or nesting shows here.
"""

import json
from dataclasses import asdict

import numpy as np

from condvar import (
    LinearScmSpec,
    ModelSpec,
    OptimizerConfig,
    PenaltyConfig,
    TrainConfig,
    load_checkpoint,
    sample_linear_scm,
    save_checkpoint,
    save_latents,
)

TRAIN_CONFIG = TrainConfig(PenaltyConfig("loss", 0.5, 2.5, 1e-4),
                           OptimizerConfig("sgd", 0.05, 0.9), 64, 7, 3)
TRAIN_CONFIG_JSON = (
    '{"batch_size": 64, "epochs": 7, "optimizer": {"beta1": 0.9, "beta2": 0.999, '
    '"eps": 1e-08, "kind": "sgd", "lr": 0.05, "momentum": 0.9}, "penalty": '
    '{"gamma": 0.0001, "lam": 2.5, "nu": 0.5, "target": "loss"}, "seed": 3}'
)

MLP_SPEC = ModelSpec("mlp", (2, 16, 16, 1), "relu")
MLP_SPEC_JSON = '{"activation": "relu", "kind": "mlp", "layer_sizes": [2, 16, 16, 1]}'

SCM_SPEC = LinearScmSpec(p=6, q=2, r=3, id_count=40, id_sampler="round_robin",
                         style_class_mean=(1.0, -0.5),
                         style_cov=((1.0, 0.3), (0.3, 2.0)), structure_seed=4)
SCM_SPEC_JSON = (
    '{"class_balance": 0.5, "core_class_mean": 1.5, "core_id_scale": 0.25, '
    '"id_count": 40, "id_sampler": "round_robin", "p": 6, "q": 2, "r": 3, '
    '"structure_seed": 4, "style_class_mean": [1.0, -0.5], '
    '"style_cov": [[1.0, 0.3], [0.3, 2.0]]}'
)


def test_config_fields_serialize_to_pinned_json():
    for config, want in ((TRAIN_CONFIG, TRAIN_CONFIG_JSON), (MLP_SPEC, MLP_SPEC_JSON),
                         (SCM_SPEC, SCM_SPEC_JSON)):
        assert json.dumps(asdict(config), sort_keys=True) == want


def test_written_files_carry_pinned_specs(tmp_path):
    save_checkpoint(tmp_path / "ck.json", MLP_SPEC, np.zeros(337), 0, 0)
    payload = json.loads((tmp_path / "ck.json").read_text())
    assert json.dumps(payload["spec"], sort_keys=True) == MLP_SPEC_JSON
    assert load_checkpoint(tmp_path / "ck.json")[0] == MLP_SPEC

    style_ds = sample_linear_scm(SCM_SPEC, 20, 0)
    save_latents(style_ds, tmp_path / "lat.json")
    payload = json.loads((tmp_path / "lat.json").read_text())
    assert json.dumps(payload["scm"], sort_keys=True) == SCM_SPEC_JSON
    assert LinearScmSpec.from_dict(payload["scm"]) == SCM_SPEC
