"""Shadow-adaptive adversarial attacks and evaluation for differentiable
shadow-removal models, self-contained at desk scale."""

from .attack import (AttackConfig, AttackResult, BudgetBox, budget_box,
                     equivalent_uniform_budget, init_delta, pgd_attack,
                     verify_l1_bound)
from .imagecore import (Image, ShadowMask, load_mask, load_pnm, mean_intensity,
                        save_pnm)
from .metrics import (normalized_perturbation_map, perturbation_norms, psnr,
                      ssim)
from .models import (GainMapModel, IdentityModel, load_params, model_tinycnn,
                     save_params, train_toy)
from .synthdata import SynthConfig, Triplet, gen_dataset, gen_triplet, load_triplet_dir

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackResult", "BudgetBox", "GainMapModel",
    "IdentityModel", "Image", "ShadowMask", "SynthConfig", "Triplet",
    "budget_box", "equivalent_uniform_budget", "gen_dataset", "gen_triplet",
    "init_delta", "load_mask", "load_params", "load_pnm", "load_triplet_dir",
    "mean_intensity", "model_tinycnn", "normalized_perturbation_map",
    "perturbation_norms", "pgd_attack", "psnr", "save_params", "save_pnm",
    "ssim", "train_toy", "verify_l1_bound",
]
