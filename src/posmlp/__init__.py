"""Positional gated-MLP vision models on a small numpy autodiff core."""

__version__ = "0.1.0"

_LAZY = {
    "Tensor": "tensor", "backward": "tensor", "set_checked": "tensor",
    "gradcheck": "gradcheck", "gradcheck_directional": "gradcheck",
    "DisplacementGrid": "positional", "LrpeTable": "positional",
    "GqpeParams": "positional", "CovarianceForm": "positional",
    "GatingConfig": "gating", "GatingKind": "gating", "GatingUnit": "gating",
    "Combine": "gating",
    "ModelConfig": "model", "variant_config": "model", "build_model": "model",
    "save_checkpoint": "model", "load_checkpoint": "model",
    "analytic_params": "complexity", "analytic_flops": "complexity",
    "count_params": "complexity", "estimate_flops": "complexity",
    "non_locality": "analysis", "model_non_locality": "analysis",
    "SyntheticDataset": "training", "TrainConfig": "training",
    "train_loop": "training", "evaluate": "training",
}


def __getattr__(name):
    # Re-exports resolve lazily so the CLI can cap numpy's thread pools
    # (POSMLP_THREADS) before numpy is first imported.
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_LAZY))
