"""Layer-wise gradient standardization around pluggable host optimizers.

The package provides blocked parameter vectors, the centralize/normalize
gradient transform, SGD/AdamW/AdaBelief hosts with LookAhead and
softplus calibration, toy landscapes with a finite-difference oracle,
executable escape/convergence checks, and a CLI harness.
"""

import importlib

# the exported names by defining module; ``__getattr__`` imports a name's
# module on its first access, so ``import singopt`` compiles no submodule
_EXPORTS = {
    "blocked": ("BlockedVector", "BlockPartition", "from_blocks", "zeros"),
    "landscapes": (
        "BlobsDataset",
        "GaussianWells1D",
        "Landscape",
        "MlpTask",
        "Quadratic",
        "Rosenbrock",
        "Well",
        "fd_gradient",
        "make_blobs",
    ),
    "optimizers": (
        "ConfigError",
        "HostOptimizerConfig",
        "LookAheadConfig",
        "OptimizerState",
        "Schedule",
        "SingPipelineConfig",
        "apply_weight_decay",
        "host_update",
        "lookahead_step",
        "lr_at",
        "softplus",
        "step",
    ),
    "standardize": ("StandardizeConfig", "ZeroGradientBlockError", "centralize", "gamma", "sing_transform"),
    "theory": (
        "AuditResult",
        "ConvergenceRecipe",
        "EscapeThresholds",
        "convergence_audit",
        "escape_thresholds",
        "estimate_basin_radius",
        "phi_pseudo_norm",
        "single_step_escape_check",
        "structured_phi_norm",
    ),
    "trace": ("RunTrace",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """Import the module that defines an exported ``name`` and bind it here (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
