"""rootpow: a self-inverting power transform and the families it generates.

One shape parameter ranging over the extended reals drives everything:

- ``transform`` / ``inverse`` / ``derivative``: the stable core evaluators
  (flipping the parameter's sign inverts the transform exactly).  These
  and the family evaluators below take a float or an ndarray.
- ``loss`` and ``kernel``: robust penalties and the matching stationary
  kernels, which double as IRLS weights.
- ``pdf`` / ``partition_function`` / ``ZTable``: the normalized density
  family with a Simpson normalizer on a uniform log1p grid and a persisted
  lookup table interpolated by a monotone cubic Hermite.
- ``bump`` / ``bump_classic``: compactly supported bumps on (-1, 1).
- ``signed_transform`` and the activation reconstructions ``softplus``,
  ``sigmoid``, ``tanh``, ``relu``.
- ``boxcox`` and the exact two-way bridge to the Box-Cox convention.
- ``fit_location``: IRLS location estimation with descent guarantees.
- ``error_sweep`` / ``oracle_transform``: the naive-vs-stable accuracy
  harness against a wide-float oracle.

The ``rootpow`` CLI exposes grid evaluation, accuracy sweeps, table
building, and IRLS fitting with deterministic output.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the submodule it comes from.
_PUBLIC = {
    "core": (
        "Branch", "BranchPlan", "UnsupportedBranchError", "branch_plan", "classify",
        "derivative", "inverse", "max_domain", "parse_lambda", "render_lambda",
        "transform", "transform_naive",
    ),
    "loss": ("LOSS_REFERENCE_LAMBDAS", "loss", "loss_reference"),
    "kernel": ("KERNEL_REFERENCE_LAMBDAS", "irls_weight", "kernel", "kernel_reference"),
    "signed": ("elu_reference", "relu", "sigmoid", "signed_transform", "softplus", "tanh"),
    "bump": ("bump", "bump_classic"),
    "boxcox": ("boxcox", "boxcox_normalized", "boxcox_via_transform", "transform_via_boxcox"),
    "distribution": (
        "DEFAULT_GRID_SIZE", "DEFAULT_NUM_POINTS", "ZTable", "build_table",
        "partition_function", "pdf", "support_halfwidth",
    ),
    "irls": (
        "IrlsProblem", "IrlsResult", "fit_location", "irls_step", "loss_objective",
        "objective_gradient",
    ),
    "accuracy": (
        "AccuracyReport", "AccuracyRow", "default_lambda_grid", "error_sweep",
        "oracle_transform", "report_to_csv",
    ),
}
# irls and accuracy need numpy at import, so each loads on the first use of
# one of its names.
_LAZY = {name: mod for mod in ("irls", "accuracy") for name in _PUBLIC[mod]}

__all__ = sorted(name for names in _PUBLIC.values() for name in names)


def _bind(*modules: str) -> None:
    for module in modules:
        source = import_module(f".{module}", __name__)
        globals().update((name, getattr(source, name)) for name in _PUBLIC[module])


# The rest load now.  loss, kernel, bump and boxcox each name a module and a
# function, and the first import of a submodule binds the package attribute
# to the module, so each is imported before its function is bound over it.
_bind("core", "loss", "kernel", "signed", "bump", "boxcox", "distribution")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
