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
- ``bump``: compactly supported bumps on (-1, 1).
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

# irls and accuracy need numpy at import, so each loads on the first use of
# one of its names, listed here; the other submodules load now.
_LAZY = dict.fromkeys((
    "IrlsProblem", "IrlsResult", "fit_location", "irls_step", "loss_objective",
    "objective_gradient",
), "irls") | dict.fromkeys((
    "AccuracyReport", "AccuracyRow", "default_lambda_grid", "error_sweep",
    "oracle_transform", "report_to_csv",
), "accuracy")


def _bind(module: str) -> list[str]:
    """Import a submodule and bind its public names here; returns them."""
    source = import_module(f".{module}", __name__)
    globals().update((name, getattr(source, name)) for name in source.__all__)
    return source.__all__


# loss, kernel, bump and boxcox each name a module and a function, and the
# first import of a submodule binds the package attribute to the module, so
# each is imported before its function is bound over it.
__all__ = sorted([*_LAZY, *(
    name
    for module in ("core", "loss", "kernel", "signed", "bump", "boxcox", "distribution")
    for name in _bind(module)
)])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
