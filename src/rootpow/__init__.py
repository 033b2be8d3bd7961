"""rootpow: a self-inverting power transform and the families it generates.

One shape parameter ranging over the extended reals drives everything.
Each layer is one submodule, and every public name is bound here, so
``import rootpow as rp`` is the one import a user needs:

- ``core``: ``transform`` / ``inverse`` / ``derivative``, the stable
  evaluators (flipping the parameter's sign inverts the transform
  exactly), and the branch plan they share.
- ``families``: ``loss`` and ``kernel``, robust penalties and the matching
  stationary kernels, which double as IRLS weights; ``signed_transform``
  and the activation reconstructions ``softplus``, ``sigmoid``, ``tanh``,
  ``relu``; ``bump``, compactly supported bumps on (-1, 1); ``boxcox`` and
  the exact two-way bridge to the Box-Cox convention.
- ``distribution``: ``pdf`` / ``partition_function`` / ``ZTable``, the
  normalized density family with a tanh-sinh normalizer in u = log1p(x)
  on plain floats, and a persisted table of its values at grid nodes.
- ``irls``: ``fit_location``, IRLS location estimation with descent
  guarantees.
- ``accuracy``: ``error_sweep`` / ``oracle_transform``, the naive-vs-stable
  accuracy harness against a wide-float oracle.

The core, family and density evaluators take a float or an ndarray.  The
``rootpow`` CLI (``cli``) exposes grid evaluation, accuracy sweeps, table
building, and IRLS fitting with deterministic output.
"""

from importlib import import_module

__version__ = "0.1.0"

# irls needs numpy at import, and accuracy decimal (~1 ms), so each loads on
# the first use of one of its names, listed here; the others load now.
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


__all__ = sorted([
    *_LAZY, *(name for module in ("core", "families", "distribution") for name in _bind(module))
])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
