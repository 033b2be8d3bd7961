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

from .accuracy import (
    AccuracyReport,
    AccuracyRow,
    default_lambda_grid,
    error_sweep,
    oracle_transform,
    report_to_csv,
)
from .boxcox import (
    boxcox,
    boxcox_normalized,
    boxcox_via_transform,
    transform_via_boxcox,
)
from .bump import bump, bump_classic
from .core import (
    Branch,
    BranchPlan,
    UnsupportedBranchError,
    branch_plan,
    classify,
    derivative,
    inverse,
    max_domain,
    parse_lambda,
    render_lambda,
    transform,
    transform_naive,
)
from .distribution import (
    DEFAULT_GRID_SIZE,
    DEFAULT_NUM_POINTS,
    ZTable,
    build_table,
    partition_function,
    pdf,
    support_halfwidth,
)
from .irls import (
    IrlsProblem,
    IrlsResult,
    fit_location,
    irls_step,
    loss_objective,
    objective_gradient,
)
from .kernel import KERNEL_REFERENCE_LAMBDAS, irls_weight, kernel, kernel_reference
from .loss import LOSS_REFERENCE_LAMBDAS, loss, loss_reference
from .signed import elu_reference, relu, sigmoid, signed_transform, softplus, tanh

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AccuracyRow",
    "Branch",
    "BranchPlan",
    "DEFAULT_GRID_SIZE",
    "DEFAULT_NUM_POINTS",
    "IrlsProblem",
    "IrlsResult",
    "KERNEL_REFERENCE_LAMBDAS",
    "LOSS_REFERENCE_LAMBDAS",
    "UnsupportedBranchError",
    "ZTable",
    "boxcox",
    "boxcox_normalized",
    "boxcox_via_transform",
    "branch_plan",
    "build_table",
    "bump",
    "bump_classic",
    "classify",
    "default_lambda_grid",
    "derivative",
    "elu_reference",
    "error_sweep",
    "fit_location",
    "inverse",
    "irls_step",
    "irls_weight",
    "kernel",
    "kernel_reference",
    "loss",
    "loss_objective",
    "loss_reference",
    "max_domain",
    "objective_gradient",
    "oracle_transform",
    "parse_lambda",
    "partition_function",
    "pdf",
    "relu",
    "render_lambda",
    "report_to_csv",
    "sigmoid",
    "signed_transform",
    "softplus",
    "support_halfwidth",
    "tanh",
    "transform",
    "transform_naive",
    "transform_via_boxcox",
]
