"""Dominant eigenpairs of essentially nonnegative tensors.

A library and CLI that computes the largest real eigenvalue and the positive
unit eigenvector of a dense essentially nonnegative tensor by Euler-Newton
homotopy continuation, with a power-type baseline for cross-validation.
"""

from .bench import run_comparison, summarize
from .homotopy import (
    HomotopyConfig,
    NewtonStalled,
    PositivityLost,
    SolveReport,
    solve_dominant,
)
from .instances import dense_demo, random_instance, sparse_ring_demo
from .linalg import SingularMatrixError
from .pta import convergence_rate_estimate, pta_solve
from .tensor import (
    EigenPair,
    EssentialNonnegativityError,
    RankOne,
    ShiftedTensor,
    Tensor,
    eigen_residual,
    require_essentially_nonnegative,
    start_pair,
    start_system,
    tvp,
    weak_irreducibility_check,
)
from .tensorfile import TensorFileError, load_tensor, save_tensor

__version__ = "0.1.0"
