"""Dominant eigenpairs of essentially nonnegative tensors.

A library and CLI that computes the largest real eigenvalue and the positive
unit eigenvector of a dense essentially nonnegative tensor by Euler-Newton
homotopy continuation, with a power-type baseline for cross-validation.
"""

from .bench import run_comparison, summarize
from .homotopy import (
    HomotopyConfig,
    NewtonStalled,
    PathState,
    PositivityLost,
    SolveReport,
    endgame,
    homotopy_jacobian,
    homotopy_residual,
    newton_correct,
    predict,
    solve_dominant,
    tau_derivative,
    update_step_size,
)
from .instances import dense_demo, random_instance, sparse_ring_demo
from .linalg import LuFactorization, SingularMatrixError, lu_factor, lu_solve
from .pta import convergence_rate_estimate, pta_solve
from .tensor import (
    EigenPair,
    EssentialNonnegativityError,
    RankOne,
    ShiftedTensor,
    Tensor,
    add_identity,
    alpha_shift,
    diagonal,
    eigen_residual,
    is_essentially_nonnegative,
    perturb,
    power_vector,
    rank_one_start,
    semi_symmetrize,
    shift_alpha,
    start_pair,
    start_system,
    tvp,
    tvp_jacobian,
    unit_tensor,
    weak_irreducibility_check,
)
from .tensorfile import TensorFileError, load_tensor, save_tensor

__version__ = "0.1.0"
