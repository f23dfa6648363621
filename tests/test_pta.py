import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from teneig import (
    HomotopyConfig,
    Tensor,
    convergence_rate_estimate,
    pta_solve,
    solve_dominant,
    start_pair,
    tvp,
    weak_irreducibility_check,
)
from teneig.instances import dense_demo, random_instance
from teneig.tensor import EssentialNonnegativityError, rank_one_start

from oracles import alpha_shift_dense, pta_dense, relative_bracket, unit_tensor_naive


def test_config_validation():
    # the three HomotopyConfig fields pta_solve reads reject bad values
    with pytest.raises(ValueError):
        HomotopyConfig(eps2=0.0)
    with pytest.raises(ValueError):
        HomotopyConfig(max_steps=0)
    with pytest.raises(ValueError):
        HomotopyConfig(eps_perturb=-1.0)


def test_pta_recovers_rank_one_perron_pair():
    a = b = np.ones(3)
    S = rank_one_start(a, b, 3)
    pair = start_pair(a, b, 3)
    rep = pta_solve(S)
    assert rep.status == "converged"
    # the alpha shift cancels exactly; only the eps perturbation biases lambda
    assert abs(rep.eigen.lam - pair.lam) <= 1e-6
    assert np.abs(rep.eigen.x - pair.x).max() <= 1e-6
    assert rep.perturbed and rep.nwtiter == 0


def test_pta_matches_homotopy_on_demo():
    rep_p = pta_solve(dense_demo())
    rep_h = solve_dominant(dense_demo())
    assert rep_p.status == rep_h.status == "converged"
    assert rep_p.eigen.lam == pytest.approx(36.2757, abs=1e-3)
    assert abs(rep_p.eigen.lam - rep_h.eigen.lam) <= 1e-6
    assert np.abs(rep_p.eigen.x - rep_h.eigen.x).max() <= 1e-6


def test_pta_agreement_on_random_instances():
    for seed in range(4):
        A = random_instance(3, 5, seed=seed)
        rp = pta_solve(A)
        rh = solve_dominant(A)
        assert rp.status == rh.status == "converged"
        assert abs(rp.eigen.lam - rh.eigen.lam) <= 1e-6
        assert np.abs(rp.eigen.x - rh.eigen.x).max() <= 1e-6


def test_pta_hits_iteration_cap_on_badly_scaled_instance():
    A = random_instance(3, 10, d=6, seed=0)
    rep = pta_solve(A)
    assert rep.status == "step_limit"
    assert rep.iter == 50000
    assert rep.residual_norm > 1e-10


def test_pta_iterates_stay_positive_and_normalized():
    rep = pta_solve(dense_demo())
    assert rep.path_min_x > 0.0
    assert abs(rep.eigen.x @ rep.eigen.x - 1.0) <= 1e-12


def test_pta_bracket_contains_perron_value():
    A = random_instance(3, 4, seed=5)
    rep = pta_solve(A)
    assert rep.status == "converged"
    rho = rep.lambda_shifted
    # replay the sweep on the same shifted tensor and check the bracket
    T = Tensor(alpha_shift_dense(A.data, HomotopyConfig().eps_perturb)[1])
    x = np.ones(4) / 2.0
    for _ in range(25):
        y = tvp(T, x)
        ratios = y / x**2
        assert ratios.min() <= rho + 1e-9
        assert ratios.max() >= rho - 1e-9
        x = np.sqrt(y)
        x /= np.linalg.norm(x)


def test_pta_validates_input():
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 1] = -1.0
    with pytest.raises(EssentialNonnegativityError):
        pta_solve(Tensor(bad))


def test_positivity_check_runs_under_python_O():
    # at scale 1e307 the first sweep overflows to a NaN iterate; the check
    # must stop it there also where python -O strips assert statements
    code = (
        "from teneig import Tensor, pta_solve; from teneig.instances import random_instance; "
        "pta_solve(Tensor(random_instance(3, 10, seed=1).data * 1e307))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-W", "ignore", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "AssertionError: iterate left the positive cone"


# --------------------------------------------------------- rate estimate


def test_rate_all_ones_tensor():
    T = Tensor(np.ones((2, 2, 2)))
    assert convergence_rate_estimate(T) == pytest.approx(0.75, abs=1e-15)


def test_rate_unit_tensor_is_one():
    assert convergence_rate_estimate(Tensor(unit_tensor_naive(3, 3))) == 1.0


def test_rate_scale_invariance():
    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 1.0, size=(4, 4, 4))
    base = convergence_rate_estimate(Tensor(data))
    for d in (1, 3, 6, 9):
        scaled = convergence_rate_estimate(Tensor(data * 10.0**-d))
        assert abs(scaled - base) <= 1e-12


def test_rate_domain_errors():
    with pytest.raises(ValueError):
        convergence_rate_estimate(Tensor(np.zeros((2, 2, 2))))
    neg = np.zeros((2, 2, 2))
    neg[0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        convergence_rate_estimate(Tensor(neg))


def test_rate_value_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(5):
        T = Tensor(rng.uniform(0.0, 2.0, size=(3, 3, 3)))
        r = convergence_rate_estimate(T)
        assert 0.0 <= r <= 1.0


# ------------------------------------------- against the dense-copy iteration


@pytest.mark.parametrize(
    "m, n, d, seed",
    [(3, 10, d, seed) for d in range(5) for seed in range(5)] + [(2, 12, 0, 3), (4, 6, 1, 4)],
)
def test_pta_matches_iteration_on_dense_copy(m, n, d, seed):
    # pta_solve evaluates T's shift and perturbation in closed form; the sweeps
    # must be those of the paper's iteration on T stored densely
    A = random_instance(m, n, d=d, seed=seed)
    cfg = HomotopyConfig()
    status, sweeps, lam, alpha, x = pta_dense(A.data, cfg.eps_perturb, cfg.eps2, cfg.max_steps)
    rep = pta_solve(A, cfg)
    assert (rep.status, rep.iter) == (status, sweeps)
    assert rep.alpha == alpha
    assert abs(rep.lambda_shifted - lam) <= 1e-12 * abs(lam)
    assert abs(rep.eigen.lam - (lam - alpha)) <= 1e-12 * abs(lam - alpha)
    assert np.abs(rep.eigen.x - x / np.linalg.norm(x)).max() <= 1e-12


def test_pta_holds_no_copy_of_the_input():
    A = random_instance(3, 60, seed=2)
    pta_solve(A)  # warm-up: imports and lazily made state
    tracemalloc.start()
    try:
        pta_solve(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * A.data.nbytes


def _sparse_roundtrip_tensor():
    """The benchmark's file_roundtrip coo(3,40) tensor at seed 33: about 1%
    of the entries uniform in [0, 1), a diagonal in [-1, 0)."""
    g = np.random.default_rng(np.random.SeedSequence([33, 3]).spawn(10)[8])
    n = 40
    data = np.where(g.random((n,) * 3) < 0.01, g.uniform(0.0, 1.0, (n,) * 3), 0.0)
    data[(np.arange(n),) * 3] = g.uniform(-1.0, 0.0, n)
    return Tensor(data)


def test_homotopy_certifies_the_sparse_roundtrip_tensor():
    A = _sparse_roundtrip_tensor()
    assert weak_irreducibility_check(A)
    rep = solve_dominant(A)
    assert rep.status == "converged" and not rep.perturbed
    assert relative_bracket(A.data, rep.eigen.lam, rep.eigen.x) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="PTA always iterates on A + eps, also on irreducible input; the eps "
    "term biases lambda by about 1.1e-6 relative here (ROADMAP item 17)",
)
def test_pta_certifies_the_sparse_roundtrip_tensor():
    A = _sparse_roundtrip_tensor()
    rep = pta_solve(A)
    assert rep.status == "converged"
    assert relative_bracket(A.data, rep.eigen.lam, rep.eigen.x) <= 1e-6
