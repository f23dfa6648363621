"""The benchmark's inputs: seeded tensors for each workload.

Every tensor comes from ``--seed`` through numpy's SeedSequence, so one seed
always gives the same inputs.  ``teneig.instances`` is used only as a
generator; the solver sees nothing but the finished ``Tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("large_dense", "scaled_small", "file_roundtrip")

SCALED_CELLS = ((2, 50), (3, 10), (4, 10), (6, 5))
# Every operation of a workload must pass the answer check, so the scales stop
# below the first one at which a seeded instance fails it (d = 10 at the
# commit that introduced this benchmark; d <= 9 passed on every seed tried).
SCALES = (0, 2, 4, 6, 8)

# Known defects (ROADMAP item 3: absolute tolerances and the eps-perturbation
# bias).  They are kept out of the timed workloads and run once per
# scaled_small run by known_defects(), which reports them apart.
TINY_SCALE = "item-3: absolute tolerances cannot resolve lambda at scale 1e-%d"
LOG_UNIFORM = "item-3: absolute tolerances on a 1e-13..1e13 dynamic range"
PTA_BIAS = "item-3: eps*n^(m-1) perturbation bias and absolute tolerance at scale 1e-%d"


@dataclass
class Case:
    label: str
    tensor: object  # teneig.Tensor
    kinds: tuple  # operations run on it: "solve", "pta", "roundtrip"
    fmt: str = "dense"
    defect: str | None = None  # set on known_defects() cases only
    blocks: tuple | None = None  # diagonal blocks of a reducible tensor
    refs: list | None = None  # their certified brackets, filled by the runner


def _block_diagonal(teneig, order, sizes, scales, seed):
    n = sum(sizes)
    data = np.zeros((n,) * order)
    blocks = []
    at = 0
    for size, scale, s in zip(sizes, scales, seed.spawn(len(sizes))):
        block = teneig.random_instance(order, size, seed=_int(s)).data * scale
        data[(slice(at, at + size),) * order] = block
        blocks.append((at, at + size))
        at += size
    return data, tuple(blocks)


def _int(seed_seq):
    return int(seed_seq.generate_state(1)[0])


def large_dense(teneig, seed):
    s = np.random.SeedSequence([seed, 1]).spawn(4)
    cases = [
        Case("uniform(%d,%d)" % (m, n), teneig.random_instance(m, n, seed=_int(si)), ("solve", "pta"))
        for (m, n), si in zip(((3, 200), (4, 50), (5, 20)), s)
    ]
    # Two blocks with clearly different radii: the weak irreducibility check
    # fails and the solver takes the perturbation path.
    data, blocks = _block_diagonal(teneig, 3, (60, 60), (1.0, 1.25), s[3])
    cases.append(Case("block_diagonal(3,120)", teneig.Tensor(data), ("solve",), blocks=blocks))
    return cases


def _near_reducible(teneig, delta, seed):
    """Two 5-blocks (radii 1 : 1.1) coupled by delta: irreducible, but close
    to reducible, which forces step rejections on the path."""
    g = np.random.default_rng(seed)
    data = delta * g.uniform(0.0, 1.0, (10,) * 3)
    data[:5, :5, :5] = g.uniform(0.0, 1.0, (5,) * 3)
    data[5:, 5:, 5:] = 1.1 * g.uniform(0.0, 1.0, (5,) * 3)
    data[(np.arange(10),) * 3] = g.uniform(-1.0, 0.0, 10)
    return teneig.Tensor(data)


def _log_uniform(teneig, decades, seed):
    g = np.random.default_rng(seed)
    return teneig.Tensor(10.0 ** g.uniform(-decades, decades, (8,) * 3))


def scaled_small(teneig, seed, per_scale=3):
    ss = np.random.SeedSequence([seed, 2])
    cell_seeds, near_seeds, log_seed, pta_seeds = ss.spawn(4)
    cases = []
    for (m, n), cs in zip(SCALED_CELLS, cell_seeds.spawn(len(SCALED_CELLS))):
        for d, ds in zip(SCALES, cs.spawn(len(SCALES))):
            for k in ds.spawn(per_scale):
                A = teneig.random_instance(m, n, d=d, seed=_int(k))
                cases.append(Case("scaled(%d,%d)d=%d" % (m, n, d), A, ("solve",)))
    # delta = 1e-6 is left out: 1 of 180 seeded pairs ended in endgame_failure
    # (ROADMAP item 4); none of 210 failed at 1e-3 or 30 at 1e-2.
    for delta, ds in zip((1e-2, 1e-3), near_seeds.spawn(2)):
        for k in ds.spawn(per_scale):
            A = _near_reducible(teneig, delta, k)
            cases.append(Case("near_reducible(3,10)delta=%g" % delta, A, ("solve",)))
    # A 1e-3..1e3 dynamic range; 1e-6..1e6 already failed on 1 of 30 seeds.
    cases.append(Case("log_uniform(3,8)", _log_uniform(teneig, 3, log_seed), ("solve",)))
    # PTA on (3,10) at the scales where its converged answers pass the check;
    # on the paper's d = 3..5 cells the eps-perturbation bias fails it.
    for d, ps in zip((0, 1, 2), pta_seeds.spawn(3)):
        for k in ps.spawn(per_scale):
            A = teneig.random_instance(3, 10, d=d, seed=_int(k))
            cases.append(Case("pta(3,10)d=%d" % d, A, ("pta",)))
    return cases


def known_defects(teneig, seed):
    """One case per known defect family; run apart from the timed workload."""
    s = np.random.SeedSequence([seed, 4]).spawn(len(SCALED_CELLS) + 3)
    cases = [
        Case("scaled(%d,%d)d=%d" % (m, n, d), teneig.random_instance(m, n, d=d, seed=_int(si)), ("solve",),
             defect=TINY_SCALE % d)
        for (m, n), si, d in zip(SCALED_CELLS, s, (12, 14, 16, 20))
    ]
    cases.append(Case("log_uniform(3,8)", _log_uniform(teneig, 13, s[-3]), ("solve",), defect=LOG_UNIFORM))
    for d, si in zip((3, 4), s[-2:]):
        A = teneig.random_instance(3, 10, d=d, seed=_int(si))
        cases.append(Case("paper(3,10)d=%d" % d, A, ("pta",), defect=PTA_BIAS % d))
    return cases


# Sizes keep each round trip short (0.03-0.2 s), so a 30 s run makes about 40
# passes to take every input's best time from; text write and parse still
# dominate the dense files.
DENSE_FILES = ((3, 24), (3, 30), (3, 36), (3, 42), (4, 10), (4, 12), (4, 14), (4, 16))
COO_FILES = (40, 50)


def file_roundtrip(teneig, seed):
    s = np.random.SeedSequence([seed, 3]).spawn(len(DENSE_FILES) + len(COO_FILES))
    cases = [
        Case("dense(%d,%d)" % (m, n), teneig.random_instance(m, n, seed=_int(si)), ("roundtrip",))
        for (m, n), si in zip(DENSE_FILES, s)
    ]
    for n, si in zip(COO_FILES, s[len(DENSE_FILES):]):
        g = np.random.default_rng(si)
        data = np.where(g.random((n,) * 3) < 0.01, g.uniform(0.0, 1.0, (n,) * 3), 0.0)
        data[(np.arange(n),) * 3] = g.uniform(-1.0, 0.0, n)
        cases.append(Case("coo(3,%d)" % n, teneig.Tensor(data), ("roundtrip",), fmt="coo"))
    return cases


def warmup_case(teneig, workload):
    """A small case that runs each kind of operation the workload runs once."""
    kinds = ("roundtrip",) if workload == "file_roundtrip" else ("solve", "pta")
    return Case("warmup(3,10)", teneig.random_instance(3, 10, seed=0), kinds)


BUILDERS = {"large_dense": large_dense, "scaled_small": scaled_small, "file_roundtrip": file_roundtrip}
