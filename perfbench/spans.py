"""In-memory spans around teneig's layers, recorded from outside the package.

``Tracer.install`` replaces public names in the namespaces where the solver
modules look them up (``teneig.homotopy.tvp_jacobian``, ``teneig.pta.tvp``,
``teneig.cli.load_tensor`` ...) with timing wrappers, and ``uninstall`` puts
the originals back.  No source file is edited.  A span is (name, start, end,
parent, op): parent is the index of the enclosing span or -1, and op numbers
the benchmark operation it belongs to.  A layer is the part of a span name
before the first dot.  A span's self time is its duration minus the time its
children cover; calls nest and never overlap in this single-threaded run, so
that is the duration minus the children's durations.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("tensor", "linalg", "homotopy", "pta", "tensorfile", "cli")


def _chain_entries(T):
    # Stage k of the contraction chain reads an n^(m-k+1) operand once and
    # does one multiply-add per entry.
    return sum(T.dim**j for j in range(2, T.order + 1))


def _tvp_counts(counts, name, args, out):
    entries = _chain_entries(args[0])
    counts[name + ".bytes_computed"] += 8 * entries
    counts[name + ".flops_computed"] += 2 * entries


def _jacobian_counts(counts, name, args, out):
    # As implemented: m-1 chains, each over the full tensor; tensordot's
    # transpose copies are not counted.
    entries = (args[0].order - 1) * _chain_entries(args[0])
    counts[name + ".bytes_computed"] += 8 * entries
    counts[name + ".flops_computed"] += 2 * entries


def _copy_counts(counts, name, args, out):
    # One read of an n^m source and one write of the n^m result; rank_one_start
    # writes only, which this counts as the same traffic.
    counts[name + ".bytes_computed"] += 16 * out.data.size


def _lu_counts(counts, name, args, out):
    counts["linalg.lu.factor_calls"] += 1
    counts["linalg.lu.singular"] += int(out.singular)


def _solve_counts(counts, name, args, out):
    counts["homotopy.solves"] += 1
    counts["homotopy.iter"] += out.iter
    counts["homotopy.nwtiter"] += out.nwtiter


def _pta_counts(counts, name, args, out):
    counts["pta.sweeps"] += out.iter
    counts["pta.capped"] += int(out.status == "step_limit")


def _dumps_counts(counts, name, args, out):
    counts["tensorfile.bytes_written"] += len(out)


def _loads_counts(counts, name, args, out):
    counts["tensorfile.bytes_read"] += len(args[0])


# (module, attribute, span name, counter hook)
TARGETS = (
    ("homotopy", "tvp_jacobian", "tensor.tvp_jacobian", _jacobian_counts),
    ("homotopy", "tvp", "tensor.tvp", _tvp_counts),
    ("tensor", "tvp", "tensor.tvp", _tvp_counts),
    ("pta", "tvp", "tensor.tvp", _tvp_counts),
    ("homotopy", "add_identity", "tensor.dense_copies", _copy_counts),
    ("homotopy", "perturb", "tensor.dense_copies", _copy_counts),
    ("homotopy", "rank_one_start", "tensor.dense_copies", _copy_counts),
    ("pta", "add_identity", "tensor.dense_copies", _copy_counts),
    ("pta", "perturb", "tensor.dense_copies", _copy_counts),
    ("homotopy", "require_essentially_nonnegative", "tensor.checks", None),
    ("homotopy", "weak_irreducibility_check", "tensor.checks", None),
    ("pta", "require_essentially_nonnegative", "tensor.checks", None),
    ("homotopy", "eigen_residual", "tensor.residual", None),
    ("homotopy", "lu_factor", "linalg.lu", _lu_counts),
    ("homotopy", "lu_apply", "linalg.lu", None),
    ("homotopy", "predict", "homotopy.predict", None),
    ("homotopy", "newton_correct", "homotopy.newton", None),
    ("homotopy", "endgame", "homotopy.endgame", None),
    ("homotopy", "_solve_shifted", "homotopy.attempt", None),
    ("cli", "solve_dominant", "homotopy.solve_dominant", _solve_counts),
    ("cli", "pta_solve", "pta.pta_solve", _pta_counts),
    ("cli", "load_tensor", "tensorfile.load", None),
    ("tensorfile", "loads_tensor", "tensorfile.loads", _loads_counts),
    ("tensorfile", "dumps_tensor", "tensorfile.dumps", _dumps_counts),
)

# Entry points the benchmark calls itself; it wraps them with these hooks.
OWN_CALLS = {
    "solve": ("homotopy.solve_dominant", _solve_counts),
    "pta": ("pta.pta_solve", _pta_counts),
    "save": ("tensorfile.save", None),
    "cli": ("cli.main", None),
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self._saved = []

    def wrap(self, fn, name, hook=None):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self.ends[idx] = perf_counter()
                self.stack.pop()
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self.counts, name, args, out)
            return out

        return traced

    def own(self, kind, fn):
        name, hook = OWN_CALLS[kind]
        return self.wrap(fn, name, hook)

    def install(self):
        for mod_name, attr, name, hook in TARGETS:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, hook))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def aggregate(self):
        """Seconds per span name, in total and self, and seconds of children per
        (parent name, child name)."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        under = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            self_s[name] += dur
            p = self.parents[i]
            if p >= 0:
                self_s[self.names[p]] -= dur
                under[(self.names[p], name)] += dur
        return total, self_s, under

    def layer_metrics(self, passes):
        """Per-layer metrics per workload pass, keyed as in BENCHMARK.json."""
        c = self.counts
        total, self_s, under = self.aggregate()
        layer_self = Counter()
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s

        def per(v):
            return v / passes

        def rate(nbytes, seconds):
            return nbytes / seconds / 1e6 if seconds > 0 else 0.0

        pta_loop = (
            total["pta.pta_solve"]
            - under[("pta.pta_solve", "tensor.dense_copies")]
            - under[("pta.pta_solve", "tensor.checks")]
        )
        newton = c["homotopy.newton.calls"] + c["homotopy.newton.raised"]
        out = {}
        for k in ("tvp_jacobian", "tvp"):
            name = "tensor." + k
            out[name + ".calls"] = per(c[name + ".calls"])
            out[name + ".s"] = per(total[name])
            out[name + ".bytes_computed"] = per(c[name + ".bytes_computed"])
            out[name + ".flops_computed"] = per(c[name + ".flops_computed"])
        out.update(
            {
                "tensor.dense_copies.calls": per(c["tensor.dense_copies.calls"]),
                "tensor.dense_copies.s": per(total["tensor.dense_copies"]),
                "tensor.dense_copies.bytes_computed": per(c["tensor.dense_copies.bytes_computed"]),
                "tensor.checks.calls": per(c["tensor.checks.calls"]),
                "tensor.checks.s": per(total["tensor.checks"]),
                "tensor.self_s": per(layer_self["tensor"]),
                "linalg.lu.calls": per(c["linalg.lu.factor_calls"]),
                "linalg.lu.s": per(total["linalg.lu"]),
                "linalg.lu.singular": per(c["linalg.lu.singular"]),
                "linalg.self_s": per(layer_self["linalg"]),
                "homotopy.iter": per(c["homotopy.iter"]),
                "homotopy.nwtiter": per(c["homotopy.nwtiter"]),
                "homotopy.newton.calls": per(newton),
                "homotopy.newton.raised": per(c["homotopy.newton.raised"]),
                "homotopy.newton.raised_share": c["homotopy.newton.raised"] / newton if newton else 0.0,
                "homotopy.endgame.calls": per(c["homotopy.endgame.calls"] + c["homotopy.endgame.raised"]),
                "homotopy.retries": per(c["homotopy.attempt.calls"] - c["homotopy.solves"]),
                "homotopy.self_s": per(layer_self["homotopy"]),
                "pta.sweeps": per(c["pta.sweeps"]),
                "pta.sweep_us": 1e6 * pta_loop / c["pta.sweeps"] if c["pta.sweeps"] else 0.0,
                "pta.capped": per(c["pta.capped"]),
                "pta.self_s": per(layer_self["pta"]),
                "tensorfile.dumps.s": per(total["tensorfile.dumps"]),
                "tensorfile.loads.s": per(total["tensorfile.loads"]),
                "tensorfile.bytes": per(c["tensorfile.bytes_written"] + c["tensorfile.bytes_read"]),
                "tensorfile.write_mb_per_s": rate(c["tensorfile.bytes_written"], total["tensorfile.dumps"]),
                "tensorfile.read_mb_per_s": rate(c["tensorfile.bytes_read"], total["tensorfile.loads"]),
                "tensorfile.self_s": per(layer_self["tensorfile"]),
                "cli.solve.self_s": per(self_s["cli.main"]),
                "trace.spans": per(len(self.names)),
            }
        )
        return out, self_s, layer_self

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps([name, self.starts[i], self.ends[i], self.parents[i], self.ops[i]])
                    + "\n"
                )
