"""Spans and counts around the calls into each ckn module, for the traced run.

Nothing under src/ is edited. `Instrumentation.install` replaces module
attributes that ckn looks up at call time with wrappers; a name that one
ckn module imported from another (`from .params import gamma_alpha`) is
replaced in every module that holds it. The wrappers record nothing while
no `Tracer` is attached, and `uninstall` puts the originals back.

A span is (name, start, end, parent). A layer's self time is the summed
duration of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

CKN_MODULES = ("ckn.params", "ckn.spectrum", "ckn.quadrature", "ckn.grids",
               "ckn.operators", "ckn.radial_solver", "ckn.phase", "ckn.critical",
               "ckn.bn_ball", "ckn.cli")

# (module, attribute, span name); functions of one layer share a name
SPANS = (
    ("ckn.bn_ball", "minimize_bn", "bn_ball.minimize"),
    ("ckn.bn_ball", "_quadratic_forms", "bn_ball.assemble"),
    ("ckn.bn_ball", "_make_spd_solver", "bn_ball.factor"),
    ("ckn.bn_ball", "bn_lambda21", "bn_ball.lambda21"),
    ("ckn.bn_ball", "pohozaev_residuals", "bn_ball.pohozaev"),
    ("ckn.quadrature", "weighted_radial_integral", "quadrature.integral"),
    ("ckn.critical", "talenti_identity_suite", "critical"),
    ("ckn.critical", "strictness_sign_check", "critical"),
    ("ckn.critical", "shifted_weight_lemma_check", "critical"),
    ("ckn.critical", "ueps_family", "critical"),
    ("ckn.operators", "norm_identity_check", "operators.identity"),
    ("ckn.radial_solver", "minimize_mu_q", "radial_solver.minimize"),
    ("ckn.radial_solver", "consistency_suite", "radial_solver.consistency"),
    ("ckn.radial_solver", "brute_force_oracle", "radial_solver.oracle"),
    ("ckn.phase", "symmetry_certificate", "phase.certificate"),
    ("ckn.phase", "positivity_phase", "phase.positivity"),
    ("ckn.spectrum", "full_sphere", "spectrum"),
    ("ckn.spectrum", "half_sphere", "spectrum"),
    ("ckn.spectrum", "rellich_constant", "spectrum"),
    ("ckn.spectrum", "positivity_predicates", "spectrum"),
    ("ckn.spectrum", "spectral_distance", "spectrum"),
    ("ckn.spectrum", "_nearest_sphere_level", "spectrum"),
    ("ckn.params", "gamma_alpha", "params"),
    ("ckn.params", "gbar_alpha", "params"),
    ("ckn.params", "derive_params", "params"),
    ("ckn.params", "radial_closed_forms", "params"),
    ("ckn.params", "conjugate_exponent", "params"),
    ("ckn.params", "scaling_relation", "params"),
    ("ckn.params", "phase_thresholds", "params"),
    ("ckn.cli", "_csv", "cli.emit"),
    ("ckn.cli", "_json_text", "cli.emit"),
    ("ckn.cli", "_emit", "cli.emit"),
)

# per-layer metric -> (unit, how it is read from the spans and counts)
METRICS = {
    "bn_ball.minimize_calls": ("count", ("calls", "bn_ball.minimize")),
    "bn_ball.starts": ("count", ("count", "bn_ball.starts")),
    "bn_ball.iterations": ("count", ("count", "bn_ball.iterations")),
    "bn_ball.kernel_self_s": ("s", ("self", "bn_ball.minimize")),
    "bn_ball.assemble_calls": ("count", ("calls", "bn_ball.assemble")),
    "bn_ball.assemble_s": ("s", ("self", "bn_ball.assemble")),
    "bn_ball.factor_calls": ("count", ("calls", "bn_ball.factor")),
    "bn_ball.factor_s": ("s", ("self", "bn_ball.factor")),
    "bn_ball.banded_solves": ("count", ("calls", "bn_ball.solve")),
    "bn_ball.solve_s": ("s", ("self", "bn_ball.solve")),
    "bn_ball.lambda21_calls": ("count", ("calls", "bn_ball.lambda21")),
    "bn_ball.lambda21_s": ("s", ("self", "bn_ball.lambda21")),
    "bn_ball.pohozaev_s": ("s", ("self", "bn_ball.pohozaev")),
    "quadrature.integral_calls": ("count", ("calls", "quadrature.integral")),
    "quadrature.integral_s": ("s", ("self", "quadrature.integral")),
    "critical.self_s": ("s", ("self", "critical")),
    "operators.identity_s": ("s", ("self", "operators.identity")),
    "radial_solver.minimize_calls": ("count", ("calls", "radial_solver.minimize")),
    "radial_solver.minimize_s": ("s", ("self", "radial_solver.minimize")),
    "radial_solver.iterations": ("count", ("count", "radial_solver.iterations")),
    "radial_solver.banded_solves": ("count", ("count", "radial_solver.banded_solves")),
    "radial_solver.consistency_s": ("s", ("self", "radial_solver.consistency")),
    "radial_solver.oracle_calls": ("count", ("calls", "radial_solver.oracle")),
    "radial_solver.oracle_s": ("s", ("self", "radial_solver.oracle")),
    "phase.certificate_calls": ("count", ("calls", "phase.certificate")),
    "phase.certificate_s": ("s", ("self", "phase.certificate")),
    "phase.positivity_s": ("s", ("self", "phase.positivity")),
    "spectrum.s": ("s", ("self", "spectrum")),
    "params.s": ("s", ("self", "params")),
    "cli.fanout_s": ("s", ("self", "cli.fanout")),
    "cli.fanout_tasks": ("count", ("count", "cli.fanout_tasks")),
    "cli.emit_s": ("s", ("self", "cli.emit")),
    "cli.rows": ("count", ("count", "cli.rows")),
    "cli.nan_rows": ("count", ("count", "cli.nan_rows")),
}
# taken from the fanned-out pass when a workload fans out; every other
# metric comes from the pass that runs the same work in-process
FANOUT_METRICS = ("cli.fanout_s", "cli.fanout_tasks")


class Tracer:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def summary(self):
        """(calls, self seconds) per span name."""
        covered = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        calls, self_ns = Counter(), Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - covered[i]
        return calls, {k: v * 1e-9 for k, v in self_ns.items()}

    def write(self, fh, label: str) -> None:
        """One CSV line per span: pass, id, parent, name, start_ns, end_ns."""
        for i, name in enumerate(self.names):
            fh.write(f"{label},{i},{self.parents[i]},{name},{self.starts[i]},{self.ends[i]}\n")


class _CountingModule:
    """Stands in for a module object: one attribute is replaced, every
    other one is read from the module."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Instrumentation:
    """The wrappers around ckn's layer boundaries. `tracer` is the pass
    being recorded, or None to record nothing."""

    def __init__(self):
        self.tracer = None
        self._saved = []

    def _wrap(self, fn, name=None, after=None, on_error=None, result_span=None):
        """A wrapper that records a span `name` (none if None), then calls
        `after(tracer, result)`, counts `on_error` when fn raises, and puts
        a span `result_span` around the function fn returns."""
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr = inst.tracer
            if tr is None:
                return fn(*args, **kwargs)
            i = tr.open(name) if name else None
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if on_error:
                    tr.counts[on_error] += 1
                raise
            finally:
                if i is not None:
                    tr.close(i)
            if after is not None:
                after(tr, out)
            if result_span is not None:
                out = inst._wrap(out, result_span)
            return out

        return wrapper

    def _replace(self, module: str, attr: str, **how) -> None:
        """Wrap module.attr and put the wrapper in every ckn module that
        holds the same object."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, **how)
        for name in CKN_MODULES:
            mod = sys.modules[name]
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for name in CKN_MODULES:
            importlib.import_module(name)

        def add(key, amount=None):
            """An `after` hook adding amount(result), or 1, to count `key`."""
            def after(tr, out):
                tr.counts[key] += 1 if amount is None else amount(out)
            return after

        extra = {
            ("ckn.bn_ball", "minimize_bn"):
                {"after": add("bn_ball.iterations", lambda r: r.iterations)},
            ("ckn.radial_solver", "minimize_mu_q"):
                {"after": add("radial_solver.iterations", lambda r: r.iterations)},
            # the factorization returns the banded solve as a closure
            ("ckn.bn_ball", "_make_spd_solver"): {"result_span": "bn_ball.solve"},
            ("ckn.cli", "_csv"): {"after": add("cli.rows", lambda t: t.count("\n") - 1)},
        }
        for module, attr, span in SPANS:
            self._replace(module, attr, name=span, **extra.get((module, attr), {}))
        self._replace("ckn.bn_ball", "_bn_inits", after=add("bn_ball.starts", len))
        # the rows whose pool worker catches an exception and emits NaN
        self._replace("ckn.radial_solver", "scan_row", on_error="cli.nan_rows")
        self._replace("ckn.bn_ball", "dimension_probe", on_error="cli.nan_rows")

        rs = sys.modules["ckn.radial_solver"]
        self._saved.append((rs, "sla", rs.sla))
        rs.sla = _CountingModule(rs.sla, cho_solve_banded=self._wrap(
            rs.sla.cho_solve_banded, after=add("radial_solver.banded_solves")))

        cli = sys.modules["ckn.cli"]
        fan_out = cli._fan_out
        inst = self

        @functools.wraps(fan_out)
        def fan_out_wrapper(worker, tasks, jobs):
            tr = inst.tracer
            if tr is None:
                return fan_out(worker, tasks, jobs)
            pooled = jobs > 1 and len(tasks) > 1
            i = tr.open("cli.fanout" if pooled else "cli.inline")
            try:
                return fan_out(worker, tasks, jobs)
            finally:
                tr.close(i)
                if pooled:
                    tr.counts["cli.fanout_tasks"] += len(tasks)

        self._saved.append((cli, "_fan_out", fan_out))
        cli._fan_out = fan_out_wrapper

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()


def layer_metrics(passes, rounds: int) -> dict:
    """Per-round per-layer metrics from the traced passes.

    `passes` maps "fanout" and "inline" to lists of tracers; a workload
    that does not fan out has only "fanout" passes, which then give every
    metric."""
    def totals(tracers):
        calls, self_s, counts = Counter(), Counter(), Counter()
        for tr in tracers:
            c, s = tr.summary()
            calls.update(c)
            self_s.update(s)
            counts.update(tr.counts)
        return {"calls": calls, "self": self_s, "count": counts}

    fan = totals(passes["fanout"])
    inl = totals(passes["inline"]) if passes.get("inline") else fan
    out = {}
    for metric, (unit, (kind, key)) in METRICS.items():
        src = fan if metric in FANOUT_METRICS else inl
        value = src[kind].get(key, 0)
        if unit == "count":
            value = int(value) // rounds
        else:
            value = float(value) / rounds
        out[metric] = {"value": value, "unit": unit}
    return out
