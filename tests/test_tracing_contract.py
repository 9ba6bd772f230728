"""The benchmark's traced run wraps ckn functions by module attribute; a
rename under src/ckn would break it. Install and uninstall the wrappers
here so that such a rename fails the suite."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_and_restores_every_attribute():
    tracing = _load_tracing()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        wrapped = list(inst._saved)
        assert wrapped
        for mod, key, original in wrapped:
            assert getattr(mod, key) is not original, f"{mod.__name__}.{key}"
        wrapped_names = {(mod.__name__, key) for mod, key, _ in wrapped}
        for module, attr, _ in tracing.SPANS:
            assert (module, attr) in wrapped_names
    finally:
        inst.uninstall()
    for mod, key, original in wrapped:
        assert getattr(mod, key) is original, f"{mod.__name__}.{key}"


def test_traced_inline_probe_counts_its_nan_row(capsys):
    """The benchmark's failure count `cli.nan_rows` sees a NaN row that the
    CLI builds: lambda = 60 lies above lambda_21 at n = 6."""
    from ckn import cli

    tracing = _load_tracing()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        inst.tracer = tracing.Tracer()
        code = cli.dispatch(["bn-probe", "--n", "6", "--lambdas", "0,60",
                             "--nr", "201", "--jobs", "1"])
        counts = inst.tracer.counts
    finally:
        inst.tracer = None
        inst.uninstall()
    assert code == 0
    assert counts["cli.nan_rows"] == 1
    assert "NaN row at lambda=60.0" in capsys.readouterr().err


def test_traced_probe_counts_one_lambda21_and_one_assembly():
    """`bn-probe` builds the forms and lambda_21 once for all its lambdas,
    and the spans `bn_ball.lambda21` and `bn_ball.assemble` see that call."""
    from ckn import cli

    tracing = _load_tracing()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        inst.tracer = tracing.Tracer()
        code = cli.dispatch(["bn-probe", "--n", "6", "--lambdas", "0,10,20",
                             "--nr", "201", "--jobs", "1"])
        calls, _ = inst.tracer.summary()
    finally:
        inst.tracer = None
        inst.uninstall()
    assert code == 0
    assert calls["bn_ball.lambda21"] == 1
    assert calls["bn_ball.assemble"] == 1
    assert calls["bn_ball.minimize"] == 3


def test_traced_scan_counts_a_nan_row_per_mirror_alpha(capsys, monkeypatch):
    """alpha = -0.5 and 4.5 share one failing solve; `cli.nan_rows` still
    counts both NaN rows, since each row goes through `scan_row`."""
    import ckn.radial_solver
    from ckn import cli

    def fail(n, alpha, q, cfg):
        raise RuntimeError("solver exploded")

    tracing = _load_tracing()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        monkeypatch.setattr(ckn.radial_solver, "minimize_mu_q", fail)
        inst.tracer = tracing.Tracer()
        code = cli.dispatch(["scan", "--n", "5", "--q", "3",
                             "--alpha-range=-0.5,4.5,5", "--jobs", "1"])
        counts = inst.tracer.counts
    finally:
        inst.tracer = None
        monkeypatch.undo()
        inst.uninstall()
    assert code == 0
    assert counts["cli.nan_rows"] == 2
    assert capsys.readouterr().err.count("scan: NaN row at alpha=") == 2


def test_traced_line_solve_counts_one_banded_solve_per_step():
    """The benchmark counts `radial_solver.banded_solves` through
    `radial_solver.sla.cho_solve_banded`: a converged solve makes one per
    residual check but the last."""
    from ckn import radial_solver

    tracing = _load_tracing()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        inst.tracer = tracing.Tracer()
        res = radial_solver.minimize_mu_q(5, 0.0, 3.0, radial_solver.MinimizationConfig())
        counts = inst.tracer.counts
    finally:
        inst.tracer = None
        inst.uninstall()
    assert res.converged
    assert counts["radial_solver.iterations"] == res.iterations
    assert counts["radial_solver.banded_solves"] == res.iterations - 1
