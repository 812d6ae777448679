import hvdcopf.builder
import hvdcopf.ipm
import hvdcopf.studies
import pytest

import tracing
from hvdcopf.builder import OpfOptions
from hvdcopf.io import load_builtin_case


def test_spans_and_layer_metrics_of_one_solve():
    originals = (hvdcopf.builder.build_opf, hvdcopf.studies.build_opf, hvdcopf.ipm.solve, hvdcopf.ipm.sp)
    grid = load_builtin_case()
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        problem, _ = hvdcopf.builder.build_opf(grid, OpfOptions(n_b=0, outage="Cb-A1.a"))
        sol = hvdcopf.ipm.solve(problem)
    finally:
        tracer.uninstall()
    assert (hvdcopf.builder.build_opf, hvdcopf.studies.build_opf, hvdcopf.ipm.solve, hvdcopf.ipm.sp) == originals

    names = {s.name for s in tracer.spans}
    assert {"builder.build_opf", "tableau.assemble_tableau", "nlp.freeze", "ipm.solve",
            "ipm.bmat", "ipm.splu", "ipm.check_kkt"} <= names
    for s in tracer.spans:
        assert s.end >= s.start and s.self_s >= -1e-9
        if s.name in ("ipm.bmat", "ipm.splu", "ipm.check_kkt"):
            assert tracer.parent_of(s).name == "ipm.solve"

    m = tracing.pass_metrics(tracer.spans)
    assert m["builder.build_calls"] == 1 and m["builder.rebuilds_after_solve"] == 0
    assert m["builder.max_n_vars"] == problem.n_vars
    assert m["ipm.solves"] == 1 and m["ipm.iterations"] == sol.iterations
    assert m["ipm.factorizations"] >= sol.iterations and m["ipm.factor_fill_nnz"] > 0
    solve = next(s for s in tracer.spans if s.name == "ipm.solve")
    children = m["ipm.kkt_assembly_s"] + m["ipm.factor_s"] + m["ipm.check_kkt_s"]
    assert m["ipm.self_s"] == pytest.approx(solve.duration - children)
    assert m["engine.multistart_calls"] == 0 and m["engine.minlp_s"] == 0.0


def test_tail_needs_ten_samples_beyond():
    assert tracing.tail(list(range(1, 101))) == (90.0, 90)
    assert tracing.tail(list(range(1, 1001))) == (99.0, 990)
    assert tracing.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
