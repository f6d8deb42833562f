"""Self-tests of the benchmark: seeded inputs, reference checks, tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tcalgebra  # noqa: E402
import tcalgebra.cli  # noqa: E402,F401

import gen  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _load_run():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _inputs(wl, cycles=3):
    return [op.describe() for i in range(cycles) for op in wl.cycle(i)]


def _make(name, seed, tmp_path):
    cls = workloads.WORKLOADS[name]
    if name == "cli":
        workdir = tmp_path / f"cli-{seed}"
        workdir.mkdir(exist_ok=True)
        return cls(tcalgebra, seed, ROOT, str(workdir))
    return cls(tcalgebra, seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    a = _inputs(_make(name, 7, tmp_path))
    b = _inputs(_make(name, 7, tmp_path))
    c = _inputs(_make(name, 8, tmp_path))
    assert a == b
    assert a != c


def test_pole_maps_have_the_constructed_contact_data():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = gen.pole_map(rng)
        cls = tcalgebra.classify(tcalgebra.MoebiusMap(*m.coeffs))
        assert cls.kind == tcalgebra.MapKind.CONTACT
        assert workloads._check_contact(cls, m) is None
        assert abs(m(m.zeta)) == pytest.approx(1.0, abs=1e-12)
        assert m.coeffs[2] != 0


def test_interpreter_agrees_with_phi_lambda():
    rng = np.random.default_rng(11)
    m = gen.pole_map(rng)
    contact = tcalgebra.boundary_contact(tcalgebra.MoebiusMap(*m.coeffs))
    for _ in range(20):
        expr = tuple(gen.word(rng, int(rng.integers(1, 9))) for _ in range(2))
        element = tcalgebra.normalize(tcalgebra.parse(gen.render(expr)), contact)
        for kind, val in ref.sample_points(rng, m):
            lam = {
                "interval": lambda: tcalgebra.LambdaPoint.interval(val),
                "triple": lambda: tcalgebra.TRIPLE_POINT,
                "circle": lambda: tcalgebra.LambdaPoint.circle(val),
            }[kind]()
            got = tcalgebra.phi_lambda(element, lam)
            want = ref.expr_at(expr, m, (kind, val))
            assert np.max(np.abs(got - want)) <= 1e-12 * ref.expr_scale(expr, m, (kind, val))


def _first(wl, kind, family=None):
    for i in range(8):
        for op in wl.cycle(i):
            if op.kind == kind and (family is None or op.mapspec.family == family):
                return op
    raise LookupError(kind)


def test_algebra_checks_flag_a_perturbed_quintuple():
    wl = workloads.Algebra(tcalgebra, 5)
    op = _first(wl, "quintuple", "pole")
    cls, (prod, adj) = wl.execute(op)
    assert wl.check(op, (cls, (prod, adj))) is None
    bad_f = prod.f + tcalgebra.HalfPolynomial([0, 1e-6])
    bad = tcalgebra.SymbolElement(prod.w, bad_f, prod.g, prod.h, prod.k, prod.contact)
    assert wl.check(op, (cls, (bad, adj))) == "product_mismatch"
    assert wl.check(op, (cls, (prod, prod))) == "adjoint_mismatch"


def test_algebra_checks_flag_a_wrong_normal_form_and_count_round_trips():
    wl = workloads.Algebra(tcalgebra, 5)
    op = _first(wl, "words")
    cls, element = wl.execute(op)
    assert wl.check(op, (cls, element)) is None
    wrong = element + tcalgebra.identity_element(element.contact)
    assert wl.check(op, (cls, wrong)) == "symbol_mismatch"
    rt = _first(wl, "roundtrip", "affine")
    assert wl.check(rt, wl.execute(rt)) is None
    assert wl.roundtrip_attempts == 1


def test_sections_checks_flag_a_perturbed_column_and_eigenvalue():
    wl = workloads.Sections(tcalgebra, 5)
    op = next(o for o in wl.cycle(0) if o.kind == "matrix" and o.inputs == 128 and o.mapspec.family == "pole")
    cols = wl.execute(op)
    assert wl.check(op, cols) is None
    cols = cols.copy()
    cols[3, -1] += 1e-7
    assert wl.check(op, cols) == "column_mismatch"
    op = next(o for o in wl.cycle(0) if o.kind == "eigs" and o.inputs[1] == 128)
    eigs = wl.execute(op)
    assert wl.check(op, eigs) is None
    assert wl.check(op, eigs + 1e-6) == "eigs_mismatch"
    op = next(o for o in wl.cycle(0) if o.kind == "vanish" and o.inputs[1] == 128)
    seq = wl.execute(op)
    assert wl.check(op, seq) is None
    assert wl.check(op, seq * (1 + 1e-6)) == "sequence_mismatch"


def test_sweeps_checks_flag_wrong_answers_and_the_nan_accuracy_defect():
    wl = workloads.Sweeps(tcalgebra, 5)
    norm = next(o for o in wl.cycle(0) if o.kind == "norm" and o.inputs[1] == 1000)
    cls, report = wl.execute(norm)
    assert wl.check(norm, (cls, report)) is None
    off = tcalgebra.NormReport(report.value * 1.01 + 0.01, report.where, report.at, report.grid_spacing, report.derivative_bound)
    assert wl.check(norm, (cls, off)) == "norm_value_mismatch"
    overclaimed = tcalgebra.NormReport(report.value + 1e-7, report.where, report.at, 0.0, 1.0)
    assert wl.check(norm, (cls, overclaimed)) == "norm_bound_false"
    nan = tcalgebra.NormReport(report.value, report.where, report.at, 0.0, float("inf"))
    assert wl.check(norm, (cls, nan)) == "norm_accuracy_nonfinite"
    assert "norm_accuracy_nonfinite" in workloads.KNOWN_DEFECTS
    wrong_map = tcalgebra.classify(tcalgebra.MoebiusMap(-1, -2, 0, 3) if norm.mapspec.s != 3.0 else tcalgebra.MoebiusMap(-1, -1, 0, 2))
    assert wl.check(norm, (wrong_map, report)) == "classify_mismatch"

    spec = next(o for o in wl.cycle(0) if o.kind == "spectrum" and o.inputs[1] == 1000)
    cls, cloud = wl.execute(spec)
    assert wl.check(spec, (cls, cloud)) is None
    assert wl.check(spec, (cls, cloud + 0.5)) in ("spectrum_membership", "spectrum_coverage")

    fred = next(o for o in wl.cycle(0) if o.kind == "fredholm")
    cls, answer = wl.execute(fred)
    assert wl.check(fred, (cls, answer)) is None
    margin = ref.fredholm_margin(fred.extra["expr"], fred.mapspec)
    if margin > 1e-6 or margin < 1e-10:
        assert wl.check(fred, (cls, not answer)) == "fredholm_mismatch"


def test_spectra_is_sweeps_without_the_norm_ops():
    wl = workloads.Spectra(tcalgebra, 5)
    assert {op.kind for op in wl.cycle(0)} == {"spectrum", "fredholm"}
    assert {res for res, _ in wl.SLOTS} == {res for res, _ in workloads.Sweeps.SLOTS}
    for kind in ("spectrum", "fredholm"):
        op = _first(wl, kind, "pole")
        assert wl.check(op, wl.execute(op)) is None


def test_cli_expected_codes_and_flag_defect(tmp_path):
    wl = _make("cli", 5, tmp_path)
    cycle = wl.cycle(0)
    rejected = [op for op in cycle if op.mapspec.family in ("automorphism", "contraction")]
    assert rejected and all(wl.check(op, wl.execute(op)) is None for op in rejected)
    analyze = cycle[0]
    assert wl.check(analyze, wl.execute(analyze)) is None
    flagged = next(op for op in cycle if op.kind == "norm" and "--N" in op.inputs)
    assert wl.check(flagged, wl.execute(flagged)) in (None, "cli_flag_rejected")
    wl.execute(analyze)
    assert wl.check(analyze, 1) == "cli_exit_1_expected_0"


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:       500 |       1500 |   numpy.core",
            "import time:       200 |       2000 | numpy",
            "import time:       300 |       2600 | tcalgebra",
            "import time:        50 |         50 | argparse",
        ]
    )
    got = workloads.parse_importtime(stderr)
    assert got["numpy"] == pytest.approx(2000e-6)
    assert got["tcalgebra"] == pytest.approx((2600 + 50 - 2000) * 1e-6)


def test_tracer_self_time_and_duplicates():
    tracer = Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1], ["b", 6.0, 9.0, 0]]
    times = tracer.self_times()
    assert times["op"] == (10.0 - 4.0 - 3.0, 1)
    assert times["a"] == (3.0, 1)
    assert times["b"] == (4.0, 2)
    tracer.builds = {(0, "m", 4): 4, (1, "m", 4): 1}
    assert tracer.duplicate_ratio() == pytest.approx(3 / 5)


def test_tracer_wraps_from_imports_and_restores():
    original = tcalgebra.moebius.classify
    tracer = Tracer()
    tracer.install()
    try:
        assert tcalgebra.cli.classify is tcalgebra.moebius.classify is not original
        tracer.enabled = True
        m = tcalgebra.MoebiusMap(-1, -1, 0, 2)
        tcalgebra.cli.classify(m)
        tcalgebra.rewriter.normalize(tcalgebra.parse("C*S + C'"), tcalgebra.boundary_contact(m))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert tcalgebra.moebius.classify is original and tcalgebra.cli.classify is original
    names = [s[0] for s in tracer.spans]
    assert names.count("rewriter.normalize") == 1  # recursion records no nested span
    assert "moebius.classify" in names and "symbol.mul" in names
    assert tracer.counts["rings.halfpoly_new.calls"] > 0


def test_benchmark_json_matches_the_runner():
    run = _load_run()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    with open(os.path.join(HERE, "workloads.json")) as handle:
        doc = json.load(handle)
    assert list(doc["workloads"]) == list(workloads.WORKLOADS)
    assert [w["name"] for w in bench["workloads"]] == doc["gated"]
    assert set(doc["gated"]) < set(workloads.WORKLOADS)


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
