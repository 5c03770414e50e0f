"""Checks of the benchmark itself: python3 -m pytest perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import instances  # noqa: E402
import tracing  # noqa: E402
from rslist import decoder, factorization, koetter  # noqa: E402
from rslist.galois import GF8_POLY, GF256_POLY, Field  # noqa: E402
from rslist.koetter import n_constraints  # noqa: E402
from rslist.rs_codec import CodeSpec, encode  # noqa: E402


@pytest.fixture(scope="module")
def gf256():
    return Field(8, GF256_POLY)


def test_worked_example_traced_matches_untraced():
    problem, expected = instances.worked_gf8(Field(3, GF8_POLY))
    tracer = tracing.Tracer()
    assert tracer.missing == []
    tally = run.Tally()
    for path, tau in (("direct", None), ("reduced", 4)):
        plain = run.decode(problem, path, tau)
        with tracer.installed(problem.field) as spans:
            traced = run.decode(problem, path, tau)
        assert plain.accepted_set() == traced.accepted_set() == expected
        assert run.signature(plain) == run.signature(traced)
        run.check_phases(traced, spans, tracer.missing, tally)
        assert spans[0].name == "decoder.decode" and spans[0].parent is None
    assert tally.problems == []


def test_tracer_restores_bindings_and_skips_missing_names():
    before = (decoder.factor_reduced, koetter.update_basis, factorization.rr_power_series)
    spans = dict(tracing.SPANS, gone=[("decoder", "no_such_function")])
    tracer = tracing.Tracer(spans)
    assert tracer.missing == ["gone"]
    with tracer.installed(None):
        assert decoder.factor_reduced is not before[0]
    assert (decoder.factor_reduced, koetter.update_basis, factorization.rr_power_series) == before


def test_soft_large_seed_1_is_the_baseline_instance(gf256):
    inst = instances.soft_large(gf256, 1)
    assert n_constraints(p.mult for p in inst.problem.points) == 6912
    report = decoder.decode_reduced(inst.problem, tau=6)
    assert (report.reduced_constraints, report.r) == (290, 7)
    assert inst.planted in report.accepted_set()
    mults = {phase: c["multiplications"] for phase, c in report.counters.items()}
    assert mults == {"reencoding_setup": 1_745_268, "interpolation": 563_578, "factorization": 362_557}
    direct = decoder.decode_direct(inst.problem)
    assert direct.accepted_set() == report.accepted_set()
    mults = {phase: c["multiplications"] for phase, c in direct.counters.items()}
    assert mults == {"interpolation": 70_161_699, "factorization": 10_995_912}


def test_hard_generator_plants_the_stated_error_count(gf256):
    code = CodeSpec(gf256, 255, instances.HARD_K)
    for seed in range(20):
        inst = instances.hard_rs255(gf256, seed)
        sent = encode(code, inst.message)
        received = [p.y for p in inst.problem.points]
        wrong = sum(a != b for a, b in zip(sent, received))
        assert wrong == inst.errors
        assert instances.HARD_ERRORS[0] <= wrong <= instances.HARD_ERRORS[1]


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "hard-rs255-reduced", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
