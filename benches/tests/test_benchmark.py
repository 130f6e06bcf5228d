"""Tests of the benchmark's own input generation, checks and tracer.

    python -m pytest benches/tests
"""

import pytest

import inputs
import inproc
from common import Mismatch, check_close, check_deterministic_command, load_reference
from run import parse_importtime
from tracer import Spans, Tracer, child_counts, summarize

REF = load_reference()


def checks_used(workload, cycle):
    """What a cycle gets checked against: reference keys for seed-independent
    outputs, op kinds for the seeded ones (synth, fit, mc)."""
    if workload == "fringe_scan":
        return sorted(inproc.fringe_key(op) in REF["fringe_scan"] and op["kind"] for op in cycle)
    if workload == "design_study":
        return sorted(inproc.design_key(op) for op in cycle)
    if workload == "large_runs":
        return sorted(op["kind"] if op["kind"] == "mc" else
                      inproc.simulate_key(op["argv"]) in REF["cli"]["simulate_large"]
                      and op["argv"][3] for op in cycle)
    return sorted(op["kind"] for op in cycle)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    gen = inputs.GENERATORS[workload]
    assert gen(7) == gen(7)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_other_seed_changes_draws_not_checks(workload):
    gen = inputs.GENERATORS[workload]
    a, b = gen(1), gen(2)
    assert a != b
    assert checks_used(workload, a) == checks_used(workload, b)


def test_altered_csv_byte_is_rejected(tmp_path):
    argv = ["simulate", "711", "--samples", "80000", "--spectrum", "flat"]
    want = REF["cli"]["simulate_large"][inproc.simulate_key(argv)]
    code, stdout = inproc.run_cli(argv, tmp_path)
    assert code == 0
    check_deterministic_command("simulate", stdout, tmp_path, want)
    data = bytearray((tmp_path / "fringes_711.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (tmp_path / "fringes_711.csv").write_bytes(bytes(data))
    with pytest.raises(Mismatch):
        check_deterministic_command("simulate", stdout, tmp_path, want)


def test_perturbed_library_number_is_rejected():
    op = next(op for op in inputs.fringe_scan(0) if op["kind"] == "small")
    summary = inproc.fringe_summary(*inproc.fringe_profile(op))
    want = REF["fringe_scan"][inproc.fringe_key(op)]
    check_close("profile", summary, want)
    summary["intensity_sum"] *= 1.0 + 1e-8
    with pytest.raises(Mismatch):
        check_close("profile", summary, want)


def test_expected_typed_error_is_checked():
    op = {"kind": "Si", "crystal": "Si", "window": [0.8, 2.5, 60.0], "fit_seeds": [1]}
    out = inproc.design_point(op)
    wl = inproc.DesignStudy(REF, None)
    wl.check(op, out)
    assert REF["design_study"][inproc.design_key(op)]["fit_error"] == "InsufficientData"
    out["budgets"][inproc.budget_key(False, True)] = [1.0, 1.0]
    with pytest.raises(Mismatch):
        wl.check(op, out)


def test_tracer_patches_imported_names_and_counts_exactly():
    from pendellosung import fringes, planner

    original = fringes.bragg_angle
    spans = Spans()
    tracer = Tracer(spans)
    tracer.install()
    try:
        assert fringes.bragg_angle is planner.bragg_angle is not original
        spans.op_id = 0
        inproc.fringe_profile({"crystal": "Si", "hkl": "711", "shape": "flat",
                               "thickness_cm": 1.0, "samples": 500})
    finally:
        tracer.uninstall()
    assert fringes.bragg_angle is original
    stats = summarize(spans, [0])
    assert stats["fringes.intensity_profile"]["samples"] == 500
    assert child_counts(spans, [0], "fringes.intensity_profile", "planner.bragg_angle") == 500
    for s in stats.values():
        assert 0.0 <= s["self_s"] <= s["total_s"] + 1e-12


def test_spans_round_trip(tmp_path):
    spans = Spans()
    spans.op_id = 3
    outer = spans.open(spans.name_id("a"))
    spans.close(spans.open(spans.name_id("b")))
    spans.close(outer)
    spans.events.append((outer, "points", 7))
    spans.dump(tmp_path / "s.bin")
    back = Spans.load(tmp_path / "s.bin")
    assert back.names == ["a", "b"] and list(back.parent) == [-1, 0]
    assert summarize(back, [3])["a"]["points"] == 7


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy.interpolate",
        "import time:       100 |        550 |   scipy",
        "import time:        10 |        860 | pendellosung",
    ])
    assert parse_importtime(text) == pytest.approx(
        {"import.total_ms": 0.86, "import.numpy_ms": 0.35, "import.scipy_ms": 0.55})


@pytest.mark.parametrize("workload", ["fringe_scan", "design_study", "large_runs"])
def test_warmup_sizes_do_not_depend_on_seed(workload):
    gen = inputs.GENERATORS[workload]
    sizes = [sorted((op["kind"], inputs._size(op)) for op in inputs.warmup(gen(seed)))
             for seed in range(5)]
    assert all(s == sizes[0] for s in sizes)
    assert {k for k, _ in sizes[0]} == {op["kind"] for op in gen(0)}
