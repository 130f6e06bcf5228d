"""Acceptance suite: one test per shipped-behavior criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The Monte-Carlo criterion draws 1e5 trials and the
Bessel sweep checks 1e4 points; everything finishes in well under a
minute except the Bessel oracle sweep (a few seconds of decimal
arithmetic).
"""

import numpy as np
import pytest

from pendellosung import (
    GERMANIUM,
    SILICON,
    Reflection,
    ReflectionClass,
    bessel_j0,
    b_meas,
    charge_radius_from_bne,
    classify,
    contamination,
    debye_waller_correct,
    extract_bne_single,
    fit_bne,
    fringe_count,
    joint_fit,
    monte_carlo_validate,
    q_over_4pi,
    survey,
    synth_measurements,
)

from oracles import j0_oracle

SURVEY_F2 = {"111": 540.0, "422": 918.0, "511": 448.0, "531": 421.0,
             "620": 811.0, "533": 396.0, "551": 372.0, "711": 372.0,
             "642": 715.0}
SURVEY_WINDOWS = {
    "111": ((0.8, 2.5), (15, 47)),
    "422": ((0.8, 1.8), (42, 110)),
    "511": ((0.8, 1.7), (45, 110)),
    "531": ((0.8, 1.5), (52, 110)),
    "620": ((0.8, 1.4), (56, 110)),
    "533": ((0.8, 1.4), (58, 110)),
    "551": ((0.8, 1.2), (63, 110)),
    "711": ((0.8, 1.2), (63, 110)),
    "642": ((0.8, 1.2), (67, 112)),  # published top angle exceeds the cap
}
SURVEY_ORDER = ["111", "422", "511", "531", "620", "533", "551", "711", "642"]
SURVEY_STRONG = {"422", "620", "642"}


def _report(num, title, ok, detail):
    print(f"[ACCEPTANCE] {num} {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_survey_table(tmp_path):
    # Drive the actual `plan` command and check its CSV.
    import csv

    from pendellosung.cli import main

    assert main(["plan", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "plan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = [r["hkl"] for r in rows] == SURVEY_ORDER
    details = []
    for r in rows:
        lbl = r["hkl"]
        want_class = "strong" if lbl in SURVEY_STRONG else "weak"
        ok &= r["class"] == want_class and r["pure"] == "true"
        (l_lo, l_hi), (t_lo, t_hi) = SURVEY_WINDOWS[lbl]
        ok &= abs(float(r["lambda_min"]) - l_lo) <= 0.05
        ok &= abs(float(r["lambda_max"]) - l_hi) <= 0.05
        ok &= abs(float(r["two_theta_min"]) - t_lo) <= 1.0
        ok &= abs(float(r["two_theta_max"]) - min(t_hi, 110.0)) <= 1.0
        f2 = float(r["F2_fm2"])
        ok &= abs(f2 - SURVEY_F2[lbl]) <= 3.0
        details.append(f"{lbl}:{f2:.0f}")
    _report(1, "survey table reproduction", ok,
            f"9 rows, |F|^2 = {' '.join(details)}")


def test_criterion_2_candidate_accounting(default_window):
    result = survey(SILICON, default_window)
    n_all, n_pure = len(result.plans), len(result.pure)
    n_cont = len(result.contaminated)
    ok = (n_all, n_cont, n_pure) == (16, 7, 9)
    labels = [p.reflection.label() for p in result.plans]
    ok &= labels[0] == "111" and labels[-1] == "642"
    _report(2, "candidate accounting", ok,
            f"candidates={n_all} (111..642), contaminated={n_cont} pure={n_pure}")


def test_criterion_3_111_contamination(default_window):
    found = contamination(SILICON, Reflection(1, 1, 1), default_window)
    by_label = {c.reflection.label(): c.two_theta_window for c in found}
    ok = set(by_label) == {"333", "444"}
    ok &= abs(by_label["333"][0] - 45.0) <= 1.0 and abs(by_label["333"][1] - 110.0) <= 1.0
    ok &= abs(by_label["444"][0] - 61.0) <= 1.0 and abs(by_label["444"][1] - 110.0) <= 1.0
    _report(3, "(111) harmonic windows", ok,
            ", ".join(f"({k}) {v[0]:.1f}-{v[1]:.1f} deg" for k, v in sorted(by_label.items())))


def test_criterion_4_debye_waller_inversion():
    q = q_over_4pi(SILICON, Reflection(1, 1, 1))
    b, s = debye_waller_correct(4.1053, 0.0008, 0.4613, 0.0027, q)
    ok = abs(b - 4.1538) <= 0.0005 and abs(s - 0.0011) <= 0.0002
    _, s_meas_only = debye_waller_correct(4.1053, 0.0008, 0.4613, 0.0, q)
    b_term = s - s_meas_only
    ok &= abs(b_term - 0.0003) <= 0.0001
    _report(4, "Debye-Waller inversion", ok,
            f"b(Q111) = {b:.4f} +- {s:.4f}, B-term {b_term:.4f}")


def test_criterion_5_single_point_extractions():
    bne_si, s_si = extract_bne_single(4.1538, 0.0011, 4.1507, 0.0002, 14, 0.7526)
    ok = abs(bne_si + 0.89e-3) <= 0.02e-3 and abs(s_si - 0.32e-3) <= 0.03e-3
    q_ge = q_over_4pi(GERMANIUM, Reflection(1, 1, 1))
    b_ge, s_bge = debye_waller_correct(8.0829, 0.0015, 0.57, 0.01, q_ge)
    bne_ge, s_ge = extract_bne_single(b_ge, s_bge, 8.1929, 0.0017, 32, 0.8542)
    ok &= abs(bne_ge - 0.28e-3) <= 0.05e-3 and abs(s_ge - 0.83e-3) <= 0.08e-3
    _report(5, "single-point b_ne extraction", ok,
            f"Si {bne_si * 1e3:.3f}({s_si * 1e3:.2f})e-3, "
            f"Ge {bne_ge * 1e3:.3f}({s_ge * 1e3:.2f})e-3 fm")


def test_criterion_6_projected_precisions(tmp_path):
    # Drive the actual `budget` command and check its CSV (primary
    # documented configuration: forward point in, sigma_B propagated).
    import csv

    from pendellosung.cli import main

    assert main(["budget", "--primary-only", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "budget.csv", newline="") as fh:
        rows = {r["set"]: r for r in csv.DictReader(fh)}
    b3_B = float(rows["strong"]["sigma_B_A2"])
    b3_ne = float(rows["strong"]["sigma_bne_fm"])
    b8_B = float(rows["new"]["sigma_B_A2"])
    b8_ne = float(rows["new"]["sigma_bne_fm"])
    ok = abs(b3_B / 0.00040 - 1) <= 0.25 and abs(b3_ne / 0.11e-3 - 1) <= 0.25
    ok &= abs(b8_B / 0.00027 - 1) <= 0.25 and abs(b8_ne / 0.06e-3 - 1) <= 0.25
    _report(6, "projected precisions", ok,
            f"strong: {b3_B:.5f}/{b3_ne * 1e3:.4f}e-3, "
            f"eight: {b8_B:.5f}/{b8_ne * 1e3:.4f}e-3")


def test_criterion_7_fringe_counts(si_model, blade, default_window):
    c711 = fringe_count(SILICON, si_model, Reflection(7, 1, 1), blade, default_window)
    counts_711 = (c711.period_count, c711.antinode_count)
    ok = any(38 <= c <= 50 for c in counts_711)
    c111 = fringe_count(SILICON, si_model, Reflection(1, 1, 1), blade, default_window)
    ok &= 38 <= c111.period_count <= 46
    _report(7, "fringe counts", ok,
            f"(711) periods/antinodes = {counts_711}, (111) periods = {c111.period_count}")


def test_criterion_8a_bessel_oracle_sweep():
    xs = np.linspace(0.0, 500.0, 10_000)
    worst = 0.0
    for x in xs:
        worst = max(worst, abs(bessel_j0(float(x)) - j0_oracle(float(x))))
    ok = worst < 1e-9
    _report(8, "property: J0 oracle sweep", ok, f"worst |err| = {worst:.2e} over 1e4 pts")


def test_criterion_8b_round_trip_fits(si_model, pure_plans):
    new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
    ms = synth_measurements(si_model, SILICON, new, sigma=0.0, seed=0)
    # Linear-in-amplitude route: exact recovery.
    bne_lin, _ = fit_bne(ms, SILICON, si_model.form_factor)
    lin_rel = abs(bne_lin + 1.31e-3) / 1.31e-3
    # Refined joint fit.
    fit = joint_fit(ms, SILICON, si_model.form_factor)
    ref_rel = max(abs(fit.value("B") - 0.4613) / 0.4613,
                  abs(fit.value("b_ne") + 1.31e-3) / 1.31e-3)
    ok = lin_rel < 1e-6 and ref_rel < 1e-10
    _report(8, "property: noiseless round-trips", ok,
            f"linear route {lin_rel:.1e}, refined joint {ref_rel:.1e}")


def test_criterion_8c_monte_carlo(si_model, pure_plans):
    new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
    res = monte_carlo_validate(si_model, SILICON, new, sigma=0.0008,
                               n_trials=100_000, seed=17)
    worst = float(np.max(np.abs(res.sigma_ratios - 1.0)))
    ok = worst <= 0.02
    _report(8, "property: Monte-Carlo covariance", ok,
            f"max |empirical/analytic - 1| = {worst:.4f} at 1e5 trials")


def test_criterion_8d_debye_waller_round_trip(si_model):
    worst = 0.0
    for q in np.linspace(0.0, 0.7, 200):
        try:
            forward = b_meas(SILICON, si_model, q)
        except Exception:
            continue
        from pendellosung import b_of_q

        back = debye_waller_correct(forward, 0.0, si_model.B, 0.0, q)[0]
        b_q = b_of_q(SILICON, si_model, q)
        worst = max(worst, abs(back - b_q) / b_q)
    ok = worst < 1e-12
    _report(8, "property: Debye-Waller round-trip", ok, f"worst rel = {worst:.2e}")


def test_criterion_8e_classification_partition():
    counts = dict.fromkeys(ReflectionClass, 0)
    for h in range(-12, 13):
        for k in range(-12, 13):
            for l in range(-12, 13):
                counts[classify(Reflection(h, k, l))] += 1
    total = sum(counts.values())
    ok = total == 25**3 and all(v > 0 for v in counts.values())
    _report(8, "property: classification partition", ok,
            f"{total} triples, counts {dict((str(k), v) for k, v in counts.items())}")


def test_criterion_9_radius_conversion():
    # Independent oracle: same defining relation assembled from
    # independently entered constants.
    alpha = 1.0 / 137.035999084
    m_n_c2 = 939.56542052  # MeV
    hbar_c = 197.3269804   # MeV fm
    b_ne = -1.467971e-3
    oracle = 3.0 * hbar_c * b_ne / (alpha * m_n_c2)
    r2, _ = charge_radius_from_bne(b_ne)
    ok = abs(r2 - oracle) < 1e-4 and abs(r2 + 0.1267) < 2e-4
    _report(9, "charge-radius conversion", ok,
            f"<r^2> = {r2:.6f} fm^2 vs oracle {oracle:.6f}")
