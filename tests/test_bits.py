"""The bit-identity tool (bits.py): its case generator, digests and check,
on a subset of the cases; the whole list runs with
``python tests/bits.py --check FILE`` against a record of another tree."""

import json
import math

import numpy as np

import bits

KINDS = {"profile", "fringe_count", "pendellosung_argument", "bessel_j0", "monte_carlo",
         "survey", "plan_reflection", "f_at", "temperature_factor_sigmas", "error_budget",
         "synth", "joint_fit", "fit_temperature_factor", "fit_bne", "normal_cov", "sigma_range",
         "reflection", "synth_sigma", "debye_waller", "real_args", "line"}


def _first_of_each_kind():
    bits._build()
    first = {}
    for name in bits.CASES:
        first.setdefault(name.split()[0], name)
    return first


def test_every_kind_of_case_is_generated():
    first = _first_of_each_kind()
    assert set(first) == KINDS
    assert len(bits.CASES) > 1800


def test_subset_digests_repeat():
    names = [name for kind, name in _first_of_each_kind().items()
             if kind not in ("bessel_j0", "monte_carlo")]
    names += ["monte_carlo n=2 seed=0 forward=True", "joint_fit pair seed=0 forward=False "
              "free=True refine=True",
              "normal_cov p=3 scale=1e0 kappa=1e+13", "normal_cov p=2 scale=1e160 kappa=1",
              "normal_cov rank-deficient p=3 scale=1e-160 seed=0",
              "sigma_range error_budget sigma=1e+300 forward=True",
              "sigma_range monte_carlo sigma=1e-300", "sigma_range joint_fit sigma=1e-300",
              "sigma_range fit_bne sigma=1e+300", "sigma_range fit_temperature_factor sigma=1e-300",
              "sigma_range joint_fit one row sigma=1e+76", "reflection bool index label",
              "synth_sigma wrong length", "debye_waller fit_bne B=100000 forward=True",
              "real_args int joint_fit", "real_args float32 bragg_angle",
              "bessel_j0 tiny and nan", "bessel_j0 float 1e+300",
              "profile Si 111 maxwellian t=0.03125 n=16385",
              "synth window SpectrumWindow(lambda_min=0.3, lambda_max=4.0, lambda_peak=1.2, "
              "two_theta_min=15.0, two_theta_max=110.0) sigma=per-reflection seed=1",
              "synth window SpectrumWindow(lambda_min=0.5, lambda_max=1.6, lambda_peak=1.2, "
              "two_theta_min=15.0, two_theta_max=150.0) sigma=0.0008 seed=0"]
    assert bits.run(names) == bits.run(names)


def test_digest_sees_the_last_bit_and_the_error():
    one = bits.digest(lambda: 1.0)
    assert one != bits.digest(lambda: math.nextafter(1.0, 2.0))
    assert one == bits.digest(lambda: np.float64(1.0))
    assert bits.digest(lambda: np.array([1.0, 2.0])) != bits.digest(lambda: np.array([[1.0, 2.0]]))
    assert bits.digest(lambda: [1.0, 2.0]) != bits.digest(lambda: [[1.0], 2.0])

    def refused():
        raise ValueError("no")

    assert bits.digest(refused) == bits.digest(lambda: ("raised", "ValueError", "no"))


def test_check_names_each_differing_case(tmp_path, monkeypatch, capsys):
    values = {"a": 1.0, "b": 2.0}
    monkeypatch.setattr(bits, "_build", lambda: None)
    monkeypatch.setattr(bits, "CASES", {name: (lambda n=name: values[n]) for name in values})
    record = tmp_path / "bits.json"
    assert bits.main(["--record", str(record)]) == 0
    assert set(json.loads(record.read_text())["cases"]) == {"a", "b"}
    assert bits.main(["--check", str(record)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 cases identical"
    values["b"] = math.nextafter(2.0, 3.0)
    assert bits.main(["--check", str(record)]) == 1
    assert capsys.readouterr().out.splitlines() == ["DIFFERS b", "1 case(s) differ of 2"]


def test_check_refuses_a_record_of_another_kernel(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bits, "_build", lambda: None)
    monkeypatch.setattr(bits, "CASES", {"a": lambda: 1.0})
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    record = tmp_path / "bits.json"
    assert bits.main(["--record", str(record)]) == 0
    assert json.loads(record.read_text())["kernel"] == bits.kernel()
    capsys.readouterr()
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    assert bits.main(["--check", str(record)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"refused: {record} was recorded under another BLAS kernel "
        "(OPENBLAS_CORETYPE None, here 'Prescott')"]
    # A record made before kernels were stored is checked case by case.
    data = json.loads(record.read_text())
    del data["kernel"]
    record.write_text(json.dumps(data))
    assert bits.main(["--check", str(record)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 1 cases identical"
