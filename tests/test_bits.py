"""The bit-identity tool (bits.py): its case generator, digests and check,
on a subset of the cases; the whole list runs with
``python tests/bits.py --check FILE`` against a record of another tree."""

import json
import math

import numpy as np

import bits

KINDS = {"profile", "fringe_count", "pendellosung_argument", "bessel_j0", "monte_carlo",
         "survey", "plan_reflection", "f_at", "temperature_factor_sigmas", "error_budget",
         "synth", "joint_fit", "fit_temperature_factor", "fit_bne"}


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
              "free=True refine=True"]
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
