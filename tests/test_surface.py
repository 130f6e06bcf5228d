"""The package's public surface: pendellosung.__all__, declared once."""

import inspect
import re
import types
from pathlib import Path

import pendellosung

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "pendellosung" / "__init__.py"


def test_all_is_the_fifty_nine_public_names():
    assert len(pendellosung.__all__) == len(set(pendellosung.__all__)) == 59
    public = {name for name, value in vars(pendellosung).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(pendellosung.__all__) == public


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pendellosung import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pendellosung.__all__)
    assert all(namespace[name] is getattr(pendellosung, name) for name in namespace)


def test_each_public_name_is_written_once():
    text = INIT.read_text()
    assert {name: len(re.findall(rf"\b{name}\b", text)) for name in pendellosung.__all__} == {
        name: 1 for name in pendellosung.__all__}


def test_removed_slope_function_is_named_nowhere():
    # Spelled in two parts, so that this file does not name it either.
    removed = "slope_" + "uncertainty"
    named = [str(path.relative_to(ROOT)) for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py")) if removed in path.read_text()]
    assert named == []
    assert not hasattr(pendellosung.inference, removed)



def test_constants_type_is_private_to_its_module():
    assert "PhysicalConstants" not in pendellosung.__all__
    assert not hasattr(pendellosung, "PhysicalConstants")
    assert type(pendellosung.CODATA) is pendellosung.constants.PhysicalConstants


def test_radius_conversion_has_one_binding_and_no_constants_argument():
    convert = pendellosung.charge_radius_from_bne
    assert convert is pendellosung.constants.charge_radius_from_bne
    assert not hasattr(pendellosung.inference, "charge_radius_from_bne")
    assert list(inspect.signature(convert).parameters) == ["b_ne", "sigma_b_ne"]
