"""Diamond-structure crystal math.

Momentum transfer, reflection classes with their |F| / b amplitudes,
structure factors, the Debye-Waller correction, and the Q-dependent
scattering length

    b(Q) = b_nuclear - b_ne * Z * [1 - f(Q)]

whose tiny electrostatic term carries the neutron charge-radius signal.
b_nuclear and Z are the crystal's; a ScatteringModel holds only the b_ne
hypothesis, the simulated B and f(Q), so b_of_q and b_meas take both. The
built-in crystals carry f(Q) tables sampled at their own Q/4pi.
All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (ForbiddenReflection, NoReflection, PendellosungError, _any, _integer,
                     _non_negative, _positive, _real)
from .formfactor import FormFactorTable


class ReflectionClass(enum.Enum):
    """Diamond-structure reflection classes by Miller-index parity.

    Mixed parity is extinct for any fcc lattice; for all-even or all-odd
    indices the two-atom basis gives |1 + i^(h+k+l)| = 0, sqrt(2) or 2.
    Each member carries its amplitude |F| / b_meas = 4 |1 + i^(h+k+l)|,
    zero for the extinct classes.
    """

    DISALLOWED = ("disallowed", 0.0)       # mixed parity (fcc extinction)
    FORBIDDEN = ("forbidden", 0.0)         # h+k+l = 2 mod 4 (basis interference)
    WEAK = ("weak", 4.0 * math.sqrt(2.0))  # h+k+l odd
    STRONG = ("strong", 8.0)               # h+k+l = 0 mod 4

    def __new__(cls, value: str, amplitude: float):
        member = object.__new__(cls)
        member._value_ = value
        member.amplitude = amplitude
        member.extinct = amplitude == 0.0  # |F| = 0 whatever the crystal
        return member

    def __str__(self):
        return self.value


# The members as module names, which _class_of reads faster than the class's.
_DISALLOWED, _FORBIDDEN, _WEAK, _STRONG = ReflectionClass


@dataclass(frozen=True, order=True)
class Reflection:
    """Miller indices (h, k, l)."""

    h: int
    k: int
    l: int

    def __post_init__(self):
        # Exact ints pass on their types, without the helper's call.
        if type(self.h) is type(self.k) is type(self.l) is int:
            return
        for v in (self.h, self.k, self.l):
            _integer(v, lambda n: True, "Miller indices must be integers")

    @property
    def n_sq(self) -> int:
        """h^2 + k^2 + l^2."""
        return self.h * self.h + self.k * self.k + self.l * self.l

    def canonical(self) -> "Reflection":
        """Equivalent reflection with h >= k >= l >= 0 (self if it is one)."""
        if self.h >= self.k >= self.l >= 0:
            return self
        h, k, l = sorted((abs(self.h), abs(self.k), abs(self.l)), reverse=True)
        return Reflection(h, k, l)

    def scaled(self, n: int) -> "Reflection":
        return Reflection(n * self.h, n * self.k, n * self.l)

    def primitive(self) -> tuple["Reflection", int]:
        """Direction generator along the same reciprocal-lattice ray.

        Returns (g, m) with self = m * g and gcd(g) = 1; (self, 1) when self
        is primitive, and for (0,0,0), whose generator is itself.
        """
        g = math.gcd(self.h, self.k, self.l)
        if g <= 1:
            return self, 1
        return Reflection(self.h // g, self.k // g, self.l // g), g

    def label(self) -> str:
        if max(abs(self.h), abs(self.k), abs(self.l)) < 10 and min(self.h, self.k, self.l) >= 0:
            return f"{self.h}{self.k}{self.l}"
        return f"{self.h},{self.k},{self.l}"


def classify(r: Reflection) -> ReflectionClass:
    """Assign the reflection class; the four cases partition all triples."""
    return _class_of(r.h, r.k, r.l)


def _class_of(h: int, k: int, l: int) -> ReflectionClass:
    """classify for an integer triple, for walks that build no Reflection."""
    if not h % 2 == k % 2 == l % 2:
        return _DISALLOWED
    s = h + k + l
    if s % 2 != 0:
        return _WEAK
    return _STRONG if s % 4 == 0 else _FORBIDDEN


@dataclass(frozen=True)
class CrystalSpec:
    """A cubic diamond-structure crystal with its measured bulk constants.

    a0                lattice constant, angstrom
    Z                 atomic number
    b_nuclear         forward nuclear scattering length, fm (one sigma)
    B                 temperature factor, angstrom^2 (one sigma)
    """

    name: str
    a0: float
    Z: int
    b_nuclear: float
    sigma_b_nuclear: float
    B: float
    sigma_B: float

    def __post_init__(self):
        for name in ("a0", "b_nuclear", "sigma_b_nuclear", "B", "sigma_B"):
            object.__setattr__(self, name, _real(getattr(self, name), math.isfinite,
                                                 f"{name} must be finite"))
        if self.a0 <= 0:
            raise ValueError("a0 must be positive")
        z = _integer(self.Z, lambda n: n >= 1, "Z must be an integer >= 1")
        _real(z, _positive, "Z must lie in the float range")  # b(Q) takes b_ne * Z
        object.__setattr__(self, "Z", z)
        if self.b_nuclear <= 0:
            raise ValueError("b_nuclear must be positive")
        for name in ("B", "sigma_b_nuclear", "sigma_B"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ScatteringModel:
    """The b_ne hypothesis of b(Q); b_nuclear and Z come from the crystal.

    b_ne       neutron-electron scattering length, fm (signed, ~1e-3 fm)
    B          temperature factor of the simulation, angstrom^2
    form_factor  normalized atomic form factor table
    """

    b_ne: float
    B: float
    form_factor: FormFactorTable

    def __post_init__(self):
        object.__setattr__(self, "b_ne", _real(self.b_ne, math.isfinite, "b_ne must be finite"))
        object.__setattr__(self, "B", _real(self.B, _non_negative,
                                            "B must be non-negative and finite"))


def q_over_4pi(crystal: CrystalSpec, r: Reflection) -> float:
    """Q/4pi = sqrt(h^2+k^2+l^2) / (2 a0) in 1/angstrom; NoReflection past floats."""
    try:
        return math.sqrt(r.n_sq) / (2.0 * crystal.a0)
    except OverflowError:
        raise NoReflection(f"({r.label()}): Q/4pi is past the float range") from None


def debye_waller(B: float, q_over_4pi: float) -> float:
    """Thermal attenuation exp[-B (Q/4pi)^2]; 1 at Q=0 or B=0. ValueError
    for a Q/4pi that is not a real number in the float range or leaves it
    undefined (NaN, or infinite at B = 0)."""
    B = _real(B, _non_negative, "B must be non-negative and finite")
    q = _real(q_over_4pi, _any, "Q/4pi must be a real number in the float range")
    dw = math.exp(-B * q * q)  # B >= 0: no overflow
    if dw != dw:
        raise ValueError(f"Q/4pi = {q:.6g} 1/A leaves exp(-B (Q/4pi)^2) undefined "
                         f"at B = {B:.6g} A^2")
    return dw


def b_of_q(crystal: CrystalSpec, m: ScatteringModel, q_over_4pi: float) -> float:
    """Scattering length b(Q) = b_nuclear - b_ne Z [1 - f(Q)], in fm."""
    return _b_of_f(crystal, m, m.form_factor.f_at(q_over_4pi))


def _b_of_f(crystal: CrystalSpec, m: ScatteringModel, f: float) -> float:
    """b(Q) from a form factor f = f(Q) already looked up, in fm."""
    return crystal.b_nuclear - m.b_ne * crystal.Z * (1.0 - f)


def b_meas(crystal: CrystalSpec, m: ScatteringModel, q_over_4pi: float) -> float:
    """Measured (thermally attenuated) value b(Q) exp[-B (Q/4pi)^2], fm."""
    return b_of_q(crystal, m, q_over_4pi) * debye_waller(m.B, q_over_4pi)


def _positive_amplitude(m: ScatteringModel, r: Reflection, b: float) -> float:
    """b, the model's b_meas at r; ValueError unless it is positive, since no
    |F|, log row or weight could take it."""
    if not b > 0:
        raise ValueError(f"model amplitude at ({r.label()}) is {b:.6g} fm, not positive "
                         f"(b_ne = {m.b_ne:.6g} fm, B = {m.B:.6g} A^2)")
    return b


def structure_factor_magnitude(crystal: CrystalSpec, m: ScatteringModel, r: Reflection) -> float:
    """|F_hkl| in fm: 4 |1 + i^(h+k+l)| b_meas(Q_hkl); 0 if extinct.

    ValueError when b_meas of an observable reflection is not positive, and
    PendellosungError when |F|^2 is past the float range.
    """
    cls = classify(r)
    if cls.extinct:
        return 0.0
    b = _positive_amplitude(m, r, b_meas(crystal, m, q_over_4pi(crystal, r)))
    f = cls.amplitude * b
    if f * f == math.inf:  # a float product overflows to inf, where f ** 2 raises
        raise PendellosungError(f"({r.label()}): |F| = {f:.6g} fm is too large to square "
                                f"(b_ne = {m.b_ne:.6g} fm, Z = {crystal.Z:.6g})")
    return f


def require_observable(r: Reflection) -> ReflectionClass:
    """Return the class, raising ForbiddenReflection for extinct ones."""
    cls = classify(r)
    if cls.extinct:
        raise ForbiddenReflection(f"({r.label()}) is {cls} (|F| = 0)")
    return cls


SILICON = CrystalSpec(
    name="Si", a0=5.43072, Z=14,
    b_nuclear=4.1507, sigma_b_nuclear=0.0002,
    B=0.4613, sigma_B=0.0027,
)

GERMANIUM = CrystalSpec(
    name="Ge", a0=5.6575, Z=32,
    b_nuclear=8.1929, sigma_b_nuclear=0.0017,
    B=0.57, sigma_B=0.01,
)

BUILTIN_CRYSTALS = {"Si": SILICON, "Ge": GERMANIUM}


def _survey_table(crystal: CrystalSpec, f_by_hkl: dict) -> FormFactorTable:
    """f(Q) sampled at the crystal's own Q/4pi of each listed reflection."""
    return FormFactorTable(crystal.name, ((0.0, 1.0),) + tuple(
        (q_over_4pi(crystal, Reflection(*hkl)), f) for hkl, f in f_by_hkl.items()))


# Form factors at the thermal-survey reflections; (551) shares the q and f
# of (711), so it needs no entry.
SILICON_TABLE = _survey_table(SILICON, {
    (1, 1, 1): 0.7526, (4, 2, 2): 0.4788, (5, 1, 1): 0.4600, (5, 3, 1): 0.4150,
    (6, 2, 0): 0.3902, (5, 3, 3): 0.3764, (7, 1, 1): 0.3432, (6, 4, 2): 0.3249})
GERMANIUM_TABLE = _survey_table(GERMANIUM, {(1, 1, 1): 0.8542})
BUILTIN_TABLES = {"Si": SILICON_TABLE, "Ge": GERMANIUM_TABLE}


def scattering_model(crystal: CrystalSpec, b_ne: float,
                     table: FormFactorTable | None = None,
                     B: float | None = None) -> ScatteringModel:
    """Build a ScatteringModel for a crystal and a b_ne hypothesis."""
    if table is None:
        try:
            table = BUILTIN_TABLES[crystal.name]
        except KeyError:
            raise ValueError(f"no built-in form-factor table for {crystal.name}; pass one")
    return ScatteringModel(b_ne=b_ne, B=crystal.B if B is None else B, form_factor=table)
