"""Command-line front end.

Commands: plan, simulate, fit, budget, radius, mc, synth. Global flags
``--config`` (INI file, schema below), ``--seed`` and ``--out``. All
outputs are deterministic for a given (config, seed): CSV numbers carry
six significant digits, row order is fixed by increasing momentum
transfer. Exit codes: 0 success, 2 configuration error, 3 data error.

Config schema (all sections and keys optional)::

    [crystal]
    name = Si                ; Si or Ge, or give all constants inline:
    a0 = 5.43072             ; angstrom
    Z = 14
    b_nuclear = 4.1507       ; fm
    sigma_b_nuclear = 0.0002
    B = 0.4613               ; angstrom^2
    sigma_B = 0.0027

    [spectrum]
    lambda_min = 0.8         ; angstrom
    lambda_max = 2.5
    lambda_peak = 1.2
    two_theta_min = 15       ; degrees
    two_theta_max = 110

    [blade]
    thickness_cm = 1.0

    [model]
    reference = argonne      ; argonne | dubna | theory, or:
    b_ne = -1.31e-3          ; fm
    B = 0.4613               ; override for the simulation model

    [fit]
    include_forward = true
    free_intercept = true

    [run]
    seed = 0
    out = out
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import fringes, inference, lattice, planner
from .constants import CODATA
from .errors import (ConfigError, FormFactorRangeError, PendellosungError, SurveyTooLarge,
                     _non_negative, _positive)
from .formfactor import table_from_csv
from .lattice import BUILTIN_TABLES, CrystalSpec, Reflection, ScatteringModel


def _checked(cast, ok, name):
    """Range-checked argument type. argparse quotes name in its message
    ("invalid integer >= 2 value: '1'"); load_config turns the ValueError
    into a ConfigError."""
    def convert(text):
        value = cast(text)
        if not ok(value):
            raise ValueError(name)
        return value
    convert.__name__ = name
    return convert


_SEED = _checked(int, lambda v: v >= 0, "non-negative integer")
_COUNT = _checked(int, lambda v: v >= 2, "integer >= 2")
_FINITE = _checked(float, math.isfinite, "finite number")
_NON_NEGATIVE = _checked(float, _non_negative, "non-negative finite number")
_POSITIVE = _checked(float, _positive, "positive finite number")


def _trials(text):
    """--trials: an integer >= 2 (refused as _COUNT refuses it) and at most
    inference.MAX_MC_TRIALS, refused with its own message."""
    n = _COUNT(text)
    if n > inference.MAX_MC_TRIALS:
        raise argparse.ArgumentTypeError(
            f"{n} trials is past the cap of {inference.MAX_MC_TRIALS}")
    return n


_trials.__name__ = _COUNT.__name__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# Reference b_ne hypotheses: [model] reference key -> (label, b_ne, sigma),
# in fm, listed by the radius command in this order.
_REFERENCE_BNE = {
    "theory": ("theory (Foldy)", CODATA.b_ne_theory_fm, CODATA.sigma_b_ne_theory_fm),
    "argonne": ("argonne", CODATA.b_ne_argonne_fm, CODATA.sigma_b_ne_argonne_fm),
    "dubna": ("dubna", CODATA.b_ne_dubna_fm, CODATA.sigma_b_ne_dubna_fm),
}


@dataclass(frozen=True)
class RunConfig:
    crystal: CrystalSpec
    window: planner.SpectrumWindow
    blade: fringes.BladeGeometry
    model: ScatteringModel  # b_ne hypothesis, simulation B and form factors
    include_forward: bool
    free_intercept: bool
    seed: int
    out_dir: Path


def _boolean(text):
    """configparser's boolean words (true/false, yes/no, on/off, 1/0)."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text}")
    return value


# Config section -> key -> converter of the raw string.
_SCHEMA = {
    "crystal": {"name": str, "a0": float, "z": int, "b_nuclear": float,
                "sigma_b_nuclear": float, "b": float, "sigma_b": float,
                "form_factor_csv": str},
    # [spectrum] keys are the SpectrumWindow constructor's field names.
    "spectrum": {f.name: float for f in fields(planner.SpectrumWindow) if f.init},
    "blade": {"thickness_cm": float},
    "model": {"reference": str, "b_ne": _FINITE, "b": _NON_NEGATIVE},
    "fit": {"include_forward": _boolean, "free_intercept": _boolean},
    "run": {"seed": _SEED, "out": str},
}


def load_config(path: str | None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:  # its message spans lines; keep one
            detail = " ".join(part.strip() for part in str(exc).splitlines())
            raise ConfigError(f"malformed config {path}: {detail}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default):
        try:
            raw = cp.get(section, key, fallback=None)
            return default if raw is None else _SCHEMA[section][key](raw)
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad value for [{section}] {key}") from exc

    name = get("crystal", "name", "Si")
    base = lattice.BUILTIN_CRYSTALS.get(name)
    if base is None and not cp.has_option("crystal", "a0"):
        raise ConfigError(f"unknown crystal {name!r} and no inline constants given")
    try:
        # [crystal] keys are the CrystalSpec field names, lower-cased.
        crystal = CrystalSpec(name=name, **{
            key: get("crystal", key.lower(), getattr(base, key, 0))
            for key in ("a0", "Z", "b_nuclear", "sigma_b_nuclear", "B", "sigma_B")
        })
        window = planner.SpectrumWindow(**{
            key: get("spectrum", key, getattr(planner.DEFAULT_WINDOW, key))
            for key in _SCHEMA["spectrum"]
        })
        blade = fringes.BladeGeometry(thickness_cm=get(
            "blade", "thickness_cm", fringes.BladeGeometry.thickness_cm))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    table_path = get("crystal", "form_factor_csv", None)
    if table_path is not None:
        try:
            table = table_from_csv(table_path, element=crystal.name)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"form-factor table: {exc}") from exc
    else:
        table = BUILTIN_TABLES.get(crystal.name)
        if table is None:
            raise ConfigError(f"no built-in form factors for {crystal.name!r}; "
                              "set [crystal] form_factor_csv")

    reference = get("model", "reference", "argonne")
    if reference not in _REFERENCE_BNE:
        raise ConfigError(f"unknown model reference {reference!r}")

    b_ne = get("model", "b_ne", _REFERENCE_BNE[reference][1])
    model = lattice.scattering_model(crystal, b_ne, table, get("model", "b", crystal.B))
    return RunConfig(
        crystal=crystal, window=window, blade=blade, model=model,
        include_forward=get("fit", "include_forward", True),
        free_intercept=get("fit", "free_intercept", True),
        seed=get("run", "seed", 0),
        out_dir=Path(get("run", "out", "out")),
    )


# --- small formatting helpers -------------------------------------------


# Six significant digits for every number a CSV carries.
_FMT = "%.6g"
# Rows of a column CSV formatted per write.
_BLOCK_ROWS = 4096


def _fmt(x) -> str:
    return _FMT % x


def _parse_hkl(text: str) -> Reflection:
    s = text.strip().strip("()")
    try:
        if "," in s:
            h, k, l = (int(p) for p in s.split(","))
        elif len(s) == 3:
            h, k, l = (int(c) for c in s)
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"cannot parse reflection {text!r}; use e.g. 422 or 4,2,2")
    return Reflection(h, k, l)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _block_formatter(n_cols):
    """Return format(block) -> bytes for an (n, n_cols) float block of at
    most _BLOCK_ROWS rows: the CSV rows of the block, every value exactly
    as _FMT % x.

    A value 1e-4 <= x < 999999.5 prints in fixed notation: its six
    digits are r = rint(m), m = x * 10**(5 - e), e its decimal exponent
    (r = 10**6 carries to 100000 at e + 1). 10**(5 - e) is an exact
    double for every e in [-4, 5], so m is one correctly rounded product,
    within 1.2e-10 of the exact one, and rint gives the correctly rounded
    digits unless m lies within 1e-9 of a half-integer. Each field is a
    16-byte slot: the text, zero bytes, and the separator in byte 15, set
    at allocation. The numpy path builds bytes 0-11 (at most 11 characters
    from three-digit ASCII groups, r split in integers) in contiguous
    scratch and stores them once. Every other value (not positive, not
    finite, out of range, or at or near a rounding tie) is formatted by
    _FMT % x into all 16, so % stays the one specification; its bytes 8-15
    go back to zeros and the separator once the block is compacted.

    The working arrays, slots included, are allocated here once for
    _BLOCK_ROWS rows; each call fills the first n rows of each in place.
    Memory freed and taken again every block is what the C heap tends to
    hand back to the kernel and fault in anew, page by page."""
    import numpy as np  # local, so that cli itself does not need numpy

    u8 = np.dtype("<u8")

    def low(n_bytes):
        return (1 << 8 * n_bytes) - 1

    k = np.arange(1000)
    digits3 = ((48 + k // 100) | (48 + k // 10 % 10) << 8 | (48 + k % 10) << 16).astype(u8)
    # Trailing zeros, 3 for 000.
    zeros3 = sum(k % 10**j == 0 for j in (1, 2, 3)).astype(np.intp)

    # Tables by j = 6 (e + 4) + z, z the trailing zeros of r. Stripped are
    # cut = min(z, 5 - e) digits: never the e + 1 before the point, which
    # is dropped too when no digit follows it. For e < 0 the digits follow
    # "0.000" cut to 1 - e characters; the top `shift` bits go to the second word
    # (numpy shifts by 64 to 0). `frac` marks the digits after the point, moved up a byte.
    exps = range(-4, 6)
    scale = np.array([10.0 ** (5 - e) for e in exps])
    head, strip, shift, frac = ([] for _ in range(4))
    for e in exps:
        for z in range(6):
            cut = min(z, 5 - e)
            strip.append(low(6 - cut))
            if e >= 0:
                head.append(ord(".") << 8 * (e + 1) if cut < 5 - e else 0)
                shift.append(0)
                frac.append(low(6) & ~low(e + 1))
            else:
                head.append(int.from_bytes(b"0.000"[:1 - e], "little"))
                shift.append(8 * (1 - e))
                frac.append(0)
    head, strip, shift, frac = (np.array(t, u8) for t in (head, strip, shift, frac))

    seps = [b","] * (n_cols - 1) + [b"\n"]
    last = np.array([c[0] << 56 for c in seps], u8)

    # A bytearray, so that dropping the zero bytes of a full block reads it in place.
    shape = (_BLOCK_ROWS, n_cols)
    slots = bytearray(_BLOCK_ROWS * n_cols * 16)
    words = np.frombuffer(slots, u8).reshape(shape + (2,))
    words[..., 1] = last
    scratch = (words, words.view("<u4")[..., 2],
               *(np.empty(shape, bool) for _ in range(3)),
               *(np.empty(shape) for _ in range(2)),
               *(np.empty(shape, np.intp) for _ in range(4)),
               *(np.empty(shape, u8) for _ in range(2)))

    def compact(n_bytes):
        return (slots if n_bytes == len(slots) else slots[:n_bytes]).translate(None, b"\0")

    def format_block(block):
        # take() with mode="clip" writes straight into out=, and keeps in
        # range the indices of values off the fast path, whose slots % fills.
        words, ends, fast, up, flag, x, m, i, j, hi, lo, d, t = (
            s[:len(block)] for s in scratch)
        with np.errstate(all="ignore"):
            # 1e-4 <= x <= 999999.5, nan out; 999999.5 goes to % as a tie.
            np.equal(np.clip(block, 1e-4, 999999.5, out=x), block, out=fast)
            # e + 4; log10 is off by one only next to a power of ten, where
            # m leaves [1e5, 1e6) and the value goes to %.
            np.log10(x, out=m)
            m += 4
            np.copyto(i, m, casting="unsafe")
            np.take(scale, i, out=m, mode="clip")
            m *= x
            np.rint(m, out=x)  # r
            np.copyto(lo, x, casting="unsafe")
            fast &= np.greater_equal(m, 1e5, out=flag)
            fast &= np.less(m, 1e6, out=flag)
            np.subtract(x, m, out=x)
            np.abs(x, out=x)
            fast &= np.less(x, 0.5 - 1e-9, out=flag)
        # r = 10**6 rounds up to the next power of ten.
        np.copyto(lo, 100000, where=np.equal(lo, 1000000, out=up))
        np.add(i, 1, out=i, where=up)
        np.floor_divide(lo, 1000, out=hi)
        np.multiply(hi, 1000, out=j)
        lo -= j
        z, w = m.view(np.intp), x.view(u8)  # both free after the tie test
        np.take(zeros3, lo, out=j, mode="clip")
        np.take(zeros3, hi, out=z, mode="clip")
        z += 3
        np.copyto(j, z, where=np.equal(lo, 0, out=flag))
        i *= 6
        j += i
        np.take(digits3, lo, out=d, mode="clip")
        d <<= np.uint64(24)
        d |= np.take(digits3, hi, out=t, mode="clip")
        d &= np.take(strip, j, out=t, mode="clip")
        np.left_shift(d, np.take(shift, j, out=t, mode="clip"), out=w)
        np.right_shift(d, np.subtract(np.uint64(64), t, out=t), out=t)
        ends[...] = t
        np.take(frac, j, out=t, mode="clip")
        t &= d
        t *= np.uint64(255)
        w += t
        w |= np.take(head, j, out=t, mode="clip")
        words[..., 0] = w
        if fast.all():
            return compact(words.nbytes)
        at = np.flatnonzero(np.invert(fast, out=flag))
        cols, pairs = at % n_cols, words.reshape(-1, 2)
        text = b"".join((_FMT % v).encode().ljust(15, b"\0") + seps[c]
                        for v, c in zip(block.take(at).tolist(), cols.tolist()))
        pairs[at] = np.frombuffer(text, u8).reshape(-1, 2)
        out = compact(words.nbytes)
        pairs[at, 1] = last[cols]  # a 13-character % text reaches byte 12
        return out

    return format_block


def _write_columns(path: Path, header, columns):
    """CSV of equal-length numeric columns, formatted in blocks of
    _BLOCK_ROWS rows by _block_formatter: each value as _FMT % x, in
    fixed notation from numpy arrays where the digits are provably those
    of %, by % itself otherwise. The writer's memory stays at one block
    whatever the column length, and is allocated once per file: each
    block's columns are copied into the same float array, and a short
    last block compacts only the slots it wrote. A .6g number never holds
    a comma, a quote or a newline, so no field needs csv quoting."""
    import numpy as np  # local, so that cli itself does not need numpy

    format_block = _block_formatter(len(columns))
    block = np.empty((_BLOCK_ROWS, len(columns)))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        n_rows = len(columns[0])
        for start in range(0, n_rows, _BLOCK_ROWS):
            b = block[:min(_BLOCK_ROWS, n_rows - start)]
            for c, col in enumerate(columns):
                b[:, c] = col[start:start + len(b)]
            fh.write(format_block(b))


def read_measurements_csv(path) -> list:
    """Read a measurement file with header h,k,l,b_meas_fm,sigma_fm."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["h", "k", "l", "b_meas_fm", "sigma_fm"]:
                raise PendellosungError(f"{path}: expected header h,k,l,b_meas_fm,sigma_fm")
            out = []
            for row in reader:
                if not row:
                    continue
                if len(row) != 5:
                    raise ValueError(f"expected 5 fields, got {len(row)}")
                out.append(inference.Measurement(
                    reflection=Reflection(int(row[0]), int(row[1]), int(row[2])),
                    b_meas=float(row[3]), sigma=float(row[4]),
                ))
    except (OSError, UnicodeDecodeError) as exc:
        raise PendellosungError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise PendellosungError(f"{path}: bad measurement row: {exc}") from exc
    return out


# --- commands ------------------------------------------------------------


def cmd_plan(cfg: RunConfig, args) -> int:
    result = planner.survey(cfg.crystal, cfg.window, strict=args.strict)
    plans = result.plans if args.all else result.pure
    rows = []
    for p in plans:
        try:
            f_val = _fmt(cfg.model.form_factor.f_at(p.q))
            f2 = _fmt(lattice.structure_factor_magnitude(cfg.crystal, cfg.model, p.reflection) ** 2)
        except FormFactorRangeError:
            # Table does not reach this reflection; kinematics still apply.
            f_val, f2 = "", ""
        rows.append([
            p.reflection.label(), str(p.reflection_class), f_val,
            _fmt(p.lambda_window[0]), _fmt(p.lambda_window[1]),
            _fmt(p.two_theta_window[0]), _fmt(p.two_theta_window[1]),
            f2, "true" if p.pure else "false",
        ])
    out = cfg.out_dir / "plan.csv"
    _write_csv(out, ["hkl", "class", "f", "lambda_min", "lambda_max",
                     "two_theta_min", "two_theta_max", "F2_fm2", "pure"], rows)
    print(f"candidates={len(result.plans)} contaminated={len(result.contaminated)} "
          f"pure={len(result.pure)}")
    for p in result.plans:
        if p.note:
            print(f"note ({p.reflection.label()}): {p.note}")
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    r = _parse_hkl(args.hkl)
    spectrum = fringes.BeamSpectrum(shape=args.spectrum, window=cfg.window)
    profile = fringes.intensity_profile(spectrum, cfg.crystal, cfg.model, r,
                                        cfg.blade, n_samples=args.samples)
    counts = fringes.fringe_count(cfg.crystal, cfg.model, r, cfg.blade, cfg.window)
    out = cfg.out_dir / f"fringes_{r.canonical().label()}.csv"
    _write_columns(out, ["lambda_A", "two_theta_deg", "argument_rad", "intensity_norm"],
                   [profile.lam, profile.two_theta_deg, profile.argument, profile.intensity])
    print(f"({r.canonical().label()}) t={_fmt(cfg.blade.thickness_cm)} cm: "
          f"delta_argument={_fmt(counts.delta_argument)} rad, "
          f"periods={counts.period_count}, antinodes={counts.antinode_count}")
    print(f"wrote {out} ({len(profile.lam)} rows)")
    return EXIT_OK


def cmd_fit(cfg: RunConfig, args) -> int:
    ms = read_measurements_csv(args.measurements)
    crystal = cfg.crystal
    rows = []
    mode = args.mode
    if mode == "auto":
        mode = "joint" if len(ms) >= 2 else "bne"
    if mode == "joint":
        fit = inference.joint_fit(ms, crystal, cfg.model.form_factor,
                                  include_forward=cfg.include_forward,
                                  free_intercept=cfg.free_intercept)
        big_b, bne = fit.value("B"), fit.value("b_ne")
        s_b, s_bne = fit.sigma("B"), fit.sigma("b_ne")
        print(f"joint fit over {len(ms)} reflections "
              f"(forward point {'in' if cfg.include_forward else 'out'}):")
        print(f"  B    = {big_b:.6g} +- {s_b:.2g} A^2")
        print(f"  b_ne = {bne:.6g} +- {s_bne:.2g} fm")
        print(f"  chi2/dof = {fit.chi2:.4g}/{fit.dof}")
        for i, ni in enumerate(fit.param_names):
            rows.append(["param", ni, "", _fmt(fit.values[i])])
            rows.append(["sigma", ni, "", _fmt(fit.sigma(ni))])
        for i, ni in enumerate(fit.param_names):
            for j, nj in enumerate(fit.param_names):
                if j > i:
                    rows.append(["cov", ni, nj, _fmt(fit.covariance[i, j])])
    elif mode == "B":
        big_b, s_b = inference.fit_temperature_factor(
            ms, crystal, include_forward=cfg.include_forward,
            free_intercept=cfg.free_intercept)
        print(f"temperature factor from {len(ms)} reflections:")
        print(f"  B = {big_b:.6g} +- {s_b:.2g} A^2")
        rows += [["param", "B", "", _fmt(big_b)], ["sigma", "B", "", _fmt(s_b)]]
    else:
        bne, s_bne = inference.fit_bne(ms, crystal, cfg.model.form_factor,
                                       include_forward=cfg.include_forward)
        anchor = " plus the forward value" if cfg.include_forward else ""
        print(f"b_ne from {len(ms)} reflection(s){anchor}:")
        print(f"  b_ne = {bne:.6g} +- {s_bne:.2g} fm")
        rows += [["param", "b_ne", "", _fmt(bne)], ["sigma", "b_ne", "", _fmt(s_bne)]]
    if mode != "B":
        r2, s_r2 = inference.charge_radius_from_bne(CODATA, bne, s_bne)
        print(f"  <r_n^2> = {r2:.6g} +- {s_r2:.2g} fm^2")
        rows += [["param", "r2", "", _fmt(r2)], ["sigma", "r2", "", _fmt(s_r2)]]
    out = cfg.out_dir / "fit_report.csv"
    _write_csv(out, ["row", "name_a", "name_b", "value"], rows)
    print(f"wrote {out}")
    return EXIT_OK


def _new_reflections(pure) -> list:
    """The pure reflections other than the reference (111): the program of
    new reflections (eight under the default Si window)."""
    return [p.reflection for p in pure if p.reflection != Reflection(1, 1, 1)]


def _budget_sets(cfg: RunConfig, args):
    if args.hkl:
        return [("custom", [_parse_hkl(h) for h in args.hkl])]
    pure = planner.survey(cfg.crystal, cfg.window).pure
    strong = [p.reflection for p in pure
              if p.reflection_class is lattice.ReflectionClass.STRONG]
    return [("strong", strong), ("new", _new_reflections(pure))]


def cmd_budget(cfg: RunConfig, args) -> int:
    rows = []
    # Printed only once every primary configuration has succeeded.
    report = [f"projected slope precisions (sigma_b_meas = {_fmt(args.sigma)} fm):"]
    configs = [(cfg.include_forward, True)]
    if not args.primary_only:
        configs += [(f, p) for f in (True, False) for p in (True, False)
                    if (f, p) != configs[0]]
    for set_name, refls in _budget_sets(cfg, args):
        for fwd, prop in configs:
            primary = (fwd, prop) == configs[0]
            try:
                b = inference.error_budget(cfg.model, cfg.crystal, refls,
                                           sigma_b_meas=args.sigma,
                                           include_forward=fwd,
                                           propagate_sigma_B=prop)
            except PendellosungError as exc:
                if primary:
                    raise
                print(f"skipped {set_name} (include_forward={str(fwd).lower()}, "
                      f"propagate_sigma_B={str(prop).lower()}): {exc}", file=sys.stderr)
                continue
            rows.append([set_name, b.n_reflections, str(fwd).lower(),
                         str(prop).lower(), _fmt(b.sigma_B), _fmt(b.sigma_bne)])
            if primary:
                report.append(f"  {set_name} ({b.n_reflections} refl): "
                              f"sigma_B = {b.sigma_B:.3g} A^2, "
                              f"sigma_bne = {b.sigma_bne:.3g} fm")
    print("\n".join(report))
    out = cfg.out_dir / "budget.csv"
    _write_csv(out, ["set", "n", "include_forward", "propagate_sigma_B",
                     "sigma_B_A2", "sigma_bne_fm"], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_radius(cfg: RunConfig, args) -> int:
    r2, s = inference.charge_radius_from_bne(CODATA, args.bne, args.sigma)
    print(f"b_ne = {args.bne:.6g} fm -> <r_n^2> = {r2:.6g} +- {s:.2g} fm^2")
    print("reference values:")
    for label, bne, sig in _REFERENCE_BNE.values():
        rr, ss = inference.charge_radius_from_bne(CODATA, bne, sig)
        print(f"  {label:15s} b_ne = {bne:.6g} fm  <r_n^2> = {rr:.6g} +- {ss:.2g} fm^2")
    return EXIT_OK


def cmd_synth(cfg: RunConfig, args) -> int:
    pure = planner.survey(cfg.crystal, cfg.window).pure
    refls = [p.reflection for p in pure] if args.all_pure else _new_reflections(pure)
    if args.error_model == "temperature-factor":
        sigma = inference.temperature_factor_sigmas(cfg.model, cfg.crystal, refls)
    else:
        sigma = args.sigma
    ms = inference.synth_measurements(cfg.model, cfg.crystal, refls,
                                      sigma=sigma, seed=cfg.seed)
    out = cfg.out_dir / "measurements.csv"
    _write_csv(out, ["h", "k", "l", "b_meas_fm", "sigma_fm"],
               [[m.reflection.h, m.reflection.k, m.reflection.l,
                 _fmt(m.b_meas), _fmt(m.sigma)] for m in ms])
    print(f"wrote {out} ({len(ms)} rows, seed={cfg.seed})")
    return EXIT_OK


def cmd_mc(cfg: RunConfig, args) -> int:
    refls = _new_reflections(planner.survey(cfg.crystal, cfg.window).pure)
    res = inference.monte_carlo_validate(cfg.model, cfg.crystal, refls,
                                         sigma=args.sigma, n_trials=args.trials,
                                         seed=cfg.seed,
                                         include_forward=cfg.include_forward)
    print(f"monte carlo over {res.n_trials} trials ({len(refls)} reflections):")
    for i, (name, ratio) in enumerate(zip(res.param_names, res.sigma_ratios)):
        print(f"  sigma({name}): analytic {math.sqrt(res.analytic_cov[i, i]):.4g}, "
              f"empirical {math.sqrt(res.empirical_cov[i, i]):.4g}, ratio {ratio:.4f}")
    return EXIT_OK


# --- argument parsing ----------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared; parsing changes none of its state."""
    # Global flags are accepted both before and after the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="INI config file")
    common.add_argument("--seed", type=_SEED, default=argparse.SUPPRESS,
                        help="override [run] seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="override [run] out directory")

    p = argparse.ArgumentParser(
        prog="pendellosung",
        description="Plan, simulate and fit Bragg-amplitude interferometry "
                    "on diamond-structure crystals.",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="enumerate measurable reflections", parents=[common])
    sp.add_argument("--all", action="store_true",
                    help="emit every candidate, not only the clean ones")
    sp.add_argument("--strict", action="store_true",
                    help="purely geometric purity verdicts (no survey amendments)")

    sp = sub.add_parser("simulate", help="fringe profile for one reflection", parents=[common])
    sp.add_argument("hkl", help="Miller indices, e.g. 711 or 7,1,1")
    sp.add_argument("--samples", type=_COUNT, default=2000)
    sp.add_argument("--spectrum", choices=("flat", "maxwellian"), default="flat")

    sp = sub.add_parser("fit", help="fit B and b_ne to a measurement CSV", parents=[common])
    sp.add_argument("measurements", help="CSV with header h,k,l,b_meas_fm,sigma_fm")
    sp.add_argument("--mode", choices=("auto", "joint", "bne", "B"), default="auto")

    sp = sub.add_parser("budget", help="projected uncertainties for reflection sets", parents=[common])
    sp.add_argument("--sigma", type=_POSITIVE, default=inference.DEFAULT_SIGMA_B_MEAS,
                    help="assumed per-reflection amplitude error, fm")
    sp.add_argument("--hkl", nargs="+", default=None,
                    help="custom reflection set, e.g. --hkl 422 620 642")
    sp.add_argument("--primary-only", action="store_true",
                    help="only the forward+propagated configuration")

    sp = sub.add_parser("radius", help="convert b_ne to the mean-square charge radius", parents=[common])
    sp.add_argument("bne", type=_FINITE, help="b_ne in fm")
    sp.add_argument("--sigma", type=_NON_NEGATIVE, default=0.0)

    sp = sub.add_parser("synth", help="synthetic measurement CSV", parents=[common])
    sp.add_argument("--sigma", type=_NON_NEGATIVE, default=inference.DEFAULT_SIGMA_B_MEAS)
    sp.add_argument("--error-model", choices=("flat", "temperature-factor"),
                    default="flat")
    sp.add_argument("--all-pure", action="store_true",
                    help="include the reference (111) reflection")

    sp = sub.add_parser("mc", help="Monte-Carlo check of the fit covariance", parents=[common])
    sp.add_argument("--trials", type=_trials, default=10_000,
                    help="noise draws, 2 to 10^9 (about 4 minutes of CPU at the cap)")
    # Zero noise leaves no spread to compare, so the sigma ratios are undefined.
    sp.add_argument("--sigma", type=_POSITIVE, default=inference.DEFAULT_SIGMA_B_MEAS)

    return p


_COMMANDS = {
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "budget": cmd_budget,
    "radius": cmd_radius,
    "synth": cmd_synth,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None))
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "out", None) is not None:
            cfg = replace(cfg, out_dir=Path(args.out))
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, SurveyTooLarge) as exc:
        # SurveyTooLarge: the configured window asks for too long a survey walk.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # input files map theirs to typed errors; this is the output
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormFactorRangeError as exc:  # only commands raise it, so cfg is set
        builtin = cfg.model.form_factor is BUILTIN_TABLES.get(cfg.crystal.name)
        hint = "; the built-in table ends there: set [crystal] form_factor_csv" if builtin else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_DATA
    except (PendellosungError, ValueError) as exc:
        # A ValueError here is a library argument check tripped by the data
        # (e.g. synthetic noise driving an amplitude non-positive).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # Sizes such as --samples are only bounded by what numpy can allocate.
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
