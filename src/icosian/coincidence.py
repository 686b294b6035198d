"""Floating-point numerical coincidences between particle mass ratios and
calendar/axial constants.

These are the only inexact computations in the package; they reproduce
printed approximations and are checked at display precision only.  The
numeric targets and tolerances of the registry checks live here too, so no
other module needs a float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

MASS_RATIO_NP = 1.001378    # neutron / proton
MASS_RATIO_EP = 0.000544617  # electron / proton
DAYS_PER_YEAR = 365.24
TILT_DEGREES = 23.44


def np_coincidence() -> float:
    """1 + 1/(2 * 365.24), close to the neutron/proton mass ratio."""
    return 1 + 1 / (2 * DAYS_PER_YEAR)


def ep_coincidence() -> float:
    """sin(23.44 deg)/(2 * 365.24), close to the electron/proton mass ratio."""
    return math.sin(math.radians(TILT_DEGREES)) / (2 * DAYS_PER_YEAR)


@dataclass(frozen=True)
class TiltInversion:
    sine: float
    degrees: float

    @property
    def dms(self) -> tuple[int, int, float]:
        d = int(self.degrees)
        rem = (self.degrees - d) * 60
        m = int(rem)
        s = (rem - m) * 60
        return d, m, s

    def dms_string(self) -> str:
        d, m, s = self.dms
        return f"{d}° {m}′ {s:.1f}″"


def tilt_inversion() -> TiltInversion:
    """The tilt angle that would make the electron/proton coincidence exact."""
    sine = 2 * DAYS_PER_YEAR * MASS_RATIO_EP
    return TiltInversion(sine, math.degrees(math.asin(sine)))


def _tol(name: str, value: float, target: float, tol: float) -> str | None:
    if math.isfinite(value) and abs(value - target) <= tol:
        return None
    return f"{name} = {value!r} not within {tol} of {target}"


def np_failures() -> list[str]:
    """Display-precision failures of the neutron/proton coincidence."""
    v = np_coincidence()
    return [x for x in (
        _tol("value", v, 1.001369, 5e-7),
        _tol("mass ratio gap", v, MASS_RATIO_NP, 1e-5),
    ) if x]


def ep_failures() -> list[str]:
    """Display-precision failures of the electron/proton coincidence."""
    v = ep_coincidence()
    return [x for x in (
        _tol("value", v, 0.000544558, 5e-10),
        _tol("mass ratio gap", v, MASS_RATIO_EP, 1e-7),
    ) if x]


def tilt_failures() -> list[str]:
    """Display-precision failures of the exact-tilt inversion."""
    t = tilt_inversion()
    d, m, s = t.dms
    dms_ok = (d, m) == (23, 26) and abs(s - 33.7) <= 0.1
    return [x for x in (
        _tol("sine", t.sine, 0.3978318, 5e-8),
        _tol("degrees", t.degrees, 23.442704, 5e-6),
        None if dms_ok else f"dms = {t.dms_string()}",
    ) if x]


def report() -> dict:
    tilt = tilt_inversion()
    return {
        "np": {
            "value": np_coincidence(),
            "printed": f"{np_coincidence():.6f}",
            "mass_ratio": MASS_RATIO_NP,
            "difference": abs(np_coincidence() - MASS_RATIO_NP),
        },
        "ep": {
            "value": ep_coincidence(),
            "printed": f"{ep_coincidence():.9f}",
            "mass_ratio": MASS_RATIO_EP,
            "difference": abs(ep_coincidence() - MASS_RATIO_EP),
        },
        "tilt": {
            "sine": tilt.sine,
            "degrees": tilt.degrees,
            "dms": tilt.dms_string(),
        },
    }
