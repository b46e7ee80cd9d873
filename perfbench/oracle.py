"""Regenerate ``oracle.json``, the reference values the benchmark checks against.

Every value comes from ``scipy.integrate.quad`` on the closed-form scale and
speed objects of the model, never from ergodiff itself:

* OU(1) hitting 0 from above: E_x T = int_0^x sqrt(pi) erfcx(y) dy, and
  E_x T^2 = 4 int_0^x e^{z^2} int_z^inf E_y T e^{-y^2} dy dz;
* bounded_drift(theta) hitting a from above (s = (1+x^2)^theta,
  m = 2 (1+x^2)^-theta): E_x T = 2 int_a^x (1+z^2)^theta I(z) dz with
  I(z) = int_z^inf (1+y^2)^-theta dy = int_0^atan(1/z) sin(u)^(2 theta-2) du;
* the same OU moments with the target moved to -BGK_BETA * sqrt(h), the
  continuous problem that sign-change ("interpolate") crossing detection
  approximates to first order in sqrt(h) (Broadie, Glasserman & Kou
  1997);
* OU(1) exit from (-1, 1): the two-sided Green's formula with
  S(x) = sqrt(pi)/2 erfi(x) and m(x) = 2 e^{-x^2}.

Run from the repository root:  python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

OUT = Path(__file__).resolve().parent / "oracle.json"
QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=400)

OU_GRID_COLD = [0.5, 1.0, 1.5, 2.0]
OU_GRID_WARM = [0.6, 1.1, 1.6, 2.1]
MC_STARTS = [0.5, 2.0]
MC_STEP = 1e-3
BGK_BETA = 0.5826  # -zeta(1/2) / sqrt(2 pi)
BD_CASES = {  # name: (theta, target, grid)
    "bd1": (1.0, 12.0, list(np.linspace(25.0, 100.0, 7))),
    "bd075": (0.75, 1.0, [2.0, 3.0, 5.0]),
    "bd22": (2.2, 1.0, [2.0, 3.0, 5.0]),
}
EXIT_GRID = list(np.linspace(-0.9, 0.9, 7))


def quad(f, a, b, **kw):
    value, _ = integrate.quad(f, a, b, **{**QUAD, **kw})
    return value


def ou_order1(x: float, a: float = 0.0) -> float:
    return quad(lambda y: math.sqrt(math.pi) * special.erfcx(y), a, x)


def ou_order2(x: float, a: float = 0.0) -> float:
    # int_z^inf E_y T e^{-y^2} dy, scaled by e^{z^2} to stay O(1)
    def inner(z):
        return quad(lambda y: ou_order1(y, a) * math.exp(z * z - y * y),
                    z, math.inf, epsrel=1e-11)
    return 4.0 * quad(inner, a, x, epsrel=1e-11)


def bd_order1(theta: float, a: float, x: float) -> float:
    def tail(z):
        # (sin u / u)^(2 theta - 2) is smooth; the u^(2 theta - 2) factor is
        # the algebraic endpoint weight
        return quad(lambda u: np.sinc(u / math.pi) ** (2.0 * theta - 2.0),
                    0.0, math.atan(1.0 / z), weight="alg",
                    wvar=(2.0 * theta - 2.0, 0.0))
    return 2.0 * quad(lambda z: (1.0 + z * z) ** theta * tail(z), a, x)


def ou_exit_order1(a: float, b: float, x: float) -> float:
    S = lambda t: 0.5 * math.sqrt(math.pi) * special.erfi(t)
    m = lambda t: 2.0 * math.exp(-t * t)
    sa, sb, sx = S(a), S(b), S(x)
    left = quad(lambda t: (S(t) - sa) * m(t), a, x)
    right = quad(lambda t: (sb - S(t)) * m(t), x, b)
    return ((sb - sx) * left + (sx - sa) * right) / (sb - sa)


def _table(grid, fn) -> dict:
    xs = [float(x) for x in grid]
    return {"x": xs, "values": [fn(x) for x in xs]}


def build() -> dict:
    shift = -BGK_BETA * math.sqrt(MC_STEP)
    out = {
        "ou1_cold_order1": _table(OU_GRID_COLD, ou_order1),
        "ou1_warm_order1": _table(OU_GRID_WARM, ou_order1),
        "ou1_mc_order1": _table(MC_STARTS, ou_order1),
        "ou1_mc_order2": _table(MC_STARTS, ou_order2),
        "ou1_mc_shifted_order1": _table(MC_STARTS, lambda x: ou_order1(x, shift)),
        "ou1_mc_shifted_order2": _table(MC_STARTS, lambda x: ou_order2(x, shift)),
        "ou1_exit_order1": _table(EXIT_GRID,
                                  lambda x: ou_exit_order1(-1.0, 1.0, x)),
    }
    for name, (theta, a, grid) in BD_CASES.items():
        out[f"{name}_order1"] = _table(grid, lambda x: bd_order1(theta, a, x))
    return out


if __name__ == "__main__":
    values = build()
    OUT.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    for key, table in values.items():
        print(key, [f"{v:.12g}" for v in table["values"]])
    print(f"wrote {OUT}")
