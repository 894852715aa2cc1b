"""The standard normal CDF, bitwise equal to ``scipy.special.ndtr`` without importing scipy.

The Gaussian rank Phi(eps) is the only special function that every estimate calls, and importing
``scipy.special`` once took most of a fresh ``import nlirf``. ``_ndtr`` takes the steps of the cephes
``ndtr`` that scipy compiles, each as numpy multiplies, adds and divides in the same order, so every
value rounds as scipy's does:

* erf's rational form in x**2 where |x| = |a|/sqrt(2) < 1. Cephes' ndtr leaves erf at 1/sqrt(2), but
  its erfc gives 1 - erf(|x|) below 1, and since 0.5 - 0.5 erf(|x|) is exact there, both round the
  same value on [1/sqrt(2), 1);
* erfc as exp(-x**2) P(|x|) / Q(|x|) below |x| = 8 and exp(-x**2) R(|x|) / S(|x|) from 8;
* 0 where x**2 passes MAXLOG, whose exp cephes takes as an underflow; +-inf lands there too;
* 1 - y for a > 0 outside the erf branch.

``exp(-x**2)`` is libm's, through ``math.exp``: numpy's own SIMD ``exp`` (taken under AVX-512) can
differ from it in the last bit. A call costs 60-120 us before its per-element cost (2 vCPUs), against
under 1 us for scipy's ufunc, so callers rank their shocks in as few calls as they can.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2

# cephes' coefficients, leading first; each denominator is monic, and its explicit leading 1 keeps
# the evaluation exact (1 * x is x), so one Horner loop serves cephes' polevl and p1evl alike
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)


def _horner(x: np.ndarray, coef) -> np.ndarray:
    """cephes' polevl: from the leading coefficient, a multiply and an add per step."""
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _ndtr(a) -> np.ndarray:
    """Phi(a) elementwise, bitwise ``scipy.special.ndtr(a)``: an array of a's shape, NaN where a is NaN."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.zeros(x.shape)
    inner = ~(z >= 1.0)  # NaN too, which the erf form carries through
    xi = x[inner]
    xx = xi * xi
    y[inner] = 0.5 + 0.5 * (xi * _horner(xx, _T) / _horner(xx, _U))
    c = np.minimum(z, 27.0)  # 27**2 passes MAXLOG too, and the square of a larger |x| could overflow
    tail = (z >= 1.0) & (c * c <= _MAXLOG)
    w = z[tail]
    e = np.fromiter(map(math.exp, (-w * w).tolist()), float, w.size)
    near = w < 8.0
    num, den = np.where(near, _horner(w, _P), _horner(w, _R)), np.where(near, _horner(w, _Q), _horner(w, _S))
    y[tail] = 0.5 * (e * num / den)
    return np.where(~inner & (x > 0), 1.0 - y, y)
