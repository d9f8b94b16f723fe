"""Harmonic-plus-DC signal model shared by the synthesizer and the estimator.

The model of a single-channel waveform is

    a(t) = sum_i  a_c[i] * sin(i*w1*t) + a_s[i] * cos(i*w1*t)
         + a_dc - a_dc1 * t

i.e. a truncated harmonic series around a fundamental w1 plus a first-order
(Taylor) approximation of a decaying DC offset.  The estimator evaluates it
at its anchor time, which saturates at ``t_reset_s``: after that ramp
``a_dc - a_dc1*t`` acts as one constant offset.

:func:`output_and_gradient` is the one definition of this model and of its
derivative with respect to w1; the metrics and the tests evaluate the
model through it.  The estimator's per-sample
``step`` carries a fused specialisation of the same arithmetic for speed,
and a test pins it to this function bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class ParameterVector:
    """Coefficients of the harmonic-plus-DC model.

    ``a_c[i-1]`` multiplies sin(i*w1*t), ``a_s[i-1]`` multiplies cos(i*w1*t).
    ``a_dc`` is the constant offset in pu and ``a_dc1`` its decay slope in pu/s;
    once the estimator's anchor time ``t`` saturates, ``a_dc - a_dc1*t`` is
    one constant.
    """

    a_c: list[float]
    a_s: list[float]
    a_dc: float = 0.0
    a_dc1: float = 0.0

    def __post_init__(self) -> None:
        if len(self.a_c) != len(self.a_s):
            raise ValueError("a_c and a_s must have the same length")

    @classmethod
    def zeros(cls, n: int) -> "ParameterVector":
        return cls([0.0] * n, [0.0] * n, 0.0, 0.0)

    @property
    def n(self) -> int:
        return len(self.a_c)

    def copy(self) -> "ParameterVector":
        return ParameterVector(list(self.a_c), list(self.a_s), self.a_dc, self.a_dc1)

    def is_finite(self) -> bool:
        vals = [*self.a_c, *self.a_s, self.a_dc, self.a_dc1]
        return all(math.isfinite(v) for v in vals)


def harmonic_basis(phase: float, n: int) -> tuple[list[float], list[float]]:
    """cos(i*phase), sin(i*phase) for i = 1..n via the angle-sum recurrence."""
    c1 = math.cos(phase)
    s1 = math.sin(phase)
    cos_i = [c1]
    sin_i = [s1]
    for _ in range(1, n):
        c_prev = cos_i[-1]
        s_prev = sin_i[-1]
        cos_i.append(c_prev * c1 - s_prev * s1)
        sin_i.append(s_prev * c1 + c_prev * s1)
    return cos_i, sin_i


def output_and_gradient(theta: ParameterVector, phase: float, t: float
                        ) -> tuple[float, float]:
    """Model output and its derivative d(model)/d(w1) at fixed coefficients.

    ``phase`` is the fundamental phase (w1*t for the model above; an
    estimator state carries a wrapped phase accumulator instead) and ``t``
    the time that multiplies the DC slope and the gradient.  Harmonic i
    contributes i*t*(a_c*cos(i*phase) - a_s*sin(i*phase)) to the gradient;
    the DC terms do not depend on the fundamental.
    """
    cos_i, sin_i = harmonic_basis(phase, theta.n)
    value = theta.a_dc - theta.a_dc1 * t
    grad = 0.0
    for i, (ac, as_, c, s) in enumerate(zip(theta.a_c, theta.a_s, cos_i,
                                            sin_i), 1):
        value += ac * s + as_ * c
        grad += i * t * (ac * c - as_ * s)
    return value, grad
