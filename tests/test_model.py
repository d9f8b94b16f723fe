"""Unit tests of the harmonic-plus-DC model oracle in tests/reference.py.

A coefficient set is the tuple (a_c, a_s, a_dc, a_dc1).
"""

import math

import numpy as np
import pytest

from reference import harmonic_basis, output_and_gradient


class TestHarmonicBasis:
    def test_matches_direct_trig(self):
        rng = np.random.default_rng(0)
        for phase in rng.uniform(-10.0, 10.0, 50):
            cos_i, sin_i = harmonic_basis(float(phase), 7)
            for i in range(7):
                assert cos_i[i] == pytest.approx(math.cos((i + 1) * phase),
                                                 abs=1e-12)
                assert sin_i[i] == pytest.approx(math.sin((i + 1) * phase),
                                                 abs=1e-12)

    def test_single_order(self):
        cos_i, sin_i = harmonic_basis(0.3, 1)
        assert cos_i == [math.cos(0.3)]
        assert sin_i == [math.sin(0.3)]


class TestEvalModel:
    """Model output of output_and_gradient at phase omega*t."""

    def test_pure_sine_peak(self):
        # a(t) = sin(2*pi*t) at t = 0.25 is exactly 1
        th = ([1.0], [0.0], 0.0, 0.0)
        out, _ = output_and_gradient(*th, 2.0 * math.pi * 0.25, 0.25)
        assert out == pytest.approx(1.0)

    def test_dc_terms(self):
        th = ([0.0], [0.0], 2.0, 4.0)
        assert output_and_gradient(*th, 100.0 * 0.5, 0.5)[0] == pytest.approx(0.0)
        assert output_and_gradient(*th, 0.0, 0.0)[0] == pytest.approx(2.0)

    def test_superposition(self):
        th = ([0.5, 0.0, -0.2], [0.1, 0.3, 0.0], 0.7, 1.1)
        omega, t = 314.0, 0.123
        expect = 0.7 - 1.1 * t
        for i, (ac, as_) in enumerate(zip(th[0], th[1]), 1):
            expect += ac * math.sin(i * omega * t) + as_ * math.cos(i * omega * t)
        out, _ = output_and_gradient(*th, omega * t, t)
        assert out == pytest.approx(expect, rel=1e-12)


class TestFreqGradient:
    """d(model)/d(omega1) of output_and_gradient at phase omega*t."""

    def test_zero_at_t_zero(self):
        th = ([1.0, 2.0], [3.0, 4.0], 5.0, 6.0)
        assert output_and_gradient(*th, 0.0, 0.0)[1] == 0.0

    def test_closed_form(self):
        th = ([2.0], [0.5], 0.0, 0.0)
        omega, t = 310.0, 0.4
        expect = t * (2.0 * math.cos(omega * t) - 0.5 * math.sin(omega * t))
        _, grad = output_and_gradient(*th, omega * t, t)
        assert grad == pytest.approx(expect, rel=1e-12)

    def test_dc_terms_do_not_contribute(self):
        th_a = ([1.0], [1.0], 0.0, 0.0)
        th_b = ([1.0], [1.0], 5.0, -3.0)
        phase, t = 314.0 * 0.3, 0.3
        assert (output_and_gradient(*th_a, phase, t)[1]
                == output_and_gradient(*th_b, phase, t)[1])


class TestOutputAndGradient:
    def test_phase_and_slope_time_are_separate(self):
        # an estimator state: wrapped phase accumulator and anchor time
        th = ([0.5, -0.3], [0.1, 0.7], 0.05, 0.4)
        phase, t = 1.1, 0.2
        out, grad = output_and_gradient(*th, phase, t)
        assert out == pytest.approx(
            0.5 * math.sin(1.1) + 0.1 * math.cos(1.1)
            - 0.3 * math.sin(2.2) + 0.7 * math.cos(2.2)
            + 0.05 - 0.4 * 0.2, rel=1e-12)
        assert grad == pytest.approx(
            t * (0.5 * math.cos(1.1) - 0.1 * math.sin(1.1))
            + 2 * t * (-0.3 * math.cos(2.2) - 0.7 * math.sin(2.2)), rel=1e-12)
