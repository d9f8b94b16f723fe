"""Shared scenario builders and skip conditions for the test battery.

The builders mirror the shipped scenario files in scenarios/ but are
constructed in code so the tests do not depend on file parsing.
"""

from __future__ import annotations

import shutil

import pytest

from gridfreq import (DcSpec, EventProfile, HarmonicSpec, NoiseSpec,
                      ScenarioSpec, StepSpec)

FS = 1200.0

# the C library needs a compiler; without one, run() and the CSV writers
# take their Python paths
HAVE_CC = shutil.which("cc") is not None
NO_CC = "no C compiler (cc) on PATH"
needs_cc = pytest.mark.skipif(not HAVE_CC, reason=NO_CC)


def clean_tone(duration: float = 10.0) -> ScenarioSpec:
    """Noise-free 50 Hz unit tone."""
    return ScenarioSpec(duration=duration, base_freq=50.0)


def case1(noise_level: float = 0.02, seed: int = 0,
          duration: float = 10.0) -> ScenarioSpec:
    """Frequency event: 0.5 Hz peak dip, 1 Hz/s peak RoCoF, Gaussian noise."""
    return ScenarioSpec(
        duration=duration, base_freq=50.0,
        profile=EventProfile(t_start=1.0, peak_dev_hz=0.5, peak_rocof_hzps=1.0),
        noise=NoiseSpec(kind="gaussian", level=noise_level, seed=seed),
    )


def case2() -> ScenarioSpec:
    """Colored noise plus a 0.05 pu amplitude + 0.04 rad phase step at t=6 s."""
    return ScenarioSpec(
        duration=10.0, base_freq=50.0,
        noise=NoiseSpec(kind="colored", level=0.02, seed=0),
        steps=(StepSpec(t_start=6.0, duration=0.4,
                        amp_step_pu=0.05, phase_step_rad=0.04),),
    )


def case2b() -> ScenarioSpec:
    """Sustained pi/8 phase step at t=6 s, noise-free."""
    import math
    return ScenarioSpec(
        duration=10.0, base_freq=50.0,
        steps=(StepSpec(t_start=6.0, duration=4.0,
                        phase_step_rad=math.pi / 8.0),),
    )


def case3() -> ScenarioSpec:
    """2% third harmonic plus a decaying DC offset at t=1 s."""
    return ScenarioSpec(
        duration=10.0, base_freq=50.0,
        harmonics=(HarmonicSpec(order=3, rel_amp=0.02),),
        dc_events=(DcSpec(t_start=1.0, a_dc_pu=0.1, tau_s=0.05),),
    )
