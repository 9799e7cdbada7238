import math

import mpmath as mp
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("suite")

from sonicbh.params import default_config, derive
from sonicbh.characteristics import core_left_x0
from sonicbh.environment import EnvironmentSpec
from sonicbh.profiles import LineProfile, RingProfile

from flow_oracle import core_g, line_velocity


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def derived(config):
    return derive(config)


@pytest.fixture(scope="session")
def ring(config):
    return RingProfile.from_config(config)


@pytest.fixture(scope="session")
def line():
    # the long-run channel configuration: half-width 1, gradient 0.1, unit collapse time
    return LineProfile(a=1.0, kappa=0.1, tau=1.0)


@pytest.fixture(scope="session")
def env_lorentzian():
    return EnvironmentSpec(coupling_eff=0.02, cutoff=20.0)


LINE_T_HAWKING = 0.2 / (4.0 * math.pi)


def mode_function(k: float, x: float, t: float, profile: LineProfile) -> complex:
    """Mode u_k(x, t) of the transition-region flow, unit-modulus phase / sqrt(2|k|),
    assembled from the package's core_left_x0 and the quadrature g(t) of core_g.

    k < 0 is a pure left mover with phase k * x0_L(x,t); k > 0 carries the
    right-moving content.  The direction-content time integral telescopes --
    its integrand is the exact differential of e^{-2ikg}/(-2ik) -- leaving
    the right-mover phase k * (x0_L - 2 g(t)).
    """
    if k == 0:
        raise ValueError("k = 0 mode has singular normalization")
    x0_l = core_left_x0(x, t, profile)
    phase = k * x0_l if k < 0 else k * (x0_l - 2.0 * core_g(t, profile))
    return complex(math.cos(phase), math.sin(phase)) / math.sqrt(2.0 * abs(k))


def mode_function_pde_residual(k: float, x: float, t: float,
                               profile: LineProfile, h: float) -> float:
    """|[(d_t + d_x v)(d_t + v d_x) - d_x^2] u_k| by nested central differences.

    The operator is evaluated with the oracle's velocity law, in whose
    transition region ``mode_function`` is built; residual -> 0 at O(h^2).
    """
    def u(xx, tt):
        return mode_function(k, xx, tt, profile)

    def v(xx, tt):
        return line_velocity(xx, tt, profile)

    def w(xx, tt):  # (d_t + v d_x) u
        du_dt = (u(xx, tt + h) - u(xx, tt - h)) / (2.0 * h)
        du_dx = (u(xx + h, tt) - u(xx - h, tt)) / (2.0 * h)
        return du_dt + v(xx, tt) * du_dx

    dw_dt = (w(x, t + h) - w(x, t - h)) / (2.0 * h)
    dvw_dx = (v(x + h, t) * w(x + h, t) - v(x - h, t) * w(x - h, t)) / (2.0 * h)
    d2u_dx2 = (u(x + h, t) - 2.0 * u(x, t) + u(x - h, t)) / h ** 2
    return abs(dw_dt + dvw_dx - d2u_dx2)


def er_mpmath(k: float, t: float, lam: float, temperature: float,
              profile: LineProfile, x1: float) -> float:
    """e_r in 50-digit arithmetic from its defining ratio (noise + dissipation)
    / P_C, mode weights w1 w2 = (X1/a)^2 kept, so nothing underflows: X1 from
    the matched inside exponential a e^{-(x1 + t - F v_min - a)/a}, F = tau ln
    cosh(t/tau), at the pair peak X2 = X1."""
    with mp.workdps(50):
        k, t, lam, t0, x1 = (mp.mpf(v) for v in (k, t, lam, temperature, x1))
        a, kappa, tau = (mp.mpf(v) for v in (profile.a, profile.kappa, profile.tau))
        f = tau * mp.log(mp.cosh(t / tau))
        x1_peak = a * mp.exp(-(x1 + t - f * (1 - kappa * a) - a) / a)
        w1w2 = (x1_peak / a) ** 2
        thermal = k if t0 == 0 else k * mp.coth(k / (2 * t0))
        p_c = thermal * mp.cos(2 * k * x1_peak) * w1w2
        d_noise = lam ** 2 * t0 * w1w2 * (t / (2 * k ** 2) - mp.sin(2 * k * t) / (4 * k ** 3))
        d_diss = -lam ** 2 * t * p_c
        return float(abs((d_noise + d_diss) / p_c))
