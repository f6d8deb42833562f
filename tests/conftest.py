import numpy as np
import pytest

from tcalgebra import MoebiusMap, boundary_contact


@pytest.fixture
def phi0() -> MoebiusMap:
    """Reference map -(1+z)/2 with contact 1 -> -1 and s = 2."""
    return MoebiusMap(-1, -1, 0, 2)


@pytest.fixture
def sigma0(phi0) -> MoebiusMap:
    return phi0.krein_adjoint


@pytest.fixture
def rho0() -> MoebiusMap:
    """(1+z)/2, fixing the contact point 1."""
    return MoebiusMap(1, 1, 0, 2)


@pytest.fixture
def contact0(phi0):
    contact = boundary_contact(phi0)
    assert contact is not None
    return contact


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


def psi_t(t: float) -> MoebiusMap:
    """Canonical positive parabolic map fixing 1 with translation t."""
    return MoebiusMap(2 - t, t, -t, 2 + t)


def random_contact_map(rng: np.random.Generator) -> MoebiusMap:
    """Random non-automorphism self-map with boundary contact zeta != eta.

    Built by conjugating a right-half-plane contraction w -> lam*w/(1+mu*w)
    (lam > 0, Re mu > 0, touching the boundary only at w = 0) through the
    Cayley transform, then rotating domain and range independently.
    """
    lam = float(np.exp(rng.uniform(-1.0, 1.0)))
    mu = complex(0.2 + abs(rng.standard_normal()), rng.standard_normal())
    cayley = MoebiusMap(-1, 1, 1, 1)  # z -> (1-z)/(1+z), self-inverse
    v = MoebiusMap(lam, 0, mu, 1)
    psi = cayley.compose(v).compose(cayley)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi))
    w = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return rotation_map(u).compose(psi).compose(rotation_map(w))


def pole_contact_map(rng: np.random.Generator) -> tuple[MoebiusMap, complex, complex, float]:
    """Contact map with a finite pole, with zeta, eta and s in closed form.

    psi(z) = (1 - lam) + lam z touches the circle only at psi(1) = 1, with
    psi'(1) = lam.  phi = R_beta A_a psi A_b R_alpha, for rotations R and
    automorphisms A_a(z) = (z - a)/(1 - conj(a) z), touches at
    zeta = e^{-i alpha} (1 + b)/(1 + conj(b)), the point R_alpha and A_b
    send to 1, with image eta = e^{i beta} (1 - a)/(1 - conj(a)).  The chain
    rule gives s = 1/|phi'(zeta)| = |1 - a|^2 (1 - |b|^2) / (lam (1 - |a|^2) |1 + b|^2).
    """
    lam = rng.uniform(0.3, 0.7)
    a = complex(*rng.uniform(-0.45, 0.45, 2))
    b = complex(*rng.uniform(-0.45, 0.45, 2))
    alpha, beta = rng.uniform(0.0, 2 * np.pi, 2)
    phi = (
        rotation_map(np.exp(1j * beta))
        .compose(automorphism_map(a))
        .compose(MoebiusMap(lam, 1 - lam, 0, 1))
        .compose(automorphism_map(b))
        .compose(rotation_map(np.exp(1j * alpha)))
    )
    zeta = np.exp(-1j * alpha) * (1 + b) / (1 + b.conjugate())
    eta = np.exp(1j * beta) * (1 - a) / (1 - a.conjugate())
    s = abs(1 - a) ** 2 * (1 - abs(b) ** 2) / (lam * (1 - abs(a) ** 2) * abs(1 + b) ** 2)
    return phi, complex(zeta), complex(eta), float(s)


def rotation_map(alpha: complex) -> MoebiusMap:
    return MoebiusMap(alpha, 0, 0, 1)


def automorphism_map(a: complex) -> MoebiusMap:
    """Disk automorphism z -> (z - a) / (1 - conj(a) z)."""
    return MoebiusMap(1, -a, -a.conjugate(), 1)
