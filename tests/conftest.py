"""Shared fixtures and the phase-plane quadrature oracle.

The quadrature helper integrates smooth Gaussian-decaying integrands
over the complex plane with the d^2alpha/pi measure on a midpoint grid;
for such integrands the midpoint rule converges exponentially in the
grid spacing, so a moderate grid is far below the tolerances the tests
assert against.
"""

import numpy as np
import pytest

import semichain as sc


@pytest.fixture
def pauli():
    return {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.diag([1.0, -1.0]).astype(complex),
        "minus": np.array([[0, 0], [1, 0]], dtype=complex),
        "plus": np.array([[0, 1], [0, 0]], dtype=complex),
        "id": np.eye(2, dtype=complex),
    }


@pytest.fixture
def jc_spec(pauli):
    """Two-level atom resonantly coupled to one mode (coupling 0.2)."""
    return sc.ModelSpec(h0=pauli["z"] / 2,
                        modes=[sc.FieldMode(1.0, 0.2 * pauli["minus"])])


def disk_grid(radius=6.0, n=96):
    """Midpoint grid over [-r, r]^2 with the d^2alpha/pi weight."""
    edges = np.linspace(-radius, radius, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    x, y = np.meshgrid(mids, mids, indexing="ij")
    alphas = (x + 1j * y).ravel()
    weight = h * h / np.pi
    return alphas, weight


def quad_phase_plane(f_vals, weight):
    """Sum grid samples against the d^2alpha/pi measure."""
    return np.sum(f_vals) * weight


def random_fock_state(rng, d=2, cutoff=5, decay=0.4):
    """Normalized random composite state on (d) x (cutoff+1).

    Amplitudes decay geometrically with the Fock level so the state
    resembles a physically truncated one; identities that hold for any
    truncated state pass ``tail_threshold=1.0`` where they use it.
    """
    shape = (d, cutoff + 1)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps *= decay ** np.arange(cutoff + 1)[None, :]
    amps /= np.linalg.norm(amps)
    return sc.FockCompositeState(amplitudes=amps, time=0.0)


def q_function(state, alpha):
    """Phase-space density ||<alpha|Psi>||^2 (measure d^2alpha / pi per
    mode), from ``coherent_amplitude``."""
    psi = sc.coherent_amplitude(state, alpha)
    return float(np.sum(np.abs(psi) ** 2))


def bargmann_values(state, z):
    """The conditional state Phi(z) of a single-mode oracle state at
    many points z = alpha*, shape (len(z), d): a power basis
    z^n / sqrt(n!) times the Fock amplitudes (``bargmann_projection``
    one point at a time)."""
    z = np.asarray(z, dtype=complex)
    basis = np.empty((z.shape[0], state.amplitudes.shape[1]), dtype=complex)
    basis[:, 0] = 1.0
    for n in range(1, basis.shape[1]):
        basis[:, n] = basis[:, n - 1] * z / np.sqrt(n)
    return basis @ state.amplitudes.T
