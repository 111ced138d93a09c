"""Observables: an atomic operator paired with a field polynomial.

The field part is a polynomial in (alpha, alpha*) stored as monomials
``coeff * prod_n alpha_n^p_n * conj(alpha_n)^q_n``. Evaluated at
phase-space points it is the antinormal symbol of the corresponding
field operator: expectations of the symbol against the phase-space
density equal quantum expectations of the operator with all absorption
operators placed left of all creation operators.
"""

from dataclasses import dataclass

import numpy as np

from .hilbert import as_operator


@dataclass(frozen=True)
class Monomial:
    coeff: complex
    p: tuple  # per-mode powers of alpha
    q: tuple  # per-mode powers of conj(alpha)

    def __post_init__(self):
        p, q = tuple(self.p), tuple(self.q)
        for x in p + q:  # bool is an int, numpy's bool_ is not
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"monomial powers must be integers, got {x!r}")
        p, q = tuple(map(int, p)), tuple(map(int, q))
        if len(p) != len(q):
            raise ValueError("p and q need one entry per mode")
        if any(x < 0 for x in p + q):
            raise ValueError("monomial powers must be non-negative")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Observable:
    """Atomic operator F times a polynomial field symbol.

    ``f = None`` means the atomic identity. ``name`` labels output rows.
    """

    f: np.ndarray | None
    poly: tuple
    name: str = ""

    def __post_init__(self):
        if self.f is not None:
            object.__setattr__(self, "f", as_operator(self.f))
        poly = tuple(m if isinstance(m, Monomial) else Monomial(*m) for m in self.poly)
        if len(poly) == 0:
            raise ValueError("observable needs at least one monomial (use unit_poly)")
        if len({len(m.p) for m in poly}) > 1:
            raise ValueError("every monomial needs the same number of modes")
        object.__setattr__(self, "poly", poly)

    @property
    def n_modes(self) -> int:
        return len(self.poly[0].p)

    def atomic_matrix(self, d: int) -> np.ndarray:
        return np.eye(d, dtype=complex) if self.f is None else self.f

    def poly_values(self, alphas: np.ndarray) -> np.ndarray:
        """Evaluate the field symbol at points ``alphas`` of shape (N, M)."""
        alphas = np.atleast_2d(np.asarray(alphas, dtype=complex))
        vals = np.zeros(alphas.shape[0], dtype=complex)
        for mono in self.poly:
            term = np.full(alphas.shape[0], mono.coeff, dtype=complex)
            for n, (pn, qn) in enumerate(zip(mono.p, mono.q)):
                if pn:
                    term *= alphas[:, n] ** pn
                if qn:
                    term *= alphas[:, n].conj() ** qn
            vals += term
        return vals


def unit_poly(n_modes: int) -> tuple:
    """The constant symbol 1."""
    zero = (0,) * n_modes
    return (Monomial(1.0, zero, zero),)


def mode_monomial(n_modes: int, mode: int, p: int, q: int) -> tuple:
    """Single-mode monomial alpha_mode^p * conj(alpha_mode)^q."""
    pv = [0] * n_modes
    qv = [0] * n_modes
    pv[mode] = p
    qv[mode] = q
    return (Monomial(1.0, tuple(pv), tuple(qv)),)


def atomic_observable(f, n_modes: int, name: str = "") -> Observable:
    """Observable with field symbol 1, i.e. a pure atomic operator."""
    return Observable(f=f, poly=unit_poly(n_modes), name=name)
