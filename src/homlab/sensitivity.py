"""Functional (Malliavin-type) derivative of linear corrector functionals
via adjoint solves, the partition-consolidated carre-du-champ, and a
finite-difference validation of the adjoint formula.

The adjoint is derived for the discrete operators themselves, so the
finite-difference check is limited only by the O(t) linearization bias and
the solver tolerance.  ``malliavin_derivative`` evaluates F(a) from the same
corrector solve it needs for dF/da and stores it on the derivative, so
``fd_check`` solves only the perturbed corrector.  Corrector solves are
shared across functionals: the phi and the sigma functional of one direction
need the same phi_i, on a and on every perturbed field.
"""

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .corrector import compute_corrector, sigma_component
from .elliptic import SolveOptions, solve_divform_rhs
from .lattice import bgrad, div, grad, poisson_solve
from .randomfield import CoefficientField

__all__ = [
    "FunctionalSpec",
    "DerivativeField",
    "malliavin_derivative",
    "carre_du_champ",
    "fd_check",
    "functional_value",
]


@dataclass(frozen=True)
class FunctionalSpec:
    """Linear functional of the extended corrector gradient.

    kind "phi": F = int grad(phi_i) . g     (direction i)
    kind "sigma": F = int grad(sigma_ijk) . g   (pair (j, k), j < k)
    g is a vector weight field of shape (d,) + grid.
    """

    kind: str
    g: np.ndarray
    direction: int = 0
    pair: tuple = (0, 1)

    def __post_init__(self):
        if self.kind not in ("phi", "sigma"):
            raise ValueError("kind must be 'phi' or 'sigma'")
        if self.kind == "sigma" and not self.pair[0] < self.pair[1]:
            raise ValueError("sigma pair must satisfy j < k")


@dataclass
class DerivativeField:
    """d x d matrix field dF/da (continuum normalization, h = 1), the
    adjoint solutions used to assemble it, the value F(a) and the solver
    options both were computed with."""

    deriv: np.ndarray            # (d, d) + grid
    adjoints: dict
    value: float
    opts: SolveOptions


# One direction's phi_i plus 2 perturbations x 2 steps of an fd check: with
# fewer entries the phi-then-sigma reuse order evicts each entry before its
# reuse.  A new field's solves evict the old field's entries.
_MEMO_SIZE = 5
_memo = OrderedDict()


def _corrector(a: CoefficientField, i, opts):
    """phi_i, the one corrector a functional of direction i needs, read-only.

    Solves are memoized on a digest of the coefficients, the direction and
    the options, so a repeat returns the bit-identical array.  Only converged
    solves are stored (``compute_corrector`` raises otherwise)."""
    opts = opts or SolveOptions()
    coeffs = np.ascontiguousarray(a.a)
    key = (hashlib.sha256(coeffs.data).hexdigest(), coeffs.shape,
           coeffs.dtype.str, i, opts)
    phi = _memo.get(key)
    if phi is not None:
        _memo.move_to_end(key)
        return phi
    if len(_memo) >= _MEMO_SIZE:
        # evict before solving: the solve's working arrays then share the
        # peak with 4 held entries, not 5
        _memo.popitem(last=False)
    phi = compute_corrector(a, opts, directions=[i])[0][0]
    phi.flags.writeable = False
    _memo[key] = phi
    return phi


def _value(a: CoefficientField, spec: FunctionalSpec, phi):
    """F(a) from the corrector phi = phi_i of the functional's direction;
    for kind "sigma" only the requested sigma_ijk is solved for."""
    if spec.kind == "phi":
        target = grad(phi)
    else:
        j, k = spec.pair
        target = grad(sigma_component(a, phi, spec.direction, j, k))
    return float(np.sum(target * spec.g))


def functional_value(a: CoefficientField, spec: FunctionalSpec,
                     opts: SolveOptions = None):
    """Evaluate F(a) from scratch: one corrector solve (the finite-difference
    check uses it for the perturbed field)."""
    return _value(a, spec, _corrector(a, spec.direction, opts))


def malliavin_derivative(a: CoefficientField, spec: FunctionalSpec,
                         opts: SolveOptions = None):
    """Adjoint-solve representation of dF/da, with F(a) itself.

    phi-functional:  solve -div(a^T grad vt) = div g;
                     dF/da = grad vt  (x)  (grad phi_i + e_i).
    sigma-functional: additionally -lap vb = div g and
                     -div(a^T grad vh) = div(a^T m) with
                     m = (d_j vb) e_k - (d_k vb) e_j (backward differences);
                     dF/da = (m + grad vh)  (x)  (grad phi_i + e_i).
    F(a) is evaluated from the same phi_i and stored as ``value``.
    """
    opts = opts or SolveOptions()
    grid = a.grid
    i = spec.direction
    phi = _corrector(a, i, opts)
    w = grad(phi)
    w[i] += 1.0
    at = a.transpose()
    adjoints = {}
    if spec.kind == "phi":
        vt, rep = solve_divform_rhs(at, div(spec.g), opts)
        left = grad(vt)
        adjoints["vt"] = vt
    else:
        j, k = spec.pair
        vb = poisson_solve(div(spec.g))
        gb = bgrad(vb)
        m = np.zeros((grid.d,) + grid.shape)
        m[k] = gb[j]
        m[j] = -gb[k]
        atm = np.einsum("pq...,q...->p...", at.a, m)
        vh, rep = solve_divform_rhs(at, div(atm), opts)
        left = m + grad(vh)
        adjoints.update(vb=vb, vh=vh)
    if not rep.converged:
        raise RuntimeError(f"adjoint solve failed: {rep}")
    deriv = np.einsum("p...,q...->pq...", left, w)
    return DerivativeField(deriv, adjoints, _value(a, spec, phi), opts)


def carre_du_champ(deriv: DerivativeField, labels):
    """sum over partition cells D of (int_D |dF/da|_l1)^2, with the
    entrywise l1 matrix norm; ``labels`` is an integer label array over the
    grid (a value of -1 marks a gap and is an error)."""
    labels = np.asarray(labels)
    grid_shape = deriv.deriv.shape[2:]
    if labels.shape != grid_shape:
        raise ValueError("partition labels must cover the torus window")
    if np.any(labels < 0):
        raise ValueError("partition has a gap (label -1)")
    l1 = np.sum(np.abs(deriv.deriv), axis=(0, 1)).ravel()
    sums = np.bincount(labels.ravel(), weights=l1)
    return float(np.sum(sums**2))


def fd_check(a: CoefficientField, spec: FunctionalSpec, cell, delta_a,
             t=None, opts: SolveOptions = None, deriv: DerivativeField = None):
    """Perturb a by t * delta_a on one cell, recompute F exactly, and
    compare the difference quotient with the adjoint prediction, relative
    to ||dF/da(cell)||_F ||delta_a||_F: that bounds |adjoint| (Cauchy-
    Schwarz) but, unlike it, is not ~0 when delta_a is orthogonal to dF/da.

    The unperturbed F(a) is ``deriv.value``, so only the perturbed corrector
    is solved here; without ``deriv`` the derivative is computed first.  A
    ``deriv`` computed with options other than ``opts`` raises ValueError,
    since both values of the difference quotient must come from solves at
    the same tolerance.

    Returns (relative_error, fd_value, adjoint_value).
    """
    opts = opts or SolveOptions(tol=1e-12)
    if t is None:
        t = 1e-4 * a.lam_eff
    if deriv is None:
        deriv = malliavin_derivative(a, spec, opts)
    elif deriv.opts != opts:
        raise ValueError(f"derivative solved with {deriv.opts}, "
                         f"fd_check asked for {opts}")
    delta_a = np.asarray(delta_a, dtype=np.float64)
    local = deriv.deriv[(Ellipsis,) + tuple(cell)]
    adj = float(np.sum(local * delta_a))
    a2 = a.a.copy()
    a2[(Ellipsis,) + tuple(cell)] += t * delta_a
    pert = CoefficientField(a2, a.lam_eff, a.grid)
    f1 = functional_value(pert, spec, opts)
    fd = (f1 - deriv.value) / t
    denom = max(float(np.linalg.norm(local) * np.linalg.norm(delta_a)), 1e-300)
    return abs(fd - adj) / denom, fd, adj
