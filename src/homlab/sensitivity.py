"""Functional (Malliavin-type) derivative of linear corrector functionals
via adjoint solves, the partition-consolidated carre-du-champ, and a
finite-difference validation of the adjoint formula.

The adjoint is derived for the discrete operators themselves, so the
finite-difference check is limited only by the O(t) linearization bias and
the solver tolerance.  ``malliavin_derivative`` evaluates F(a) from the same
corrector solve it needs for dF/da and stores it on the derivative.
``fd_check`` solves no perturbed corrector: a perturbation C = t delta_a on
the cell x0 changes A = -div(a grad .) by rank d, so with the cell
responses W_k = A^-1 U_k, U_k = delta_{x0+e_k} - delta_{x0} = -div(e_k
delta_{x0}) (k < d), the Sherman-Morrison-Woodbury identity gives the
perturbed corrector exactly:

    G[j, k] = (d_j W_k)(x0)   (forward differences),
    y = (I + C G)^-1 C (e_i + grad phi_i(x0)),
    phi_i(a + C delta_{x0}) = phi_i - sum_k y_k W_k.

Corrector and response solves are shared: the phi and the sigma functional
of one direction need the same phi_i, and every check on one cell the same
d responses, whatever its direction, step or delta_a.
"""

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .corrector import compute_corrector, sigma_component
from .elliptic import SolveOptions, operator, solve_divform, solve_divform_rhs
from .lattice import _grad_at, _pdiff, div, grad, poisson_solve
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
    value F(a), the solver options of both and the coefficients' digest."""

    deriv: np.ndarray            # (d, d) + grid
    value: float
    opts: SolveOptions
    digest: tuple


# A direction's checks on one cell reuse two entries, phi_i (1 grid field)
# and the cell's responses (d fields), across the phi-then-sigma order.  A
# budget of 5 fields keeps both, with room for more cells or directions; a
# new field's solves evict the old field's.  Key -> (fields, array).
_MEMO_FIELDS = 5
_memo = OrderedDict()


def _digest(a: CoefficientField):
    """The coefficients' part of a memo key: SHA-256, shape and dtype."""
    coeffs = np.ascontiguousarray(a.a)
    return (hashlib.sha256(coeffs.data).hexdigest(), coeffs.shape,
            coeffs.dtype.str)


def _memoized(key, fields, solve):
    """The read-only result of ``solve()``, ``fields`` grid fields, shared
    under ``key``; a repeat returns the bit-identical array.  An
    unconverged solve raises ``SolveError`` before anything is stored, so
    only converged solves are."""
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key][1]
    # evict before solving: the solve's working arrays then share the peak
    # with at most _MEMO_FIELDS - fields held fields
    while _memo and sum(f for f, _ in _memo.values()) + fields > _MEMO_FIELDS:
        _memo.popitem(last=False)
    value = solve()
    value.flags.writeable = False
    _memo[key] = (fields, value)
    return value


def _corrector(a: CoefficientField, i, opts, digest=None):
    """phi_i, the one corrector a functional of direction i needs, memoized
    on the coefficients' ``digest`` (taken here when None), the direction
    and the options."""
    opts = opts or SolveOptions()
    key = (digest or _digest(a)) + ("phi", i, opts)
    return _memoized(
        key, 1, lambda: compute_corrector(a, opts, directions=[i])[0][0])


def _cell_responses(a: CoefficientField, cell, opts, digest):
    """W_k = A^-1 U_k for k < d, U_k = -div(e_k delta_cell), stacked:
    shape (d,) + grid, memoized like ``_corrector``."""

    def solve():
        d, op = a.grid.d, operator(a)
        w = np.empty((d,) + a.grid.shape)
        for k in range(d):
            g = np.zeros((d,) + a.grid.shape)
            g[(k,) + cell] = -1.0
            w[k] = solve_divform(op, g, opts)[0]
        return w

    return _memoized(digest + ("cell", cell, opts), a.grid.d, solve)


def _perturbed_corrector(a: CoefficientField, i, cell, c, opts, digest):
    """phi_i of a + c delta_cell by the rank-d update of the module
    docstring, from the memoized phi_i and cell responses of a."""
    phi = _corrector(a, i, opts, digest)
    w = _cell_responses(a, cell, opts, digest)
    v = _grad_at(phi, cell)
    v[i] += 1.0
    y = np.linalg.solve(np.eye(a.grid.d) + c @ _grad_at(w, cell), c @ v)
    return phi - np.tensordot(y, w, axes=1)


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
    """Evaluate F(a) from scratch: one corrector solve."""
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
    i, digest = spec.direction, _digest(a)
    phi = _corrector(a, i, opts, digest)
    w = grad(phi)
    w[i] += 1.0
    at = a.transpose()
    if spec.kind == "phi":
        left = grad(solve_divform_rhs(at, div(spec.g), opts)[0])
    else:
        j, k = spec.pair
        vb = poisson_solve(div(spec.g))
        m = np.zeros((a.grid.d,) + a.grid.shape)
        m[k] = _pdiff(vb, j, False)
        m[j] = -_pdiff(vb, k, False)
        atm = np.einsum("pq...,q...->p...", at.a, m)
        left = m + grad(solve_divform_rhs(at, div(atm), opts)[0])
    deriv = np.einsum("p...,q...->pq...", left, w)
    return DerivativeField(deriv, _value(a, spec, phi), opts, digest)


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
    """Perturb a by C = t * delta_a on one cell x0, recompute F exactly, and
    compare the difference quotient with the adjoint prediction, relative
    to ||dF/da(cell)||_F ||delta_a||_F: that bounds |adjoint| (Cauchy-
    Schwarz) but, unlike it, is not ~0 when delta_a is orthogonal to dF/da.

    The perturbed corrector is the rank-d update of the module docstring,
    phi_i - sum_k y_k W_k with y = (I + C G)^-1 C (e_i + grad phi_i(x0)),
    exact up to the solve tolerance: the first check on a cell solves its d
    responses W_k, later ones on the same field and options none.  F(a) and
    the digest of ``a`` are ``deriv``'s, so ``a`` is not hashed; without
    ``deriv`` the derivative is computed first.  A ``deriv`` computed with
    options other than ``opts`` raises ValueError, since both values of the
    difference quotient must come from solves at the same tolerance.  So does a
    ``cell`` that is not d integers in [0, n), a ``delta_a`` that is not a
    finite d x d matrix, and a ``t`` that is zero or not finite.

    Returns (relative_error, fd_value, adjoint_value).
    """
    d, n = a.grid.d, a.grid.n
    idx = tuple(np.atleast_1d(cell))
    if len(idx) != d or not all(isinstance(x, np.integer) and 0 <= x < n
                                for x in idx):
        raise ValueError(f"cell must be {d} integers in [0, {n}), "
                         f"got {cell!r}")
    cell = tuple(int(x) for x in idx)
    delta_a = np.asarray(delta_a, dtype=np.float64)
    if delta_a.shape != (d, d) or not np.all(np.isfinite(delta_a)):
        raise ValueError(f"delta_a must be a finite {d} x {d} matrix")
    t = 1e-4 * a.lam_eff if t is None else float(t)
    if not np.isfinite(t) or t == 0.0:
        raise ValueError(f"step t must be finite and nonzero, got {t}")
    opts = opts or SolveOptions(tol=1e-12)
    if deriv is None:
        deriv = malliavin_derivative(a, spec, opts)
    elif deriv.opts != opts:
        raise ValueError(f"derivative solved with {deriv.opts}, "
                         f"fd_check asked for {opts}")
    local = deriv.deriv[(Ellipsis,) + cell]
    adj = float(np.sum(local * delta_a))
    c = t * delta_a
    phi_pert = _perturbed_corrector(a, spec.direction, cell, c, opts,
                                    deriv.digest)
    if spec.kind == "sigma":  # a phi value reads no a; sigma's reads a + C
        a = CoefficientField(a.a.copy(), a.lam_eff, a.grid)
        a.a[(Ellipsis,) + cell] += c
    fd = (_value(a, spec, phi_pert) - deriv.value) / t
    denom = max(float(np.linalg.norm(local) * np.linalg.norm(delta_a)), 1e-300)
    return abs(fd - adj) / denom, fd, adj
