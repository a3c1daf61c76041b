"""The divergence-form stencil assembled as a sparse matrix, the independent
construction that the matrix-free ``kernels.divform_apply`` and the solvers
built on it are checked against; and the torus preconditioner in float64,
the reference for the float32 one that ``elliptic.operator`` builds."""

import numpy as np
import scipy.sparse as sp

from homlab.kernels import divform_apply
from homlab.lattice import _inverse_laplacian, _spectral_multiply


def assembled_operator(a):
    """-div(a grad .) on the torus as a CSR matrix, from the stencil

        (Au)(x) = -sum_ij [a_ij(x) (u(x+e_j) - u(x))
                           - a_ij(x-e_i) (u(x-e_i+e_j) - u(x-e_i))]

    with cells numbered row-major."""
    d, shape = a.shape[0], a.shape[2:]
    x = np.indices(shape).reshape(d, -1)
    e = np.eye(d, dtype=int)[:, :, None]
    rows, cols, vals = [], [], []
    for i in range(d):
        for j in range(d):
            here = a[i, j].reshape(-1)
            back = a[i, j][tuple((x - e[i]) % np.array(shape)[:, None])]
            for col, val in ((x + e[j], -here), (x, here),
                             (x - e[i] + e[j], back), (x - e[i], -back)):
                rows.append(np.ravel_multi_index(x, shape))
                cols.append(np.ravel_multi_index(col, shape, mode="wrap"))
                vals.append(val)
    n = x.shape[1]
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n))


def float64_sandwich(field):
    """The torus preconditioner K^-1 (-div(b grad .)) K^-1 of ``field``,
    K = -lap by FFT and b = diag(1/a_ii), every step in float64."""
    a, d = field.a, field.grid.d
    inv = _inverse_laplacian(field.grid.shape)
    diag = 1.0 / np.einsum("ii...->i...", a)
    b = np.broadcast_to(diag[:, None], (d, d) + diag.shape[1:])
    rows = tuple((i,) for i in range(d))
    return lambda r: _spectral_multiply(
        divform_apply(b, _spectral_multiply(r, inv), rows), inv)
