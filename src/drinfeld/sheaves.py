"""Finite v-sheaves over finite fields as matrix triples.

A sheaf of rank r is (P, Psi, V): P is the matrix of phi on the bases
{f_j (x) 1} -> {f_i}, Psi the matrix of the t-action, V the matrix of the
splitting map v.  The twist convention is fixed once: the coordinates of
x (x) 1 in the Frobenius pullback are the entrywise q-powers of the
coordinates of x.  With that convention the axioms read

    Psi = theta*I + P V,    Psi^[q] V = V Psi,    P Psi^[q] = Psi P,

and Taguchi duality is the transpose-swap (P, Psi, V) -> (V^T, Psi^T, P^T).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError
from .fields import AResidue, extension_with_embedding
from .tau import TauPoly


# -- small dense matrices as tuples of row tuples -------------------------

def mat(rows):
    return tuple(tuple(r) for r in rows)


def mat_identity(ring, n, scale=None):
    s = ring.one if scale is None else scale
    return tuple(tuple(s if i == j else ring.zero for j in range(n))
                 for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _dot(u, v):
    return functools.reduce(operator.add, map(operator.mul, u, v))


def _dot_for(x, y):
    """The sum of products for entries like x and y: ``ResidueRing.dot``
    when both are residues of one ring, else ``_dot``."""
    if type(x) is AResidue and type(y) is AResidue and x.ring is y.ring:
        return x.ring.dot
    return _dot


def mat_mul(a, b):
    """The product a b.  Over a residue ring A/(m) each entry is one
    ``ResidueRing.dot`` (with p prime: the row-by-column products summed
    on integers and reduced once); otherwise it is the sum of the element
    products."""
    dot = _dot_for(a[0][0], b[0][0])
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a, v):
    dot = _dot_for(a[0][0], v[0])
    return tuple(dot(row, v) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def mat_frob(a, k=1):
    return tuple(tuple(x.frob(k) for x in row) for row in a)


def vec_frob(v, k=1):
    return tuple(x.frob(k) for x in v)


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _rref(rows):
    """Reduced row echelon form over a field: (rows, pivots), the nonzero
    reduced rows from the top and the pivot column of each, ascending."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def kernel_basis(ring, a):
    """Basis of the right kernel of a over a field handle, one vector per
    free column of the reduced row echelon form."""
    rows, pivots = _rref(a)
    m = len(a[0]) if a else 0
    basis = []
    for fcol in range(m):
        if fcol in pivots:
            continue
        v = [ring.zero] * m
        v[fcol] = ring.one
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][fcol]
        basis.append(tuple(v))
    return basis


def column_echelon(ring, a):
    """Echelon basis of the column space, as (pivot, row) pairs of the
    reduced row echelon form of a^T; used to reduce coker classes."""
    rows, pivots = _rref(mat_transpose(a))
    return list(zip(pivots, rows))


def coker_reduce(ring, echelon, v):
    """Canonical representative of v modulo the echelonized column space:
    the element of the coset that is zero at every pivot."""
    vec = list(v)
    for piv_row, piv_vec in echelon:
        if vec[piv_row]:
            c = vec[piv_row]
            vec = [x - c * y for x, y in zip(vec, piv_vec)]
    return tuple(vec)


# -- v-sheaf data ----------------------------------------------------------

@dataclass(frozen=True)
class VSheafData:
    ring: object
    rank: int
    P: tuple
    Psi: tuple
    V: tuple


def vsheaf_validate(S):
    """Check the three defining identities exactly.

    Returns (ok, violations); violations name the failed axioms.
    """
    ring = S.ring
    n = S.rank
    violations = []
    theta_id = mat_identity(ring, n, ring.theta)
    if not mat_eq(S.Psi, mat_add(theta_id, mat_mul(S.P, S.V))):
        violations.append("psi_t = theta + phi o v")
    if not mat_eq(mat_mul(mat_frob(S.Psi), S.V), mat_mul(S.V, S.Psi)):
        violations.append("(psi_t (x) 1) o v = v o psi_t")
    if not mat_eq(mat_mul(S.P, mat_frob(S.Psi)), mat_mul(S.Psi, S.P)):
        violations.append("psi_t commutes with phi")
    return not violations, violations


def taguchi_dual_sheaf(S):
    """Transpose-swap duality: (P, Psi, V) -> (V^T, Psi^T, P^T)."""
    ok, violations = vsheaf_validate(S)
    if not ok:
        raise DomainError("cannot dualize invalid sheaf data: %s" % violations)
    dual = VSheafData(S.ring, S.rank, mat_transpose(S.V),
                      mat_transpose(S.Psi), mat_transpose(S.P))
    ok, violations = vsheaf_validate(dual)
    if not ok:  # algebraically impossible when the input validates
        raise InternalConsistencyError("dual sheaf fails axioms: %s" % violations)
    return dual


def _reduce_coords(h, u, r):
    rem = h.rmod(u)
    return tuple(rem.coeff(i) for i in range(r))


def kernel_sheaf(u, phi_t, ring):
    """The kernel of the isogeny u as a v-sheaf.

    phi_t is the t-action of the source module (any rank, so the Carlitz
    module passes through the same code path).  Basis: tau^0..tau^(r-1) of
    the right-quotient by u.  Psi reduces tau^i * phi_t; phi reduces the
    shift tau^(i+1); v drops w = tau^i * phi_t - theta tau^i one tau-slot
    down and reduces modulo the coefficient twist of u.  The validator runs
    on the result and a failure is a hard error.
    """
    if u.is_zero() or u.degree < 1:
        raise DomainError("kernel sheaf needs an isogeny of positive degree")
    try:
        u.leading().inv()
    except DomainError:
        raise DomainError("kernel sheaf needs a unit leading coefficient")
    # u must actually be an isogeny out of the source: u * phi_t must be
    # right-divisible by u (the quotient is then the target's t-action).
    _, rem = (u * phi_t).rdivmod(u)
    if not rem.is_zero():
        raise DomainError("u does not define an isogeny from the given module")
    r = u.degree
    theta = ring.theta
    u_tw = u.twist(1)
    psi_cols, p_cols, v_cols = [], [], []
    for i in range(r):
        tau_i = TauPoly.tau(ring, i) if i else TauPoly.one(ring)
        w = tau_i * phi_t
        psi_cols.append(_reduce_coords(w, u, r))
        p_cols.append(_reduce_coords(TauPoly.tau(ring, i + 1), u, r))
        w0 = w - tau_i.scale_left(theta)
        if w0.coeff(0):
            raise InternalConsistencyError("tau^0 coefficient of the v-lift survives")
        shifted = TauPoly(ring, w0.coeffs[1:])
        v_cols.append(_reduce_coords(shifted, u_tw, r))
    S = VSheafData(ring, r, mat_transpose(mat(p_cols)),
                   mat_transpose(mat(psi_cols)), mat_transpose(mat(v_cols)))
    ok, violations = vsheaf_validate(S)
    if not ok:
        raise InternalConsistencyError(
            "kernel sheaf fails the v-sheaf axioms: %s" % violations)
    return S


def dual_points(S, m=1):
    """All points of the Taguchi dual over the degree-m extension.

    Solves V x = x^[q] by restriction of scalars to F_q: each coordinate is
    expanded over the power basis of the extension, turning the q-semilinear
    system into an F_q-linear one.  The column of x_j = b, for b in that
    basis, holds the coordinates of V_ij b - delta_ij b^q for i = 0..r-1.
    Output is sorted for determinism.
    """
    ring = S.ring
    if not hasattr(ring, "elements"):
        raise DomainError("point solving needs a finite field base")
    K, embed = extension_with_embedding(ring, m)
    field = K.field
    s = K.degree
    r = S.rank
    # power basis of K over F_q: 1, tbar, tbar^2, ...
    tbar = AResidue(K, (field.zero, field.one))
    basis = [K.one]
    for _ in range(1, s):
        basis.append(basis[-1] * tbar)

    def coords(elem):
        c = elem.coeffs
        return tuple(c[i] if i < len(c) else field.zero for i in range(s))

    V_K = tuple(tuple(embed(x) for x in row) for row in S.V)

    def column(j, b):
        out = []
        for i in range(r):
            img = V_K[i][j] * b
            out.extend(coords(img - b.frob() if i == j else img))
        return out

    basis_vecs = kernel_basis(field, mat_transpose(
        [column(j, b) for j in range(r) for b in basis]))
    # the F_q-span of an independent kernel basis: no point repeats
    points = []
    span = [tuple(field.zero for _ in range(r * s))]
    for bvec in basis_vecs:
        new_span = []
        for v in span:
            for c in field.elements():
                new_span.append(tuple(x + c * y for x, y in zip(v, bvec)))
        span = new_span
    for v in span:
        pt = tuple(AResidue(K, v[j * s:(j + 1) * s]) for j in range(r))
        if vec_frob(pt) != mat_vec(V_K, pt):
            raise InternalConsistencyError("solver produced a non-point")
        points.append(pt)
    points.sort(key=lambda pt: tuple(K.element_key(x) for x in pt))
    return K, embed, points


def dual_point_t_action(S, K, embed, pt):
    """The A-action on dual points is x -> Psi x (over the extension)."""
    Psi_K = tuple(tuple(embed(x) for x in row) for row in S.Psi)
    return mat_vec(Psi_K, pt)


def htt_evaluate(S, x):
    """Hodge-Tate-Taguchi value of a dual point: its class in coker(P).

    The class is the canonical representative of x modulo the column space
    of P; for the Carlitz torsion sheaf the canonical inclusion point maps
    to the generator, the avatar of dZ.
    """
    ring = S.ring
    if vec_frob(x) != mat_vec(S.V, x):
        raise DomainError("htt_evaluate expects a verified dual point")
    ech = column_echelon(ring, S.P)
    return coker_reduce(ring, ech, x)
