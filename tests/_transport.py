"""A change of basis inside each degree fiber, as a test input builder.

A basis change that maps every degree fiber to itself is a graded
isomorphism: it keeps every verdict, dimension and flag of `decompose`,
and it fills the tables in, so an instance written in a monomial basis
reaches code paths that its unit rows never do.  The tables are
recomputed with the dense evaluators of `_dense_model` and written in
the new basis one fiber at a time.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from _dense_model import eval_action, eval_amul, eval_bracket, eval_rho
from _ref_linalg import rref
from g3lr.model import Algebra3LR


def _inverse(m):
    """The inverse of the square matrix m (lists of rows), or None when
    m is singular."""
    k = len(m)
    rows = rref([[Fraction(c) for c in r]
                 + [Fraction(i == j) for j in range(k)]
                 for i, r in enumerate(m)])
    if len(rows) < k or any(r[i] != 1 for i, r in enumerate(rows)):
        return None
    return [r[k:] for r in rows]


def transport(alg, matrices):
    """`alg` in a new basis that maps each degree fiber to itself.
    `matrices[(space, degree)]` is an invertible integer matrix whose
    row i is new basis vector i of that fiber in its old basis; a fiber
    without an entry keeps its basis.  Labels and degrees stay."""
    new, back = {}, {}     # space -> new basis vectors, inverse per fiber
    for space in ("L", "A"):
        basis = alg.basis(space)
        n = len(basis)
        vecs = [None] * n
        back[space] = []
        for d, idx in basis.fibers.items():
            k = len(idx)
            m = matrices.get((space, d)) or [
                [int(r == c) for c in range(k)] for r in range(k)]
            inv = _inverse(m)
            if inv is None:
                raise ValueError("singular matrix for %s fiber %r"
                                 % (space, d))
            back[space].append((idx, inv))
            for i, row in zip(idx, m):
                v = [Fraction(0)] * n
                for j, c in zip(idx, row):
                    v[j] = Fraction(c)
                vecs[i] = tuple(v)
        new[space] = vecs

    def written(space, w):
        """The old coordinates w in the new basis, as a sparse entry:
        w' = w M^-1 on each fiber."""
        out = {}
        for idx, inv in back[space]:
            for r, i in enumerate(idx):
                c = sum(w[j] * inv[s][r] for s, j in enumerate(idx))
                if c:
                    out[i] = c
        return out

    L, A = new["L"], new["A"]
    nL, nA = range(alg.dim_L), range(alg.dim_A)
    tables = (
        {key: written("L", eval_bracket(alg, *(L[i] for i in key)))
         for key in combinations(nL, 3)},
        {(i, j): written("A", eval_amul(alg, A[i], A[j]))
         for i, j in combinations_with_replacement(nA, 2)},
        {(a, x): written("L", eval_action(alg, A[a], L[x]))
         for a, x in product(nA, nL)},
        {(i, j, k): written("A", eval_rho(alg, L[i], L[j], A[k]))
         for i, j, k in product(nL, nL, nA)},
    )
    return Algebra3LR(alg.group, alg.L, alg.A,
                      *({k: e for k, e in t.items() if e} for t in tables))


def random_transport(alg, seed):
    """`transport` by a seeded invertible matrix per fiber of each side,
    entries in [-2, 2]; a singular draw is drawn again."""
    rng = random.Random(seed)
    matrices = {}
    for space in ("L", "A"):
        for d, idx in sorted(alg.basis(space).fibers.items()):
            k = len(idx)
            while True:
                m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
                if _inverse(m) is not None:
                    break
            matrices[(space, d)] = m
    return transport(alg, matrices)
