"""Dense reference copy of the axiom checks, kept as a test oracle.

These are the checks `g3lr.axioms` ran before it evaluated identities on
the sparse stored tables: every argument is a dense Fraction vector sent
through the dense evaluators of `_dense_model`, and the representation
check combines the dense rho images of the A-basis, tabulated once per
instance.  None of them skips a tuple.  The differential tests in
`test_axioms.py` assert that both return the same violations, in the
same order, with the same witnesses and sides.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from g3lr.axioms import (A_ALGEBRA, FUNDAMENTAL, GRADING, REPRESENTATION,
                         RHO_DERIVATION, RINEHART, Violation)

import _dense_model as dm
from _ref_linalg import is_zero_vec, unit_vec, vec_add

ZERO = Fraction(0)


def check_fundamental_identity(alg):
    """[[x1,x2,x3],y1,y2] = [[x1,y1,y2],x2,x3] + [[x2,y1,y2],x3,x1]
    + [[x3,y1,y2],x1,x2] on all basis 5-tuples.  Both sides are
    alternating in (x1,x2,x3) and in (y1,y2), so strictly increasing
    index tuples cover everything."""
    out = []
    n = alg.dim_L
    for i, j, k in combinations(range(n), 3):
        b_ijk = dm.bracket_basis(alg, i, j, k)
        for l, m in combinations(range(n), 2):
            lhs = dm.eval_bracket(alg, b_ijk, unit_vec(n, l),
                                  unit_vec(n, m))
            rhs = dm.eval_bracket(alg, dm.bracket_basis(alg, i, l, m),
                                  unit_vec(n, j), unit_vec(n, k))
            rhs = vec_add(rhs, dm.eval_bracket(
                alg, dm.bracket_basis(alg, j, l, m),
                unit_vec(n, k), unit_vec(n, i)))
            rhs = vec_add(rhs, dm.eval_bracket(
                alg, dm.bracket_basis(alg, k, l, m),
                unit_vec(n, i), unit_vec(n, j)))
            if lhs != rhs:
                out.append(Violation(FUNDAMENTAL, (i, j, k, l, m), lhs, rhs))
    return out


def _rho_op(alg, i, j, a_vec):
    n = alg.dim_L
    return dm.eval_rho(alg, unit_vec(n, i), unit_vec(n, j), a_vec)


def _lin(terms, dim):
    """The dense sum of c * v over the pairs (c, v) in terms."""
    acc = [ZERO] * dim
    for c, v in terms:
        if c:
            for m, x in enumerate(v):
                if x:
                    acc[m] += c * x
    return tuple(acc)


def check_representation(alg):
    """Both defining operator identities of a module structure, applied
    to every A-basis vector:

    (i)  [rho(x1,x2), rho(x3,x4)] = rho([x1,x2,x3],x4) - rho([x1,x2,x4],x3)
    (ii) rho([x1,x2,x3],x4) = rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
                              + rho(x3,x1)rho(x2,x4)

    No symmetry in the x's is assumed, so all 4-tuples are enumerated.
    Each operator rho(x_i, x_j) is tabulated once, as its dense images of
    the A-basis under the dense evaluator, and every term is a dense
    linear combination of tabulated images, zero terms included.
    """
    out = []
    if not alg.rho:
        # every operator is zero and so is rho applied to any bracket
        return out
    n, nA = alg.dim_L, alg.dim_A
    # ops[i][j][k] = rho(x_i, x_j)(a_k)
    ops = [[[_rho_op(alg, i, j, unit_vec(nA, k)) for k in range(nA)]
            for j in range(n)] for i in range(n)]

    def op(i, j, v):
        """rho(x_i, x_j) applied to the dense A-vector v."""
        return _lin(zip(v, ops[i][j]), nA)

    def rho_of(b, j, k):
        """rho(b, x_j)(a_k) for the dense L-vector b."""
        return _lin([(c, ops[p][j][k]) for p, c in enumerate(b)], nA)

    for x1, x2, x3, x4 in product(range(n), repeat=4):
        b123 = dm.bracket_basis(alg, x1, x2, x3)
        b124 = dm.bracket_basis(alg, x1, x2, x4)
        for ak in range(nA):
            r12_r34a = op(x1, x2, ops[x3][x4][ak])
            commutator = _lin([(1, r12_r34a),
                               (-1, op(x3, x4, ops[x1][x2][ak]))], nA)
            rho_b123_x4 = rho_of(b123, x4, ak)
            rhs_i = _lin([(1, rho_b123_x4), (-1, rho_of(b124, x3, ak))],
                         nA)
            if commutator != rhs_i:
                out.append(Violation(REPRESENTATION,
                                     ("i", x1, x2, x3, x4, ak),
                                     commutator, rhs_i))
            rhs_ii = _lin([(1, r12_r34a),
                           (1, op(x2, x3, ops[x1][x4][ak])),
                           (1, op(x3, x1, ops[x2][x4][ak]))], nA)
            if rho_b123_x4 != rhs_ii:
                out.append(Violation(REPRESENTATION,
                                     ("ii", x1, x2, x3, x4, ak),
                                     rho_b123_x4, rhs_ii))
    return out


def check_rinehart_compat(alg):
    """[x,y,a z] = a[x,y,z] + (rho(x,y)a) z  and
    rho(a x, y) = rho(x, a y) = a rho(x, y)  on all basis tuples."""
    out = []
    nL, nA = alg.dim_L, alg.dim_A
    for x, y, z in product(range(nL), repeat=3):
        bxyz = dm.bracket_basis(alg, x, y, z)
        for ak in range(nA):
            a = unit_vec(nA, ak)
            az = dm.action_basis(alg, ak, z)
            lhs = dm.eval_bracket(alg, unit_vec(nL, x), unit_vec(nL, y),
                                  az)
            rhs = dm.eval_action(alg, a, bxyz)
            rho_a = _rho_op(alg, x, y, a)
            rhs = vec_add(rhs,
                          dm.eval_action(alg, rho_a, unit_vec(nL, z)))
            if lhs != rhs:
                out.append(Violation(RINEHART, ("bracket", x, y, z, ak),
                                     lhs, rhs))
    for x, y in product(range(nL), repeat=2):
        for ak in range(nA):
            a = unit_vec(nA, ak)
            ax = dm.action_basis(alg, ak, x)
            ay = dm.action_basis(alg, ak, y)
            for bk in range(nA):
                b = unit_vec(nA, bk)
                left = dm.eval_rho(alg, ax, unit_vec(nL, y), b)
                mid = dm.eval_rho(alg, unit_vec(nL, x), ay, b)
                scaled = dm.eval_amul(alg, a, _rho_op(alg, x, y, b))
                if left != scaled:
                    out.append(Violation(RINEHART,
                                         ("rho-left", x, y, ak, bk),
                                         left, scaled))
                if mid != scaled:
                    out.append(Violation(RINEHART,
                                         ("rho-right", x, y, ak, bk),
                                         mid, scaled))
    return out


def check_rho_derivation(alg):
    """rho(x,y)(ab) = (rho(x,y)a)b + a(rho(x,y)b): the operators land
    in Der(A).  The product is symmetric, so pairs a <= b suffice."""
    out = []
    if not alg.rho:
        return out
    nL, nA = alg.dim_L, alg.dim_A
    for x, y in product(range(nL), repeat=2):
        for ai in range(nA):
            for bi in range(ai, nA):
                a, b = unit_vec(nA, ai), unit_vec(nA, bi)
                ab = dm.amul_basis(alg, ai, bi)
                lhs = _rho_op(alg, x, y, ab)
                rhs = vec_add(dm.eval_amul(alg, _rho_op(alg, x, y, a), b),
                              dm.eval_amul(alg, a, _rho_op(alg, x, y, b)))
                if lhs != rhs:
                    out.append(Violation(RHO_DERIVATION, (x, y, ai, bi),
                                         lhs, rhs))
    return out


def check_A_algebra(alg):
    """Associativity (ab)c = a(bc) on A-basis triples and the module
    law (ab)x = a(bx) on mixed triples.  Commutativity is structural."""
    out = []
    nA, nL = alg.dim_A, alg.dim_L
    for i, j, k in product(range(nA), repeat=3):
        lhs = dm.eval_amul(alg, dm.amul_basis(alg, i, j), unit_vec(nA, k))
        rhs = dm.eval_amul(alg, unit_vec(nA, i), dm.amul_basis(alg, j, k))
        if lhs != rhs:
            out.append(Violation(A_ALGEBRA, ("assoc", i, j, k), lhs, rhs))
    for i, j in product(range(nA), repeat=2):
        for x in range(nL):
            lhs = dm.eval_action(alg, dm.amul_basis(alg, i, j),
                                 unit_vec(nL, x))
            rhs = dm.eval_action(alg, unit_vec(nA, i),
                                 dm.action_basis(alg, j, x))
            if lhs != rhs:
                out.append(Violation(A_ALGEBRA, ("module", i, j, x),
                                     lhs, rhs))
    return out


def check_grading(alg):
    """Every nonzero structure constant lands in the fiber its input
    degrees dictate: [L_g,L_h,L_k] in L_{ghk}, A_g A_h in A_{gh},
    A_h L_g in L_{hg}, rho(L_g,L_g')(A_h) in A_{gg'h}."""
    out = []
    Ld, Ad = alg.L.degrees, alg.A.degrees

    def bad_targets(entry, want, degrees):
        return [m for m in entry if degrees[m] != want]

    for (i, j, k), entry in alg.bracket.items():
        want = Ld[i].mul(Ld[j]).mul(Ld[k])
        for m in bad_targets(entry, want, Ld):
            lhs = dm.bracket_basis(alg, i, j, k)
            out.append(Violation(GRADING, ("bracket", i, j, k, m),
                                 lhs, ("expected-degree",) + want.coords))
    for (i, j), entry in alg.amul.items():
        want = Ad[i].mul(Ad[j])
        for m in bad_targets(entry, want, Ad):
            out.append(Violation(GRADING, ("amul", i, j, m),
                                 dm.amul_basis(alg, i, j),
                                 ("expected-degree",) + want.coords))
    for (ai, li), entry in alg.action.items():
        want = Ad[ai].mul(Ld[li])
        for m in bad_targets(entry, want, Ld):
            out.append(Violation(GRADING, ("action", ai, li, m),
                                 dm.action_basis(alg, ai, li),
                                 ("expected-degree",) + want.coords))
    for (i, j, ak), entry in alg.rho.items():
        want = Ld[i].mul(Ld[j]).mul(Ad[ak])
        for m in bad_targets(entry, want, Ad):
            out.append(Violation(GRADING, ("rho", i, j, ak, m),
                                 dm.rho_basis(alg, i, j, ak),
                                 ("expected-degree",) + want.coords))
    return out


def rho_antisymmetry_witnesses(alg):
    """Basis pairs x <= y and A-basis vectors a where
    rho(x,y)a != -rho(y,x)a, the pairs x = y included.  Not an axiom: the
    defining identities never require antisymmetry, so this is reported
    as a note only."""
    out = []
    n = alg.dim_L
    for i, j in combinations_with_replacement(range(n), 2):
        for ak in range(alg.dim_A):
            a = unit_vec(alg.dim_A, ak)
            fwd = _rho_op(alg, i, j, a)
            bwd = _rho_op(alg, j, i, a)
            if not is_zero_vec(vec_add(fwd, bwd)):
                out.append((i, j, ak))
    return out


DENSE_CHECKS = (
    (FUNDAMENTAL, check_fundamental_identity),
    (REPRESENTATION, check_representation),
    (RINEHART, check_rinehart_compat),
    (RHO_DERIVATION, check_rho_derivation),
    (A_ALGEBRA, check_A_algebra),
    (GRADING, check_grading),
)

# every axiom group, in the order of both suites and of their reports
ALL_AXIOMS = tuple(axiom for axiom, _ in DENSE_CHECKS)
