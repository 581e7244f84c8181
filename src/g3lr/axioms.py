"""Exhaustive axiom checking on basis tuples.

Every check enumerates all relevant basis tuples, with no sampling.
Because every evaluator is multilinear, an identity verified on basis
tuples holds for all vectors, so a pass is a proof for the instance at
hand.  Where an identity is alternating or antisymmetric in a group of
arguments it suffices to enumerate strictly increasing index tuples for
that group; this reduction is used for the fundamental identity and is
spelled out in the docstrings below.
"""

from dataclasses import dataclass, field
from itertools import combinations, product

from .linalg import vec_add, vec_sub, is_zero_vec

VIOLATION_CAP = 25

FUNDAMENTAL = "fundamental-identity"
REPRESENTATION = "representation"
RINEHART = "rinehart-compatibility"
RHO_DERIVATION = "rho-derivation"
A_ALGEBRA = "A-algebra"
GRADING = "grading"

ALL_AXIOMS = (FUNDAMENTAL, REPRESENTATION, RINEHART, RHO_DERIVATION,
              A_ALGEBRA, GRADING)


@dataclass
class Violation:
    axiom: str
    witness: tuple
    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        assert self.lhs != self.rhs


@dataclass
class AxiomReport:
    violations: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c == 0 for c in self.counts.values())

    def capped(self):
        """Violation lists truncated for reporting; counts keep the
        full totals."""
        return {axiom: vs[:VIOLATION_CAP]
                for axiom, vs in self.violations.items()}


def check_fundamental_identity(alg):
    """[[x1,x2,x3],y1,y2] = [[x1,y1,y2],x2,x3] + [[x2,y1,y2],x3,x1]
    + [[x3,y1,y2],x1,x2] on all basis 5-tuples.  Both sides are
    alternating in (x1,x2,x3) and in (y1,y2), so strictly increasing
    index tuples cover everything."""
    out = []
    n = alg.dim_L
    for i, j, k in combinations(range(n), 3):
        b_ijk = alg.bracket_basis(i, j, k)
        for l, m in combinations(range(n), 2):
            lhs = alg.eval_bracket(b_ijk, alg.L_unit(l), alg.L_unit(m))
            rhs = alg.eval_bracket(alg.bracket_basis(i, l, m),
                                   alg.L_unit(j), alg.L_unit(k))
            rhs = vec_add(rhs, alg.eval_bracket(alg.bracket_basis(j, l, m),
                                                alg.L_unit(k), alg.L_unit(i)))
            rhs = vec_add(rhs, alg.eval_bracket(alg.bracket_basis(k, l, m),
                                                alg.L_unit(i), alg.L_unit(j)))
            if lhs != rhs:
                out.append(Violation(FUNDAMENTAL, (i, j, k, l, m), lhs, rhs))
    return out


def _rho_op(alg, i, j, a_vec):
    return alg.eval_rho(alg.L_unit(i), alg.L_unit(j), a_vec)


def check_representation(alg):
    """Both defining operator identities of a module structure, applied
    to every A-basis vector:

    (i)  [rho(x1,x2), rho(x3,x4)] = rho([x1,x2,x3],x4) - rho([x1,x2,x4],x3)
    (ii) rho([x1,x2,x3],x4) = rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
                              + rho(x3,x1)rho(x2,x4)

    No symmetry in the x's is assumed, so all 4-tuples are enumerated.
    """
    out = []
    if not alg.rho:
        # every operator is zero and so is rho applied to any bracket
        return out
    n = alg.dim_L
    for x1, x2, x3, x4 in product(range(n), repeat=4):
        b123 = alg.bracket_basis(x1, x2, x3)
        b124 = alg.bracket_basis(x1, x2, x4)
        b231 = alg.bracket_basis(x2, x3, x1)
        for ak in range(alg.dim_A):
            a = alg.A_unit(ak)
            r34a = _rho_op(alg, x3, x4, a)
            r12a = _rho_op(alg, x1, x2, a)
            commutator = vec_sub(_rho_op(alg, x1, x2, r34a),
                                 _rho_op(alg, x3, x4, r12a))
            rho_b123_x4 = alg.eval_rho(b123, alg.L_unit(x4), a)
            rho_b124_x3 = alg.eval_rho(b124, alg.L_unit(x3), a)
            lhs_i = commutator
            rhs_i = vec_sub(rho_b123_x4, rho_b124_x3)
            if lhs_i != rhs_i:
                out.append(Violation(REPRESENTATION,
                                     ("i", x1, x2, x3, x4, ak), lhs_i, rhs_i))
            r14a = _rho_op(alg, x1, x4, a)
            r24a = _rho_op(alg, x2, x4, a)
            rhs_ii = _rho_op(alg, x1, x2, r34a)
            rhs_ii = vec_add(rhs_ii, _rho_op(alg, x2, x3, r14a))
            rhs_ii = vec_add(rhs_ii, _rho_op(alg, x3, x1, r24a))
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
        bxyz = alg.bracket_basis(x, y, z)
        for ak in range(nA):
            a = alg.A_unit(ak)
            az = alg.action_basis(ak, z)
            lhs = alg.eval_bracket(alg.L_unit(x), alg.L_unit(y), az)
            rhs = alg.eval_action(a, bxyz)
            rho_a = _rho_op(alg, x, y, a)
            rhs = vec_add(rhs, alg.eval_action(rho_a, alg.L_unit(z)))
            if lhs != rhs:
                out.append(Violation(RINEHART, ("bracket", x, y, z, ak),
                                     lhs, rhs))
    for x, y in product(range(nL), repeat=2):
        for ak in range(nA):
            a = alg.A_unit(ak)
            ax = alg.action_basis(ak, x)
            ay = alg.action_basis(ak, y)
            for bk in range(nA):
                b = alg.A_unit(bk)
                left = alg.eval_rho(ax, alg.L_unit(y), b)
                mid = alg.eval_rho(alg.L_unit(x), ay, b)
                scaled = alg.eval_amul(a, _rho_op(alg, x, y, b))
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
                a, b = alg.A_unit(ai), alg.A_unit(bi)
                ab = alg.amul_basis(ai, bi)
                lhs = _rho_op(alg, x, y, ab)
                rhs = vec_add(alg.eval_amul(_rho_op(alg, x, y, a), b),
                              alg.eval_amul(a, _rho_op(alg, x, y, b)))
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
        lhs = alg.eval_amul(alg.amul_basis(i, j), alg.A_unit(k))
        rhs = alg.eval_amul(alg.A_unit(i), alg.amul_basis(j, k))
        if lhs != rhs:
            out.append(Violation(A_ALGEBRA, ("assoc", i, j, k), lhs, rhs))
    for i, j in product(range(nA), repeat=2):
        for x in range(nL):
            lhs = alg.eval_action(alg.amul_basis(i, j), alg.L_unit(x))
            rhs = alg.eval_action(alg.A_unit(i), alg.action_basis(j, x))
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
            lhs = alg.bracket_basis(i, j, k)
            out.append(Violation(GRADING, ("bracket", i, j, k, m),
                                 lhs, ("expected-degree",) + want.coords))
    for (i, j), entry in alg.amul.items():
        want = Ad[i].mul(Ad[j])
        for m in bad_targets(entry, want, Ad):
            out.append(Violation(GRADING, ("amul", i, j, m),
                                 alg.amul_basis(i, j),
                                 ("expected-degree",) + want.coords))
    for (ai, li), entry in alg.action.items():
        want = Ad[ai].mul(Ld[li])
        for m in bad_targets(entry, want, Ld):
            out.append(Violation(GRADING, ("action", ai, li, m),
                                 alg.action_basis(ai, li),
                                 ("expected-degree",) + want.coords))
    for (i, j, ak), entry in alg.rho.items():
        want = Ld[i].mul(Ld[j]).mul(Ad[ak])
        for m in bad_targets(entry, want, Ad):
            out.append(Violation(GRADING, ("rho", i, j, ak, m),
                                 alg.rho_basis(i, j, ak),
                                 ("expected-degree",) + want.coords))
    return out


def rho_antisymmetry_witnesses(alg):
    """Basis pairs where rho(x,y) != -rho(y,x).  Not an axiom: the
    defining identities never require antisymmetry, so this is reported
    as a note only."""
    out = []
    n = alg.dim_L
    for i, j in combinations(range(n), 2):
        for ak in range(alg.dim_A):
            a = alg.A_unit(ak)
            fwd = _rho_op(alg, i, j, a)
            bwd = _rho_op(alg, j, i, a)
            if not is_zero_vec(vec_add(fwd, bwd)):
                out.append((i, j, ak))
    return out


_CHECKS = (
    (FUNDAMENTAL, check_fundamental_identity),
    (REPRESENTATION, check_representation),
    (RINEHART, check_rinehart_compat),
    (RHO_DERIVATION, check_rho_derivation),
    (A_ALGEBRA, check_A_algebra),
    (GRADING, check_grading),
)


def run_all(alg):
    """Full suite.  The result is cached on the (immutable) instance,
    so repeated gating checks cost nothing."""
    cached = getattr(alg, "_axiom_report", None)
    if cached is not None:
        return cached
    report = AxiomReport()
    for axiom, fn in _CHECKS:
        vs = fn(alg)
        report.violations[axiom] = vs
        report.counts[axiom] = len(vs)
    anti = rho_antisymmetry_witnesses(alg)
    if anti:
        report.notes.append(
            "rho is not antisymmetric in its L-arguments on %d basis "
            "pair(s); this is permitted" % len(anti))
    alg._axiom_report = report
    return report
