"""Exhaustive axiom checking on basis tuples, evaluated on the stored
sparse tables.

Every check covers all relevant basis tuples, with no sampling.
Because every structure map is multilinear, an identity verified on
basis tuples holds for all vectors, so a pass is a proof for the
instance at hand.  Where an identity is alternating or antisymmetric in
a group of arguments it suffices to cover strictly increasing index
tuples for that group; this reduction is used for the fundamental
identity and is spelled out in the docstrings below.

A tuple whose terms are all structurally zero, because each term has a
factor that the stored tables make zero, holds trivially and is settled
without evaluation.  The fundamental identity visits only the pairs
(l, m) with ad(l, m) != 0 and the triples they reach; the Rinehart and
representation checks skip the pairs and 4-tuples whose operators all
vanish.  Each skip rule sits next to its proof in the code, so the work
grows with the nonzero terms and a pass is still a proof.

Each side of an identity is built as a sparse {index: coefficient}
vector from the nonzero entries of the instance's `model.Incidence`,
which is built once and shared by all checks: the maps ad(x, y), the
bracket pairs and bracket hits of each basis index, and the basis images
of rho, the action and the product, in the incidence's coefficient view
(ints where integral, see `model`).  The left side of the fundamental
identity on (i, j, k, l, m), for instance, is the sum of c_p [p, l, m]
over the entries c_p of [i, j, k], so empty products cost nothing.  The
two sides are compared with their zero coefficients dropped, and dense
Fraction `lhs`/`rhs` tuples are built only for a recorded Violation.
"""

from dataclasses import dataclass, field
from itertools import product

from .linalg import dense_vec

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


# ---- sparse vectors: {index: coefficient}, absent means zero ----


def _add(acc, coeff, entry):
    """acc += coeff * entry."""
    for t, c in entry.items():
        acc[t] = acc.get(t, 0) + coeff * c


def _apply(acc, v, images):
    """acc += f(v) for the linear map f with basis images `images`."""
    for q, c in v.items():
        _add(acc, c, images[q])


def _check(out, axiom, witness, lhs, rhs, dim):
    """Record a Violation when the two sparse sides differ."""
    if lhs == rhs:
        return
    lhs = {t: c for t, c in lhs.items() if c}
    rhs = {t: c for t, c in rhs.items() if c}
    if lhs != rhs:
        out.append(Violation(axiom, witness, dense_vec(lhs, dim),
                             dense_vec(rhs, dim)))


def check_fundamental_identity(alg):
    """[[x1,x2,x3],y1,y2] = [[x1,y1,y2],x2,x3] + [[x2,y1,y2],x3,x1]
    + [[x3,y1,y2],x1,x2] on all basis 5-tuples.  Both sides are
    alternating in (x1,x2,x3) and in (y1,y2), so strictly increasing
    index tuples cover everything.

    With D = ad(l, m) = [., l, m] the identity on (i, j, k, l, m) reads
    D[i,j,k] = [Di,j,k] + [i,Dj,k] + [i,j,Dk]: D is a derivation.  Both
    sides are built per pair with D != 0 and per triple they reach, so
    the work grows with the nonzero terms.  Every other tuple holds
    trivially: a pair with D = 0 has D in every term, and for a triple
    T that neither meets P = {p : Dp != 0} nor has [T] meeting P, every
    term applies D to a basis vector outside P.  Violations are sorted
    by witness, the (i, j, k)-major order of the plain enumeration."""
    out = []
    n = alg.dim_L
    incidence = alg.incidence()
    ad, pairs_of, hits = incidence.ad, incidence.bracket_by_L, incidence.hits
    # Skip: a pair with ad(l, m) = 0 has no entry in ad, and each term
    # of its tuples applies D = 0.
    for (l, m), d in ad.items():
        if l > m:
            continue
        lhs, rhs = {}, {}
        for p, dp in d.items():
            # D[T] = sum of [T]_p D p
            for key, c in hits[p]:
                _add(lhs.setdefault(key, {}), c, dp)
            # the term of T = {p, a, b} with D in p's slot is
            # sign * [Dp, a, b], the sign of moving p to the front
            for q, c in dp.items():
                for (a, b), v in pairs_of.get(q, ()):
                    if p < a:
                        key, f = (p, a, b), c
                    elif a < p < b:
                        key, f = (a, p, b), -c
                    elif b < p:
                        key, f = (a, b, p), c
                    else:
                        continue
                    _add(rhs.setdefault(key, {}), f, v)
        for key in lhs.keys() | rhs.keys():
            _check(out, FUNDAMENTAL, key + (l, m), lhs.get(key, {}),
                   rhs.get(key, {}), n)
    out.sort(key=lambda v: v.witness)
    return out


def check_representation(alg):
    """Both defining operator identities of a module structure, applied
    to every A-basis vector:

    (i)  [rho(x1,x2), rho(x3,x4)] = rho([x1,x2,x3],x4) - rho([x1,x2,x4],x3)
    (ii) rho([x1,x2,x3],x4) = rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
                              + rho(x3,x1)rho(x2,x4)

    No symmetry in the x's is assumed, so every 4-tuple is covered; the
    tuples whose terms are all structurally zero are settled without
    evaluation (see the skip rule below).
    """
    out = []
    if not alg.rho:
        # every operator is zero and so is rho applied to any bracket
        return out
    n, nA = alg.dim_L, alg.dim_A
    # live: the ordered pairs (x, y) with rho(x, y) != 0 as an operator
    incidence = alg.incidence()
    rho, ad, live = incidence.rho, incidence.ad, incidence.rho_by_pair
    # into[y] = {p : rho(p, y) != 0}
    into = [set() for _ in range(n)]
    for p, y in live:
        into[y].add(p)
    for x1, x2, x3 in product(range(n), repeat=3):
        ad12 = ad.get((x1, x2), {})
        b123 = ad12.get(x3, {})
        r12, r23, r31 = rho[x1][x2], rho[x2][x3], rho[x3][x1]
        live_123 = ((x1, x2) in live or (x2, x3) in live
                    or (x3, x1) in live)
        for x4 in range(n):
            b124 = ad12.get(x4, {})
            # Skip: each term of (i) and (ii) is a product of two of
            # rho(x1,x2), rho(x2,x3), rho(x3,x1), rho(x3,x4), rho(x1,x4)
            # and rho(x2,x4), or sums rho(p,x4) over supp[x1,x2,x3] or
            # rho(p,x3) over supp[x1,x2,x4]; all of these are zero here.
            if not (live_123 or (x3, x4) in live or (x1, x4) in live
                    or (x2, x4) in live or not into[x4].isdisjoint(b123)
                    or not into[x3].isdisjoint(b124)):
                continue
            r34, r14, r24 = rho[x3][x4], rho[x1][x4], rho[x2][x4]
            for ak in range(nA):
                commutator = {}
                _apply(commutator, r34[ak], r12)
                for q, c in r12[ak].items():
                    _add(commutator, -c, r34[q])
                rho_b123_x4 = {}
                for p, c in b123.items():
                    _add(rho_b123_x4, c, rho[p][x4][ak])
                rhs_i = dict(rho_b123_x4)
                for p, c in b124.items():
                    _add(rhs_i, -c, rho[p][x3][ak])
                _check(out, REPRESENTATION, ("i", x1, x2, x3, x4, ak),
                       commutator, rhs_i, nA)
                rhs_ii = {}
                _apply(rhs_ii, r34[ak], r12)
                _apply(rhs_ii, r14[ak], r23)
                _apply(rhs_ii, r24[ak], r31)
                _check(out, REPRESENTATION, ("ii", x1, x2, x3, x4, ak),
                       rho_b123_x4, rhs_ii, nA)
    return out


def check_rinehart_compat(alg):
    """[x,y,a z] = a[x,y,z] + (rho(x,y)a) z  and
    rho(a x, y) = rho(x, a y) = a rho(x, y)  on all basis tuples."""
    out = []
    nL, nA = alg.dim_L, alg.dim_A
    incidence = alg.incidence()
    ad, rho, live = incidence.ad, incidence.rho, incidence.rho_by_pair
    act, mul = incidence.act, incidence.mul
    for x, y in product(range(nL), repeat=2):
        # Skip: [x,y,a z] and a[x,y,z] apply ad(x, y), and (rho(x,y)a) z
        # applies rho(x, y); both are zero here.
        if (x, y) not in ad and (x, y) not in live:
            continue
        row = ad.get((x, y), {})
        bxy = [row.get(p, {}) for p in range(nL)]
        for z in range(nL):
            bxyz = bxy[z]
            for ak in range(nA):
                az, rxy = act[ak][z], rho[x][y][ak]
                # Skip: [x,y,a z] applies ad(x, y) to supp(a z), a[x,y,z]
                # scales [x,y,z] and (rho(x,y)a) z scales z by rho(x,y)a;
                # all three factors are zero here.
                if not (bxyz or rxy or not row.keys().isdisjoint(az)):
                    continue
                lhs, rhs = {}, {}
                _apply(lhs, az, bxy)
                _apply(rhs, bxyz, act[ak])
                for q, c in rxy.items():
                    _add(rhs, c, act[q][z])
                _check(out, RINEHART, ("bracket", x, y, z, ak), lhs, rhs,
                       nL)
    if not alg.rho:
        # every term below applies some rho(u, v), all of them zero
        return out
    # reach[x] = the union of the supports of a x over the basis of A
    reach = [{p for ak in range(nA) for p in act[ak][x]} for x in range(nL)]
    for x, y in product(range(nL), repeat=2):
        # Skip: rho(a x, y) b sums rho(p, y) b over p in supp(a x),
        # rho(x, a y) b sums rho(x, p) b over p in supp(a y), and
        # a rho(x, y) b applies rho(x, y); all are zero here.
        if not ((x, y) in live or any((p, y) in live for p in reach[x])
                or any((x, p) in live for p in reach[y])):
            continue
        for ak in range(nA):
            ax, ay = act[ak][x], act[ak][y]
            for bk in range(nA):
                left, mid, scaled = {}, {}, {}
                for p, c in ax.items():
                    _add(left, c, rho[p][y][bk])
                for p, c in ay.items():
                    _add(mid, c, rho[x][p][bk])
                _apply(scaled, rho[x][y][bk], mul[ak])
                _check(out, RINEHART, ("rho-left", x, y, ak, bk),
                       left, scaled, nA)
                _check(out, RINEHART, ("rho-right", x, y, ak, bk),
                       mid, scaled, nA)
    return out


def check_rho_derivation(alg):
    """rho(x,y)(ab) = (rho(x,y)a)b + a(rho(x,y)b): the operators land
    in Der(A).  The product is symmetric, so pairs a <= b suffice."""
    out = []
    if not alg.rho:
        return out
    nL, nA = alg.dim_L, alg.dim_A
    incidence = alg.incidence()
    rho, mul = incidence.rho, incidence.mul
    for x, y in product(range(nL), repeat=2):
        r = rho[x][y]
        for ai in range(nA):
            for bi in range(ai, nA):
                lhs, rhs = {}, {}
                _apply(lhs, mul[ai][bi], r)
                for q, c in r[ai].items():
                    _add(rhs, c, mul[q][bi])
                _apply(rhs, r[bi], mul[ai])
                _check(out, RHO_DERIVATION, (x, y, ai, bi), lhs, rhs, nA)
    return out


def check_A_algebra(alg):
    """Associativity (ab)c = a(bc) on A-basis triples and the module
    law (ab)x = a(bx) on mixed triples.  Commutativity is structural."""
    out = []
    nA, nL = alg.dim_A, alg.dim_L
    incidence = alg.incidence()
    act, mul = incidence.act, incidence.mul
    for i, j, k in product(range(nA), repeat=3):
        lhs, rhs = {}, {}
        for p, c in mul[i][j].items():
            _add(lhs, c, mul[p][k])
        _apply(rhs, mul[j][k], mul[i])
        _check(out, A_ALGEBRA, ("assoc", i, j, k), lhs, rhs, nA)
    for i, j in product(range(nA), repeat=2):
        for x in range(nL):
            lhs, rhs = {}, {}
            for p, c in mul[i][j].items():
                _add(lhs, c, act[p][x])
            _apply(rhs, act[j][x], act[i])
            _check(out, A_ALGEBRA, ("module", i, j, x), lhs, rhs, nL)
    return out


def check_grading(alg):
    """Every nonzero structure constant lands in the fiber its input
    degrees dictate: [L_g,L_h,L_k] in L_{ghk}, A_g A_h in A_{gh},
    A_h L_g in L_{hg}, rho(L_g,L_g')(A_h) in A_{gg'h}."""
    out = []
    Ld, Ad = alg.L.degrees, alg.A.degrees
    nL, nA = alg.dim_L, alg.dim_A

    def scan(kind, table, want_of, degrees, dim):
        for key, entry in table.items():
            want = want_of(key)
            for m in entry:
                if degrees[m] != want:
                    out.append(Violation(GRADING, (kind,) + key + (m,),
                                         dense_vec(entry, dim),
                                         ("expected-degree",) + want.coords))

    scan("bracket", alg.bracket,
         lambda k: Ld[k[0]].mul(Ld[k[1]]).mul(Ld[k[2]]), Ld, nL)
    scan("amul", alg.amul, lambda k: Ad[k[0]].mul(Ad[k[1]]), Ad, nA)
    scan("action", alg.action, lambda k: Ad[k[0]].mul(Ld[k[1]]), Ld, nL)
    scan("rho", alg.rho,
         lambda k: Ld[k[0]].mul(Ld[k[1]]).mul(Ad[k[2]]), Ad, nA)
    return out


def rho_antisymmetry_witnesses(alg):
    """Basis pairs where rho(x,y) != -rho(y,x).  Not an axiom: the
    defining identities never require antisymmetry, so this is reported
    as a note only."""
    rho = alg.incidence().rho
    out = []
    # Skip: rho(x, y)(a) + rho(y, x)(a) is zero unless one of the two
    # is stored.
    for i, j, ak in sorted({(min(x, y), max(x, y), ak)
                            for x, y, ak in alg.rho if x != y}):
        total = dict(rho[i][j][ak])
        _add(total, 1, rho[j][i][ak])
        if any(total.values()):
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
