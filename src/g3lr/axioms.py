"""Exhaustive axiom checking on basis tuples, evaluated on the stored
sparse tables.

Every check covers all relevant basis tuples, with no sampling.
Because every structure map is linear in each argument, an identity
verified on basis tuples holds for all vectors, so a pass is a proof
for the instance at hand.  Where an identity is alternating or
antisymmetric in a group of arguments it suffices to cover strictly
increasing index tuples for that group; this reduction is used for the
fundamental identity and is spelled out in the docstrings below.

A tuple whose terms are all structurally zero, because each term has a
factor that the stored tables make zero, holds trivially and is never
visited.  Each check builds its tuples from the nonzero operators:
- the fundamental identity, from the pairs (l, m) with ad(l, m) != 0
  and the triples they reach;
- the representation identities, from the ordered pairs of live pairs
  (x, y), those with rho(x, y) != 0, and from the stored triples whose
  bracket reaches the first slot of a live pair;
- the Rinehart identities, from the pairs with ad(x, y) or rho(x, y)
  nonzero, and from the A-basis vectors that a live rho reaches;
- the rho-derivation identity, from the live pairs.
Each rule sits next to its proof in the code, so the work grows with
the nonzero terms and a pass is still a proof.

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
from itertools import permutations, product

from .linalg import dense_vec
from .model import TABLES

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
    to every A-basis vector a:

    (i)  [rho(x1,x2), rho(x3,x4)] = rho([x1,x2,x3],x4) - rho([x1,x2,x4],x3)
    (ii) rho([x1,x2,x3],x4) = rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
                              + rho(x3,x1)rho(x2,x4)

    No symmetry in the x's is assumed.  Each term, applied to a, is of
    one of two kinds, and only the (x1, x2, x3, x4, a) where some term
    can be nonzero are evaluated; every other tuple has only zero terms
    and holds.

    - A composition rho(P) rho(Q) a is zero unless the pair Q is live on
      a (rho(Q) a != 0) and P is live.  The commutator of (i) puts
      (P, Q) at ((x1,x2), (x3,x4)) with Q or P live on a; (ii) puts it
      at ((x1,x2), (x3,x4)), ((x2,x3), (x1,x4)) or ((x3,x1), (x2,x4)).
    - rho(p, x4) a summed over p in supp[x1,x2,x3], and rho(p, x3) a
      over p in supp[x1,x2,x4], are zero unless some pair (p, y) live
      on a has p in the image of a stored triple, and the x's order that
      triple with y in slot 4 or in slot 3.

    The candidates are evaluated in sorted order, the
    (x1, x2, x3, x4)-major, a-minor order of a full scan, so the
    violation list is the one a full scan gives.
    """
    out = []
    incidence = alg.incidence()
    rho, ad, hits = incidence.rho, incidence.ad, incidence.hits
    # domain[(x, y)] = the a with rho(x, y) a != 0, over the live pairs
    domain = {pair: [ak for ak, _ in images]
              for pair, images in incidence.rho_by_pair.items()}
    todo = set()
    for (p1, p2), dom_p in domain.items():
        for (q1, q2), dom_q in domain.items():
            # rho(P) rho(Q) a at its three places in (ii), the first of
            # them also in (i)
            for ak in dom_q:
                todo.update(((p1, p2, q1, q2, ak), (q1, p1, p2, q2, ak),
                             (p2, q1, p1, q2, ak)))
            # rho(Q) rho(P) a in the commutator of (i)
            todo.update((p1, p2, q1, q2, ak) for ak in dom_p)
    for (p, y), dom in domain.items():
        for key, _ in hits[p]:
            for u, v, w in permutations(key):
                for ak in dom:
                    todo.update(((u, v, w, y, ak), (u, v, y, w, ak)))
    for x1, x2, x3, x4, ak in sorted(todo):
        ad12 = ad.get((x1, x2), {})
        r12, r34 = rho[x1][x2], rho[x3][x4]
        commutator = {}
        _apply(commutator, r34[ak], r12)
        for q, c in r12[ak].items():
            _add(commutator, -c, r34[q])
        rho_b123_x4 = {}
        for p, c in ad12.get(x3, {}).items():
            _add(rho_b123_x4, c, rho[p][x4][ak])
        rhs_i = dict(rho_b123_x4)
        for p, c in ad12.get(x4, {}).items():
            _add(rhs_i, -c, rho[p][x3][ak])
        _check(out, REPRESENTATION, ("i", x1, x2, x3, x4, ak),
               commutator, rhs_i, alg.dim_A)
        rhs_ii = {}
        _apply(rhs_ii, r34[ak], r12)
        _apply(rhs_ii, rho[x1][x4][ak], rho[x2][x3])
        _apply(rhs_ii, rho[x2][x4][ak], rho[x3][x1])
        _check(out, REPRESENTATION, ("ii", x1, x2, x3, x4, ak),
               rho_b123_x4, rhs_ii, alg.dim_A)
    return out


def check_rinehart_compat(alg):
    """[x,y,a z] = a[x,y,z] + (rho(x,y)a) z  and
    rho(a x, y) = rho(x, a y) = a rho(x, y)  on all basis tuples."""
    out = []
    nL, nA = alg.dim_L, alg.dim_A
    incidence = alg.incidence()
    ad, rho, live = incidence.ad, incidence.rho, incidence.rho_by_pair
    act, mul = incidence.act, incidence.mul
    # acted_into[p] = [(z, a) : p in supp(a z)], over the stored action
    acted_into = {}
    for (ak, z), e in alg.action.items():
        for p in e:
            acted_into.setdefault(p, []).append((z, ak))
    # Skip: [x,y,a z] and a[x,y,z] apply ad(x, y), and (rho(x,y)a) z
    # applies rho(x, y); both are zero on the pairs in neither map.
    for x, y in sorted(ad.keys() | live.keys()):
        row = ad.get((x, y), {})
        bxy = [row.get(p, {}) for p in range(nL)]
        # Skip: [x,y,a z] applies ad(x, y) to supp(a z), a[x,y,z] scales
        # [x,y,z] = ad(x, y) z and (rho(x,y)a) z scales z by rho(x,y)a.
        # So (z, a) has a nonzero term only if z is in the domain of
        # ad(x, y), a in the domain of rho(x, y), or supp(a z) meets the
        # domain of ad(x, y); these are the candidates, evaluated in the
        # (z, a) order of a full scan.
        todo = set(product(row, range(nA)))
        if (x, y) in live:
            todo.update(product(range(nL), [ak for ak, _ in live[(x, y)]]))
        for p in row:
            todo.update(acted_into.get(p, ()))
        for z, ak in sorted(todo):
            az, bxyz = act[ak][z], bxy[z]
            lhs, rhs = {}, {}
            _apply(lhs, az, bxy)
            _apply(rhs, bxyz, act[ak])
            for q, c in rho[x][y][ak].items():
                _add(rhs, c, act[q][z])
            _check(out, RINEHART, ("bracket", x, y, z, ak), lhs, rhs, nL)
    # Skip: rho(a x, y) b sums rho(p, y) b over p in supp(a x),
    # rho(x, a y) b sums rho(x, p) b over p in supp(a y), and
    # a rho(x, y) b applies rho(x, y) to b.  So (x, y, b) has a nonzero
    # term only if b is in the domain of a live pair (p, y) with p in
    # supp(a x), of a live pair (x, p) with p in supp(a y), or of
    # (x, y) itself.  reached_by[p] = {x : p in supp(a x) for some a}.
    reached_by = {p: {x for x, _ in pairs}
                  for p, pairs in acted_into.items()}
    bs = {}
    for (u, v), images in live.items():
        dom = [bk for bk, _ in images]
        for pair in ([(u, v)] + [(x, v) for x in reached_by.get(u, ())]
                     + [(u, y) for y in reached_by.get(v, ())]):
            bs.setdefault(pair, set()).update(dom)
    for (x, y), dom in sorted(bs.items()):
        dom = sorted(dom)
        for ak in range(nA):
            ax, ay = act[ak][x], act[ak][y]
            for bk in dom:
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
    in Der(A).  The product is symmetric, so pairs a <= b suffice, and
    only the live pairs (x, y) are visited: both sides apply rho(x, y)."""
    out = []
    nA = alg.dim_A
    incidence = alg.incidence()
    rho, mul = incidence.rho, incidence.mul
    for x, y in sorted(incidence.rho_by_pair):
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
    for name, (_, value, _) in TABLES.items():
        degrees = alg.basis(value).degrees
        for key, _, want, entry in alg.key_degrees(name):
            for m in entry:
                if degrees[m] != want:
                    out.append(Violation(GRADING, (name,) + key + (m,),
                                         dense_vec(entry, len(degrees)),
                                         ("expected-degree",) + want.coords))
    return out


def rho_antisymmetry_witnesses(alg):
    """Basis pairs x <= y and A-basis vectors a where
    rho(x,y)a != -rho(y,x)a; a pair x = y is a witness wherever
    rho(x,x) != 0.  Not an axiom: the defining identities never require
    antisymmetry, so this is reported as a note only."""
    rho = alg.incidence().rho
    out = []
    # Skip: rho(x, y)(a) + rho(y, x)(a) is zero unless one of the two
    # is stored.
    for i, j, ak in sorted({(min(x, y), max(x, y), ak)
                            for x, y, ak in alg.rho}):
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
