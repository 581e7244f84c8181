"""Exhaustive axiom checking on basis tuples, evaluated on the stored
sparse tables.

Every check covers all relevant basis tuples, with no sampling.
Because every structure map is linear in each argument, an identity
verified on basis tuples holds for all vectors, so a pass is a proof
for the instance at hand.  Where an identity is alternating or
antisymmetric in a group of arguments it suffices to cover strictly
increasing index tuples for that group; this reduction is used for the
fundamental identity and is spelled out in the docstrings below.

Every identity is summed from its nonzero terms, read off the
instance's `model.Incidence` (built once and shared by all checks, in
its coefficient view: ints where integral, see `model`).  The terms of
each check come from the nonzero operators:
- the fundamental identity, from the pairs (l, m) with ad(l, m) != 0
  and the triples they reach;
- the representation identities, from the compositions of two live
  pairs (x, y), those with rho(x, y) != 0, and from the ordered triples
  whose bracket reaches the first slot of a live pair;
- the Rinehart identities, from the pairs with ad(x, y) or rho(x, y)
  nonzero and the action and product keys their images reach, a pair
  (y, x) without rho only when its mirror (x, y) fails;
- the rho-derivation identity, from the live pairs, the nonzero
  products and the domains of the live pairs;
- the A-algebra identities, from the nonzero products and actions.
A witness that no term reaches has both sides zero, holds trivially and
is never formed, so the work grows with the nonzero terms and a pass is
still a proof; each rule sits next to its proof in the code.  The left
side of the fundamental identity on (i, j, k, l, m), for instance, is
the sum of c_p [p, l, m] over the entries c_p of [i, j, k].

Verdict first (`_decide`).  Every identity check splits its witnesses
into units: a pair (l, m) of the fundamental identity, one A-basis
vector a of the representation identities, a pair (x, y) of the
Rinehart bracket clause or of the rho-derivation identity, the Rinehart
rho clauses, each A-algebra law.  A unit is decided by one signed sum,
lhs - rhs over all its witnesses in one flat dict keyed by a
mixed-radix code, and only a unit that fails has its sides formed; the
violations keep the order of a full scan, and dense Fraction `lhs`/`rhs`
tuples are built only for a recorded Violation.
"""

from dataclasses import dataclass, field

from .linalg import dense_vec
from .model import TABLES

VIOLATION_CAP = 25

FUNDAMENTAL = "fundamental-identity"
REPRESENTATION = "representation"
RINEHART = "rinehart-compatibility"
RHO_DERIVATION = "rho-derivation"
A_ALGEBRA = "A-algebra"
GRADING = "grading"

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


# ---- summing the terms of an identity ----


def _code(digits, radices):
    """The mixed-radix code of `digits`, each below its radix.  Codes
    sort like the digit tuples: digit i counts P_i, the product of the
    radices after it, and all later digits together stay below P_i, so
    the first digit in which two tuples differ decides."""
    code = 0
    for d, r in zip(digits, radices):
        code = code * r + d
    return code


def _digits(code, radices):
    """The digits of `code` in `radices`, inverting `_code`."""
    out = []
    for r in reversed(radices):
        code, d = divmod(code, r)
        out.append(d)
    out.reverse()
    return tuple(out)


def _add(acc, code, coeff, entry):
    """acc += coeff * entry, with the entry's coordinate t at code + t."""
    for t, c in entry.items():
        acc[code + t] = acc.get(code + t, 0) + coeff * c


def _decide(out, axiom, terms, units, radices, witness):
    """Decide each unit of an identity by one signed sum, and record the
    violations of a unit that fails, in the order of their witnesses.

    `terms(unit, lhs, rhs)` adds each left-side term of the unit's
    witnesses to lhs and subtracts each right-side term from rhs, at the
    `_code` in `radices` of the witness digits followed by the
    coordinate t, the last radix; with rhs None it adds the left side
    only.  `witness(unit, digits)` is the witness tuple.

    Exactness: terms(unit, acc, acc) leaves acc = lhs - rhs in one dict.
    A witness fails iff its sides differ at some coordinate, that is iff
    lhs - rhs is nonzero there.  Arithmetic is exact, so acc is zero
    throughout iff every witness of the unit holds, and then nothing
    more is formed.  A failing unit sums its left side again, and its
    right side is lhs - acc: every code that a left term reaches is in
    acc, and a code absent from acc has both sides zero.  The witnesses
    with a nonzero acc are recorded, each with its sides as dense
    Fraction tuples, so a coefficient that cancelled to zero is dropped
    as in a dense evaluation.

    Order: code // dim is the code of the witness digits, and codes sort
    like digit tuples, so each unit records its violations in the order
    of its digits.  The caller passes the units in the order of the
    digits that `witness` puts ahead of them, or sorts the result."""
    dim = radices[-1]
    decoded = {}
    for unit in units:
        acc = {}
        terms(unit, acc, acc)
        if not any(acc.values()):
            continue
        lhs = {}
        terms(unit, lhs, None)
        sides = {code // dim: ({}, {}) for code, c in acc.items() if c}
        for code, c in acc.items():
            w = code // dim
            if w in sides:
                left = lhs.get(code, 0)
                if left:
                    sides[w][0][code - w * dim] = left
                if left != c:
                    sides[w][1][code - w * dim] = left - c
        for w in sorted(sides):
            if w not in decoded:
                decoded[w] = _digits(w, radices[:-1])
            left, right = sides[w]
            out.append(Violation(axiom, witness(unit, decoded[w]),
                                 dense_vec(left, dim), dense_vec(right, dim)))


def check_fundamental_identity(alg):
    """[[x1,x2,x3],y1,y2] = [[x1,y1,y2],x2,x3] + [[x2,y1,y2],x3,x1]
    + [[x3,y1,y2],x1,x2] on all basis 5-tuples.  Both sides are
    alternating in (x1,x2,x3) and in (y1,y2), so strictly increasing
    index tuples cover everything.

    With D = ad(l, m) = [., l, m] the identity on (i, j, k, l, m) reads
    D[i,j,k] = [Di,j,k] + [i,Dj,k] + [i,j,Dk]: D is a derivation.  A
    unit is one pair (l, m) with D != 0, with the triples (i, j, k) as
    the witness digits.  Every other tuple holds trivially: a pair with
    D = 0 has D in every term, and for a triple T that neither meets
    P = {p : Dp != 0} nor has [T] meeting P, every term applies D to a
    basis vector outside P.  Violations are sorted by witness, the
    (i, j, k)-major order of the plain enumeration."""
    out = []
    n = alg.dim_L
    incidence = alg.incidence()
    ad, pairs_of = incidence.ad, incidence.bracket_by_L
    # hits[p] with each stored triple T as the code of (T, 0)
    hits = [[(_code(key, (n, n, n)) * n, c) for key, c in h]
            for h in incidence.hits]

    def terms(lm, lhs, rhs):
        # the sums of `_add`, written out: this is the hottest loop
        for p, dp in ad[lm].items():
            # D[T] = sum of [T]_p D p
            for code, c in hits[p]:
                for t, e in dp.items():
                    lhs[code + t] = lhs.get(code + t, 0) + c * e
            if rhs is None:
                continue
            # the term of T = {p, a, b} with D in p's slot is
            # sign * [Dp, a, b], the sign of moving p to the front
            for q, c in dp.items():
                for (a, b), v in pairs_of.get(q, ()):
                    if p < a:
                        code, f = ((p * n + a) * n + b) * n, -c
                    elif a < p < b:
                        code, f = ((a * n + p) * n + b) * n, c
                    elif b < p:
                        code, f = ((a * n + b) * n + p) * n, -c
                    else:
                        continue
                    for t, e in v.items():
                        rhs[code + t] = rhs.get(code + t, 0) + f * e

    # Skip: a pair with ad(l, m) = 0 has no entry in ad, and each term
    # of its tuples applies D = 0.
    _decide(out, FUNDAMENTAL, terms, [lm for lm in ad if lm[0] < lm[1]],
            (n, n, n, n), lambda lm, ijk: ijk + lm)
    out.sort(key=lambda v: v.witness)
    return out


def check_representation(alg):
    """Both defining operator identities of a module structure, applied
    to every A-basis vector a:

    (i)  [rho(x1,x2), rho(x3,x4)] = rho([x1,x2,x3],x4) - rho([x1,x2,x4],x3)
    (ii) rho([x1,x2,x3],x4) = rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
                              + rho(x3,x1)rho(x2,x4)

    No symmetry in the x's is assumed.  A unit is one A-basis vector a,
    the vector that the innermost rho of every term acts on, with
    witness digits (x1, x2, x3, x4, clause), (i) before (ii).  The
    nonzero terms are of two kinds:
    - a composition rho(P) rho(Q) a, the sum of (rho(Q)a)_q rho(P) q
      over the live pairs Q with a in their domain and P live on q.  It
      enters the commutator of (i) at (P, Q) and, negated, at (Q, P),
      and the right side of (ii) at (P, Q), (q1, p1, p2, q2) and
      (p2, q1, p1, q2);
    - a bracket term rho([x1,x2,x3], y) a, the sum of [x1,x2,x3]_p
      rho(p, y) a over the live pairs (p, y) with a in their domain and
      the ordered triples whose bracket reaches p.  It enters the left
      side of (ii) and the right side of (i) at (x1, x2, x3, y) and,
      negated, the right side of (i) at (x1, x2, y, x3).
    A witness that no term reaches has both sides zero and holds.  The
    violations are sorted into the (x1, x2, x3, x4)-major, a-minor order
    of a full scan, (i) before (ii)."""
    out = []
    nL, nA = alg.dim_L, alg.dim_A
    incidence = alg.incidence()
    # on[a] = [(pair, rho(pair) a)] over the live pairs with a in their
    # domain; every term applies rho, so rho = 0 leaves nothing to sum
    on = {}
    for pair, images in incidence.rho_by_pair.items():
        for ak, r in images:
            on.setdefault(ak, []).append((pair, r))
    if not on:
        return out
    # into[p] = [((x1, x2, x3), [x1,x2,x3]_p)] over the ordered triples
    into = {}
    for (x2, x3), d in incidence.ad.items():
        for x1, e in d.items():
            for p, c in e.items():
                into.setdefault(p, []).append(((x1, x2, x3), c))

    def at(x1, x2, x3, x4, clause):
        return ((((x1 * nL + x2) * nL + x3) * nL + x4) * 2 + clause) * nA

    def terms(ak, lhs, rhs):
        for (q1, q2), r in on[ak]:
            comps = {}
            for q, c in r.items():
                for pair, e in on.get(q, ()):
                    _add(comps.setdefault(pair, {}), 0, c, e)
            for (p1, p2), comp in comps.items():
                _add(lhs, at(p1, p2, q1, q2, 0), 1, comp)
                _add(lhs, at(q1, q2, p1, p2, 0), -1, comp)
                if rhs is not None:
                    _add(rhs, at(p1, p2, q1, q2, 1), -1, comp)
                    _add(rhs, at(q1, p1, p2, q2, 1), -1, comp)
                    _add(rhs, at(p2, q1, p1, q2, 1), -1, comp)
            # (q1, q2) = (p, y) of rho([x1,x2,x3], y) a
            for (x1, x2, x3), c in into.get(q1, ()):
                _add(lhs, at(x1, x2, x3, q2, 1), c, r)
                if rhs is not None:
                    _add(rhs, at(x1, x2, x3, q2, 0), -c, r)
                    _add(rhs, at(x1, x2, q2, x3, 0), c, r)

    _decide(out, REPRESENTATION, terms, on, (nL, nL, nL, nL, 2, nA),
            lambda ak, d: (("i", "ii")[d[4]],) + d[:4] + (ak,))
    out.sort(key=lambda v: v.witness[1:] + v.witness[:1])
    return out


def check_rinehart_compat(alg):
    """[x,y,a z] = a[x,y,z] + (rho(x,y)a) z  and
    rho(a x, y) = rho(x, a y) = a rho(x, y)  on all basis tuples.

    As in `check_fundamental_identity`, each side is summed over its
    nonzero terms, with D = ad(x, y): [x,y,a z] = sum of (a z)_p D p
    over `acted_into[p]`, a[x,y,z] = sum of (D z)_p a p and
    (rho(x,y)a) z = sum of (rho(x,y)a)_q q z; rho(a x, y) b = sum of
    (a x)_p rho(p, y) b over the live pairs (p, y) and `acted_into[p]`,
    rho(x, a y) b likewise, and a rho(x, y) b = sum of (rho(x,y)b)_q a q.
    A unit of the bracket clause is one pair (x, y) with ad(x, y) or
    rho(x, y) nonzero, with witness digits (z, a); the rho clauses are
    one unit, with witness digits (x, y, a, b, clause), `rho-left`
    before `rho-right`.  A witness that no term reaches has both sides
    zero and holds.

    Mirrors: a pair (y, x) with x < y and neither rho(x, y) nor
    rho(y, x) live is decided only when (x, y) fails.  The stored
    bracket is skew, so ad(y, x) = -ad(x, y); without rho every term of
    the unit (y, x) is the negation of the same term of (x, y), at the
    same witness digits, so the two sums are negatives, and the units
    fail together, with negated sides.  Pairs with rho live in either
    order, and the pairs x = y, are decided on their own.  The bracket
    violations are sorted by witness, and the rho clauses follow, which
    is the order of a full scan."""
    out = []
    nL, nA = alg.dim_L, alg.dim_A
    incidence = alg.incidence()
    ad, live, acted_into = (incidence.ad, incidence.rho_by_pair,
                            incidence.acted_into)
    by_L, by_A = incidence.action_by_L, incidence.action_by_A

    def bracket_terms(xy, lhs, rhs):
        # the sums of `_add`, written out as in the fundamental identity
        for p, dp in ad.get(xy, {}).items():
            for (z, ak), c in acted_into[p]:
                code = (z * nA + ak) * nL
                for t, e in dp.items():
                    lhs[code + t] = lhs.get(code + t, 0) + c * e
            if rhs is not None:
                # a[x,y,z] at z = p
                for q, c in dp.items():
                    for ak, e in by_L.get(q, ()):
                        code = (p * nA + ak) * nL
                        for t, f in e.items():
                            rhs[code + t] = rhs.get(code + t, 0) - c * f
        if rhs is not None:
            for ak, r in live.get(xy, ()):
                for q, c in r.items():
                    for z, e in by_A.get(q, ()):
                        code = (z * nA + ak) * nL
                        for t, f in e.items():
                            rhs[code + t] = rhs.get(code + t, 0) - c * f

    def at(x, y, ak, bk, clause):
        return ((((x * nL + y) * nA + ak) * nA + bk) * 2 + clause) * nA

    def rho_terms(_, lhs, rhs):
        for (u, v), images in live.items():
            for bk, r in images:
                # (u, v) = (p, y) of rho(a x, y) b
                for (x, ak), c in acted_into[u]:
                    _add(lhs, at(x, v, ak, bk, 0), c, r)
                # (u, v) = (x, p) of rho(x, a y) b
                for (y, ak), c in acted_into[v]:
                    _add(lhs, at(u, y, ak, bk, 1), c, r)
                if rhs is None:
                    continue
                # (u, v) = (x, y) of a rho(x, y) b, in both clauses
                for q, c in r.items():
                    for ak, e in incidence.amul_by_A.get(q, ()):
                        _add(rhs, at(u, v, ak, bk, 0), -c, e)
                        _add(rhs, at(u, v, ak, bk, 1), -c, e)

    # Skip: each term applies ad(x, y) or rho(x, y), so a pair in
    # neither map reaches no witness; a mirror is decided only when its
    # pair fails (see Mirrors above).
    radices, witness = (nL, nA, nL), lambda xy, za: ("bracket",) + xy + za
    mirrors = {(y, x) for x, y in ad.keys() - live.keys()
               if x < y and (y, x) not in live}
    _decide(out, RINEHART, bracket_terms,
            sorted(ad.keys() - mirrors | live.keys()), radices, witness)
    if out:
        failed = {v.witness[1:3] for v in out}
        _decide(out, RINEHART, bracket_terms,
                sorted(yx for yx in mirrors if yx[::-1] in failed),
                radices, witness)
        out.sort(key=lambda v: v.witness)
    _decide(out, RINEHART, rho_terms, (None,), (nL, nL, nA, nA, 2, nA),
            lambda _, d: (("rho-left", "rho-right")[d[4]],) + d[:4])
    return out


def check_rho_derivation(alg):
    """rho(x,y)(ab) = (rho(x,y)a)b + a(rho(x,y)b): the operators land
    in Der(A).  The product is symmetric, so pairs a <= b suffice, and
    only the live pairs (x, y) are visited: both sides apply rho(x, y).

    A unit is one live pair, with witness digits (a, b).  The left side
    is the sum of (ab)_q rho(x,y) q over the nonzero products ab.  On
    the right, for d in the domain of rho(x, y) and a nonzero product
    q o, the term (rho(x,y)d)_q q o is (rho(x,y)a)b at (d, o) when
    d <= o and a(rho(x,y)b) at (o, d) when o <= d, so both when d = o.
    A witness that no term reaches has both sides zero and holds, so
    the units in order give the violations of a full scan in order."""
    out = []
    nA = alg.dim_A
    incidence = alg.incidence()
    live, mul_by_A = incidence.rho_by_pair, incidence.amul_by_A

    def terms(xy, lhs, rhs):
        images = live[xy]
        r = dict(images)
        for m, products in mul_by_A.items():
            for i, ab in products:
                for q, c in ab.items():
                    if i <= m and q in r:
                        _add(lhs, (i * nA + m) * nA, c, r[q])
        if rhs is None:
            return
        for d, rd in images:
            for q, c in rd.items():
                for o, e in mul_by_A.get(q, ()):
                    if d <= o:
                        _add(rhs, (d * nA + o) * nA, -c, e)
                    if o <= d:
                        _add(rhs, (o * nA + d) * nA, -c, e)

    _decide(out, RHO_DERIVATION, terms, sorted(live), (nA, nA, nA),
            lambda xy, ab: xy + ab)
    return out


def check_A_algebra(alg):
    """Associativity (ab)c = a(bc) on A-basis triples and the module
    law (ab)x = a(bx) on mixed triples.  Commutativity is structural.

    Each side is summed over its nonzero terms: (ab)c and (ab)x sum
    (ab)_p p c and (ab)_p p x, a(bc) and a(bx) sum (bc)_q a q and
    (bx)_q a q.  Each law is one unit, with witness digits (a, b, c)
    and (a, b, x).  A witness that no term reaches has both sides zero
    and holds, so the units in order, associativity first, give the
    violations of a full scan in order."""
    out = []
    nA, nL = alg.dim_A, alg.dim_L
    incidence = alg.incidence()
    by_L, by_A = incidence.action_by_L, incidence.action_by_A
    mul_by_A = incidence.amul_by_A

    def assoc_terms(_, lhs, rhs):
        # each ordered pair (i, j) with e_i e_j != 0, once
        for j, products in mul_by_A.items():
            for i, ab in products:
                for p, c in ab.items():
                    # e = e_k e_p: a term of (ab)c at (i, j, k) and, with
                    # (i, j) as (b, c), of a(bc) at (k, i, j)
                    for k, e in mul_by_A.get(p, ()):
                        _add(lhs, ((i * nA + j) * nA + k) * nA, c, e)
                        if rhs is not None:
                            _add(rhs, ((k * nA + i) * nA + j) * nA, -c, e)

    def module_terms(_, lhs, rhs):
        for j, products in mul_by_A.items():
            for i, ab in products:
                for p, c in ab.items():
                    for x, e in by_A.get(p, ()):
                        _add(lhs, ((i * nA + j) * nL + x) * nL, c, e)
        if rhs is None:
            return
        for j, images in by_A.items():
            for x, bx in images:
                for q, c in bx.items():
                    for i, e in by_L.get(q, ()):
                        _add(rhs, ((i * nA + j) * nL + x) * nL, -c, e)

    # Skip: every term of associativity reads a product, and every term
    # of the module law an action.
    _decide(out, A_ALGEBRA, assoc_terms, (None,) if mul_by_A else (),
            (nA, nA, nA, nA), lambda _, ijk: ("assoc",) + ijk)
    _decide(out, A_ALGEBRA, module_terms, (None,) if by_A else (),
            (nA, nA, nL, nL), lambda _, ijx: ("module",) + ijx)
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
    rho = alg.rho
    out = []
    # Skip: rho(x, y)(a) + rho(y, x)(a) is zero unless one of the two
    # is stored.
    for i, j, ak in sorted({(min(x, y), max(x, y), ak)
                            for x, y, ak in rho}):
        fwd, bwd = rho.get((i, j, ak), {}), rho.get((j, i, ak), {})
        if any(fwd.get(t, 0) + bwd.get(t, 0) for t in fwd.keys() | bwd):
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
