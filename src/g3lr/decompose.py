"""Ideals attached to connection classes, coarse and fine decompositions,
and the structural predicates (tightness, maximal length, multiplicative
supports, graded simplicity) that certify them.

Every subspace here is computed as an exact rational span of products of
basis vectors, and every claimed containment or equality is checked as
an exact subspace identity.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product

from .axioms import run_all
from .connections import compute_supports, lambda_classes, sigma_classes
from .linalg import (Subspace, complement, dense_vec, full_subspace,
                     intersect_subspaces, is_zero_vec, nonzero_coords,
                     solve_homogeneous, span, sparse_sum, sum_subspaces,
                     zero_subspace, zero_vec)


# ---------------------------------------------------------------------------
# report containers


@dataclass
class IdealCandidate:
    subspace: Subspace
    source_class: object
    side: str                     # "L" or "A"
    is_graded_ideal: bool = False
    certificate: object = None
    is_gr_simple: str = "undetermined"


@dataclass
class StructureIdeals:
    z_L: Subspace                 # {x : [x, L, L] = 0}
    ker_rho: Subspace             # {x : rho(x, L) = 0}
    center: Subspace              # z_L meet ker_rho
    ann_A: Subspace               # {a in A : aA = 0}
    ann_L_A: Subspace             # {x in L : Ax = 0}
    ann_A_on_L: Subspace          # {a in A : aL = 0}


@dataclass
class TightnessReport:
    center_zero: bool
    ann_A_zero: bool
    ann_L_A_zero: bool
    AA_eq_A: bool
    AL_eq_L: bool
    L1_generation: bool
    A1_generation: bool

    @property
    def tight(self):
        return (self.center_zero and self.ann_A_zero and self.ann_L_A_zero
                and self.AA_eq_A and self.AL_eq_L
                and self.L1_generation and self.A1_generation)


@dataclass
class SimplicityVerdict:
    verdict: str                  # "yes" / "no" / "undetermined"
    product_nonzero: bool         # [C,C,C] != 0, resp. CC != 0
    AA_nonzero: bool = True
    AL_nonzero: bool = True
    witness: object = None        # offending proper ideal on "no"


@dataclass
class PairingReport:
    mapping: dict                 # L-class rep coords -> list of A-rep coords
    applicable: bool              # instance tight
    unique: bool


@dataclass
class FineComponent:
    subspace: Subspace
    source: object                # class representative or ("split", rep, i)
    simplicity: SimplicityVerdict


@dataclass
class DecompositionReport:
    axioms: object
    aborted: bool = False
    supports: object = None
    sigma_classes: list = field(default_factory=list)
    lambda_classes: list = field(default_factory=list)
    L_ideals: list = field(default_factory=list)
    A_ideals: list = field(default_factory=list)
    U_complement: Subspace = None
    V_complement: Subspace = None
    L_covers: bool = None
    L_direct: bool = None
    L_directness_certified: bool = None   # directness criterion applicable
    A_covers: bool = None
    A_direct: bool = None
    A_directness_certified: bool = None
    structure: StructureIdeals = None
    tightness: TightnessReport = None
    orthogonality: tuple = None
    pairing: PairingReport = None
    maximal_length: bool = None
    g_multiplicative: bool = None
    g_mult_counterexamples: list = field(default_factory=list)
    supports_symmetric: bool = None
    fine_attempted: bool = False
    fine_components: list = field(default_factory=list)
    fine_components_A: list = field(default_factory=list)
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# spanning-row helpers


def _rows(entries, n):
    """Dense rows of the nonzero sparse entries, in order; a zero entry
    adds nothing to a span."""
    return [dense_vec(e, n) for e in entries if e]


def _action_rows(alg, a_deg, l_deg):
    return _rows((alg.action_entry(ai, li)
                  for ai in alg.fiber_indices("A", a_deg)
                  for li in alg.fiber_indices("L", l_deg)), alg.dim_L)


def _bracket_rows(alg, g, h, k):
    return _rows((alg.bracket_entry(i, j, m)
                  for i in alg.fiber_indices("L", g)
                  for j in alg.fiber_indices("L", h)
                  for m in alg.fiber_indices("L", k)), alg.dim_L)


def _amul_rows(alg, g, h):
    return _rows((alg.amul_entry(i, j)
                  for i in alg.fiber_indices("A", g)
                  for j in alg.fiber_indices("A", h)), alg.dim_A)


def _rho_rows(alg, g, h, a_deg):
    return _rows((alg.rho_entry(i, j, ak)
                  for i in alg.fiber_indices("L", g)
                  for j in alg.fiber_indices("L", h)
                  for ak in alg.fiber_indices("A", a_deg)), alg.dim_A)


def _sorted_elems(elems):
    return sorted(elems, key=lambda e: e.coords)


def _L1_span(alg, degrees, supports):
    """Degree-1 part of L generated by the given L-degrees: the span of
    A_{h^-1} L_h over h that also lies in the A-support, plus
    [L_h, L_k, L_{(hk)^-1}] over pairs h, k."""
    degrees = _sorted_elems(degrees)
    rows = []
    for h in degrees:
        if h in supports.lambda1:
            rows += _action_rows(alg, h.inv(), h)
    for h, k in product(degrees, repeat=2):
        rows += _bracket_rows(alg, h, k, h.mul(k).inv())
    return span(rows, alg.dim_L)


def _A1_span(alg, degrees, supports):
    """Degree-1 part of A generated by the given A-degrees: the span of
    A_{mu^-1} A_mu, plus rho(L_h, L_k)(A_{(hk)^-1}) over pairs h, k that
    also lie in the L-support."""
    degrees = _sorted_elems(degrees)
    rows = []
    for mu in degrees:
        rows += _amul_rows(alg, mu.inv(), mu)
    for h, k in product(degrees, repeat=2):
        if h in supports.sigma1 and k in supports.sigma1:
            rows += _rho_rows(alg, h, k, h.mul(k).inv())
    return span(rows, alg.dim_A)


def _check_class(alg, cls, kind):
    if cls.kind != kind:
        raise ValueError("expected a %s-class" % kind)
    supports = compute_supports(alg)
    pool = supports.sigma1 if kind == "sigma" else supports.lambda1
    if not cls.members <= pool:
        raise ValueError("class does not come from this instance")
    return supports


# ---------------------------------------------------------------------------
# class ideals


def build_L1_class(alg, cls):
    """Degree-1 part attached to a sigma-class (see `_L1_span`)."""
    return _L1_span(alg, cls.members, _check_class(alg, cls, "sigma"))


def build_I(alg, cls):
    """The graded ideal of a sigma-class: its degree-1 part plus the sum
    of the class fibers."""
    sub = build_L1_class(alg, cls)
    for h in _sorted_elems(cls.members):
        sub = sum_subspaces(sub, alg.fiber("L", h))
    ok, cert = verify_ideal_L(alg, sub)
    return IdealCandidate(sub, cls, "L", ok, cert)


def build_A1_class(alg, cls):
    return _A1_span(alg, cls.members, _check_class(alg, cls, "lambda"))


def build_A_ideal(alg, cls):
    sub = build_A1_class(alg, cls)
    for mu in _sorted_elems(cls.members):
        sub = sum_subspaces(sub, alg.fiber("A", mu))
    ok, cert = verify_ideal_A(alg, sub)
    return IdealCandidate(sub, cls, "A", ok, cert)


# ---------------------------------------------------------------------------
# ideal products: verification and closure


def _ideal_products(alg, side, old, new):
    """The products an ideal spanned by the rows old + new must absorb
    that involve at least one row of new, each with its certificate tag,
    in a fixed order: brackets [s, L, L], then the A-action, then the
    rho-derived actions rho(s1, s2)(A) L.  On the A side: A t.

    Each product is a sum over the nonzero coordinates of its rows of
    signed lookups, e.g. [s, e_i, e_j] = sum_p s_p [e_p, e_i, e_j].  Zero
    products are skipped: every subspace contains them."""
    nL, nA = alg.dim_L, alg.dim_A
    if side == "A":
        for t in new:
            nz = nonzero_coords(t)
            for ai in range(nA):
                v = sparse_sum((c, alg.amul_entry(ai, m)) for m, c in nz)
                if v:
                    yield ("amul", ai, t), dense_vec(v, nA)
        return
    for s in new:
        nz = nonzero_coords(s)
        for i, j in combinations(range(nL), 2):
            v = sparse_sum((c, alg.bracket_entry(p, i, j)) for p, c in nz)
            if v:
                yield ("bracket", s, i, j), dense_vec(v, nL)
    for s in new:
        nz = nonzero_coords(s)
        for ai in range(nA):
            v = sparse_sum((c, alg.action_entry(ai, m)) for m, c in nz)
            if v:
                yield ("action", ai, s), dense_vec(v, nL)
    if not alg.rho:
        return
    rows = old + new
    for p, s1 in enumerate(rows):
        for q, s2 in enumerate(rows):
            if max(p, q) < len(old):
                continue
            pairs = [(c1 * c2, i, j)
                     for i, c1 in nonzero_coords(s1)
                     for j, c2 in nonzero_coords(s2)]
            for ak in range(nA):
                ra = sparse_sum((f, alg.rho_entry(i, j, ak))
                                for f, i, j in pairs)
                for lj in range(nL) if ra else ():
                    v = sparse_sum((c, alg.action_entry(m, lj))
                                   for m, c in ra.items())
                    if v:
                        yield (("rho-action", s1, s2, ak, lj),
                               dense_vec(v, nL))


def _verify_ideal(alg, side, S):
    for tag, v in _ideal_products(alg, side, (), S.basis):
        if not S.contains(v):
            return False, tag + (v,)
    return True, None


def _ideal_closure(alg, side, v):
    """Least ideal containing the homogeneous vector v.  Worklist
    closure: each round multiplies only the rows added in the round
    before, so every product is formed once."""
    degrees = alg.L.degrees if side == "L" else alg.A.degrees
    if len({degrees[i] for i, c in enumerate(v) if c != 0}) > 1:
        raise ValueError("vector is not homogeneous")
    n = alg.dim_L if side == "L" else alg.dim_A
    S = span([v], n)
    old, new = (), S.basis
    while new:
        added = []
        for _, w in _ideal_products(alg, side, old, new):
            if not S.contains(w):
                S = Subspace(n, S.basis + (w,))
                added.append(w)
        old, new = old + new, tuple(added)
    return S


def verify_ideal_L(alg, S):
    """Ideal conditions for a subspace of L: closed under bracketing
    with L in the remaining slots, under the A-action, and under the
    action of rho(S, S)(A) on L.  Returns (ok, certificate); the
    certificate names the first product escaping S."""
    return _verify_ideal(alg, "L", S)


def verify_ideal_A(alg, T):
    """A-side ideal condition: A T inside T."""
    return _verify_ideal(alg, "A", T)


def verify_triple_orthogonality(alg, L_ideals, A_ideals=()):
    """Products across distinct classes vanish: for distinct ideals
    I != J the brackets [I, I, J] and [I, J, K] are zero, and distinct
    A-side ideals multiply to zero.  Returns (ok, counterexamples)."""
    bad = []
    n = len(L_ideals)
    for i, j in combinations(range(n), 2):
        for k in range(n):
            if k in (i, j):
                continue
            for u in L_ideals[i].subspace.basis:
                for v in L_ideals[j].subspace.basis:
                    for w in L_ideals[k].subspace.basis:
                        r = alg.eval_bracket(u, v, w)
                        if not is_zero_vec(r):
                            bad.append(("bracket", i, j, k, r))
        # two slots from one ideal, one from the other, both ways
        for a, b in ((i, j), (j, i)):
            for u in L_ideals[a].subspace.basis:
                for v in L_ideals[a].subspace.basis:
                    for w in L_ideals[b].subspace.basis:
                        r = alg.eval_bracket(u, v, w)
                        if not is_zero_vec(r):
                            bad.append(("bracket", a, a, b, r))
    for i, j in combinations(range(len(A_ideals)), 2):
        for u in A_ideals[i].subspace.basis:
            for v in A_ideals[j].subspace.basis:
                r = alg.eval_amul(u, v)
                if not is_zero_vec(r):
                    bad.append(("amul", i, j, r))
    return not bad, bad


# ---------------------------------------------------------------------------
# structural subspaces and predicates


def _kernel(maps, dim):
    """Common null space in F^dim of linear maps, each given by the
    sparse images of the dim basis vectors.  Each output coordinate that
    some image reaches gives one constraint row; the rows of the other
    coordinates are zero and are never formed."""
    rows = []
    for images in maps:
        by_out = {}
        for m, image in enumerate(images):
            for t, c in image.items():
                by_out.setdefault(t, list(zero_vec(dim)))[m] = c
        rows += by_out.values()
    return solve_homogeneous(rows, dim)


def structure_ideals(alg):
    """Center, kernel of the representation and the annihilators, each
    as the null space of stacked basis-level linear constraints."""
    rL, rA = range(alg.dim_L), range(alg.dim_A)
    z_L = _kernel(([alg.bracket_entry(m, i, j) for m in rL]
                   for i, j in combinations(rL, 2)), alg.dim_L)
    ker_rho = _kernel(([alg.rho_entry(m, j, ak) for m in rL]
                       for j in rL for ak in rA), alg.dim_L)
    return StructureIdeals(
        z_L, ker_rho, intersect_subspaces(z_L, ker_rho),
        ann_A=_kernel(([alg.amul_entry(m, j) for m in rA] for j in rA),
                      alg.dim_A),
        ann_L_A=_kernel(([alg.action_entry(ai, m) for m in rL]
                         for ai in rA), alg.dim_L),
        ann_A_on_L=_kernel(([alg.action_entry(m, lj) for m in rA]
                            for lj in rL), alg.dim_A))


def check_tight(alg, structure=None):
    """The regularity package: vanishing center and annihilators,
    AA = A, AL = L, and generation of both degree-1 fibers from the
    supports."""
    if structure is None:
        structure = structure_ideals(alg)
    supports = compute_supports(alg)
    one = alg.group.identity()
    nL, nA = alg.dim_L, alg.dim_A
    AA = span(_rows(alg.amul.values(), nA), nA)
    AL = span(_rows(alg.action.values(), nL), nL)

    return TightnessReport(
        center_zero=structure.center.dim == 0,
        ann_A_zero=structure.ann_A.dim == 0,
        ann_L_A_zero=structure.ann_L_A.dim == 0,
        AA_eq_A=AA.dim == nA,
        AL_eq_L=AL.dim == nL,
        L1_generation=_L1_span(alg, supports.sigma1, supports)
        == alg.fiber("L", one),
        A1_generation=_A1_span(alg, supports.lambda1, supports)
        == alg.fiber("A", one),
    )


def pair_ideals(alg, L_ideals, A_ideals, tight=None):
    """For each class ideal on the L side, the A-class ideals acting on
    it nontrivially.  On tight instances there is exactly one."""
    if tight is None:
        tight = check_tight(alg).tight
    mapping = {}
    for I in L_ideals:
        hits = []
        for J in A_ideals:
            nonzero = any(
                not is_zero_vec(alg.eval_action(a_row, x_row))
                for a_row in J.subspace.basis
                for x_row in I.subspace.basis)
            if nonzero:
                hits.append(J.source_class.representative.coords)
        mapping[I.source_class.representative.coords] = hits
    unique = all(len(h) == 1 for h in mapping.values())
    return PairingReport(mapping, applicable=bool(tight), unique=unique)


def check_G_multiplicative(alg):
    """Whenever degrees compose back into a support, the corresponding
    fiber product is nonzero.  The bracket clause ranges over pairwise
    distinct degree triples: with one-dimensional fibers a repeated
    degree forces the alternating bracket to vanish, so repetition would
    make the condition unsatisfiable rather than meaningful."""
    supports = compute_supports(alg)
    s1 = _sorted_elems(supports.sigma1)
    l1 = _sorted_elems(supports.lambda1)
    bad = []
    for g, h, k in combinations(s1, 3):
        if g.mul(h).mul(k) in supports.sigma1:
            if not _bracket_rows(alg, g, h, k):
                bad.append(("bracket", g.coords, h.coords, k.coords))
    for lam in l1:
        for g in s1:
            if lam.mul(g) in supports.sigma1:
                if not _action_rows(alg, lam, g):
                    bad.append(("action", lam.coords, g.coords))
    for lam, mu in combinations_with_replacement(l1, 2):
        if lam.mul(mu) in supports.lambda1:
            if not _amul_rows(alg, lam, mu):
                bad.append(("amul", lam.coords, mu.coords))
    return not bad, bad


def check_maximal_length(alg):
    supports = compute_supports(alg)
    return (all(alg.fiber("L", g).dim == 1 for g in supports.sigma1)
            and all(alg.fiber("A", lam).dim == 1 for lam in supports.lambda1))


# ---------------------------------------------------------------------------
# generated ideals and graded simplicity


def graded_ideal_generated_by(alg, v):
    """Least subspace containing the homogeneous vector v and closed
    under bracketing with L, the A-action, and rho-derived actions."""
    return _ideal_closure(alg, "L", v)


def A_ideal_generated_by(alg, v):
    """A-side analogue: closure of a homogeneous vector of A under
    multiplication by A."""
    return _ideal_closure(alg, "A", v)


def _homogeneous_generators(alg, space, C):
    """Echelon bases of the intersections of C with each degree fiber.
    For a graded C these jointly span C and every row is homogeneous."""
    degrees = alg.L.degrees if space == "L" else alg.A.degrees
    out = []
    for d in sorted(set(degrees), key=lambda e: e.coords):
        B = intersect_subspaces(C, alg.fiber(space, d))
        out.extend((d, row) for row in B.basis)
    return out


def _close_generators(alg, side, C, allowed=None):
    """Close every homogeneous generator of C.  Returns ("no", ideal)
    for the first proper ideal found inside C other than `allowed`;
    else "yes", or "undetermined" when a non-identity fiber of C has
    dimension greater than one, with no witness."""
    gens = _homogeneous_generators(alg, side, C)
    for d, v in gens:
        closure = _ideal_closure(alg, side, v)
        if closure == C or closure == allowed:
            continue
        if C.contains_subspace(closure):
            return "no", closure
        # generator escapes: `within` was not an ideal to begin with
        raise ValueError("subspace is not an ideal, simplicity undefined")
    fiber_dims = Counter(d for d, v in gens if not d.is_identity())
    if max(fiber_dims.values(), default=0) > 1:
        return "undetermined", None
    return "yes", None


def check_gr_simple_L(alg, within=None, structure=None):
    """Graded simplicity by generator closure: the bracket restricted to
    the (sub)algebra is nonzero and every ideal generated by a
    homogeneous vector is the whole thing or the kernel part.  The
    closure test is conclusive only when all support fibers met are
    one-dimensional; otherwise a passing run yields "undetermined"."""
    C = within if within is not None else full_subspace(alg.dim_L)
    if structure is None:
        structure = structure_ideals(alg)
    ker_part = intersect_subspaces(structure.ker_rho, C)

    bracket_nonzero = any(not is_zero_vec(alg.eval_bracket(u, v, w))
                          for u, v, w in combinations(C.basis, 3))
    AA_nonzero = bool(alg.amul)           # only nonzero entries are stored
    AL_nonzero = any(not is_zero_vec(alg.eval_action(alg.A_unit(ai), x))
                     for ai in range(alg.dim_A) for x in C.basis)
    if not bracket_nonzero:
        return SimplicityVerdict("no", False, AA_nonzero, AL_nonzero,
                                 witness="zero-bracket")
    verdict, witness = _close_generators(alg, "L", C, allowed=ker_part)
    return SimplicityVerdict(verdict, True, AA_nonzero, AL_nonzero, witness)


def check_gr_simple_A(alg, within=None):
    C = within if within is not None else full_subspace(alg.dim_A)
    if all(is_zero_vec(alg.eval_amul(u, v))
           for u, v in combinations_with_replacement(C.basis, 2)):
        return SimplicityVerdict("no", False, witness="zero-product")
    verdict, witness = _close_generators(alg, "A", C)
    return SimplicityVerdict(verdict, True, witness=witness)


# ---------------------------------------------------------------------------
# the two-ideal split of a non-simple component


def _attempt_component_split(alg, component, structure):
    """For a non-simple component, look for a decomposition into two
    graded ideals.  Seeds: the smallest proper ideal generated by a
    homogeneous vector of the component; its complementary support
    fibers generate the candidate partner."""
    candidates = []
    for d, v in _homogeneous_generators(alg, "L", component):
        closure = graded_ideal_generated_by(alg, v)
        if closure.dim < component.dim and \
                component.contains_subspace(closure):
            candidates.append(closure)
    if not candidates:
        return None
    I = min(candidates, key=lambda s: (s.dim, s.basis))
    partner = zero_subspace(alg.dim_L)
    for d, v in _homogeneous_generators(alg, "L", component):
        if d.is_identity():
            continue
        if not I.contains(v):
            partner = sum_subspaces(partner, graded_ideal_generated_by(alg, v))
    if intersect_subspaces(I, partner).dim != 0:
        return None
    if sum_subspaces(I, partner) != component:
        return None
    if not verify_ideal_L(alg, I)[0] or not verify_ideal_L(alg, partner)[0]:
        return None
    return I, partner


# ---------------------------------------------------------------------------
# the full pipeline


def decompose(alg):
    """Coarse decomposition into class ideals plus a degree-1
    complement, directness and orthogonality certificates, tightness and
    pairing, and (when the hypotheses allow a conclusive answer) the
    fine decomposition into graded-simple components."""
    ax = run_all(alg)
    if not ax.passed:
        return DecompositionReport(axioms=ax, aborted=True)

    report = DecompositionReport(axioms=ax)
    supports = compute_supports(alg)
    report.supports = supports
    report.sigma_classes = sigma_classes(supports)
    report.lambda_classes = lambda_classes(supports)
    one = alg.group.identity()

    report.L_ideals = [build_I(alg, c) for c in report.sigma_classes]
    report.A_ideals = [build_A_ideal(alg, c) for c in report.lambda_classes]

    L1_fiber = alg.fiber("L", one)
    L1_gen = _L1_span(alg, supports.sigma1, supports)
    report.U_complement = complement(L1_gen, within=L1_fiber)
    total_L = report.U_complement
    for I in report.L_ideals:
        total_L = sum_subspaces(total_L, I.subspace)
    report.L_covers = total_L == full_subspace(alg.dim_L)
    report.L_direct = (report.U_complement.dim
                       + sum(I.subspace.dim for I in report.L_ideals)
                       == total_L.dim) and report.L_covers

    A1_fiber = alg.fiber("A", one)
    A1_gen = _A1_span(alg, supports.lambda1, supports)
    report.V_complement = complement(A1_gen, within=A1_fiber)
    total_A = report.V_complement
    for J in report.A_ideals:
        total_A = sum_subspaces(total_A, J.subspace)
    report.A_covers = total_A == full_subspace(alg.dim_A)
    report.A_direct = (report.V_complement.dim
                       + sum(J.subspace.dim for J in report.A_ideals)
                       == total_A.dim) and report.A_covers

    structure = structure_ideals(alg)
    report.structure = structure
    report.L_directness_certified = (structure.center.dim == 0
                                     and L1_gen == L1_fiber)
    report.A_directness_certified = (structure.ann_A.dim == 0
                                     and A1_gen == A1_fiber)
    tightness = check_tight(alg, structure=structure)
    report.tightness = tightness

    report.orthogonality = verify_triple_orthogonality(
        alg, report.L_ideals, report.A_ideals)
    report.pairing = pair_ideals(alg, report.L_ideals, report.A_ideals,
                                 tight=tightness.tight)

    report.maximal_length = check_maximal_length(alg)
    gmult, gm_bad = check_G_multiplicative(alg)
    report.g_multiplicative = gmult
    report.g_mult_counterexamples = gm_bad
    report.supports_symmetric = (supports.sigma1 == supports.sigma
                                 and supports.lambda1 == supports.lambda_)
    report.notes.append(
        "multiplicative-support bracket clause evaluated over pairwise "
        "distinct degree triples")

    fine_ok = (tightness.tight and report.maximal_length
               and report.supports_symmetric)
    report.fine_attempted = fine_ok
    if fine_ok:
        for I in report.L_ideals:
            verdict = check_gr_simple_L(alg, within=I.subspace,
                                        structure=structure)
            I.is_gr_simple = verdict.verdict
            rep = I.source_class.representative.coords
            if verdict.verdict == "no" and gmult:
                split = _attempt_component_split(alg, I.subspace, structure)
                if split is not None:
                    for idx, part in enumerate(split):
                        sub_verdict = check_gr_simple_L(
                            alg, within=part, structure=structure)
                        report.fine_components.append(FineComponent(
                            part, ("split", rep, idx), sub_verdict))
                    continue
            report.fine_components.append(FineComponent(I.subspace, rep,
                                                        verdict))
        for J in report.A_ideals:
            verdict = check_gr_simple_A(alg, within=J.subspace)
            J.is_gr_simple = verdict.verdict
            report.fine_components_A.append(FineComponent(
                J.subspace, J.source_class.representative.coords, verdict))
        if not gmult:
            report.notes.append(
                "multiplicative-support condition fails; the two-ideal "
                "split of non-simple components is not attempted")
    return report
