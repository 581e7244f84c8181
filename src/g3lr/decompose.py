"""Ideals attached to connection classes, coarse and fine decompositions,
and the structural predicates (tightness, maximal length, multiplicative
supports, graded simplicity) that certify them.

Every subspace here is computed as an exact rational span of products of
basis vectors, and every claimed containment or equality is checked as
an exact subspace identity.

Every product is read off the instance's `model.Incidence`, so the
work follows the stored keys that the rows reach, not the dimensions: a
product that no stored key reaches is zero and is never formed, and an
ideal triple whose coordinate supports no stored key connects is
skipped by the orthogonality check.  Each skip rule sits next to its
proof in the code.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product

from .axioms import run_all
from .connections import compute_supports, lambda_classes, sigma_classes
from .linalg import (Subspace, _echelon, _extend, _from_echelon, _insert,
                     _null_space, _reduce, complement, dense_vec,
                     full_subspace, intersect_subspaces, sparse_sum)


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
        return all(vars(self).values())


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
    source: object                # coords of the class representative
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


def _L1_span(alg, degrees, supports):
    """Degree-1 part of L generated by the set of L-degrees: the span of
    A_{h^-1} L_h over h that also lies in the A-support, plus
    [L_h, L_k, L_{(hk)^-1}] over pairs h, k.

    Its rows are the stored entries of the instance's degree index
    whose key degrees multiply to the identity: a stored triple with at
    least two of its three degrees in the set, and a stored action key
    (a, l) with deg l in the set and in the A-support.  Proof: a basis
    tuple of one of these fibers has a nonzero image only when it is,
    up to order and sign, a stored key, and then its degrees multiply to
    the identity; conversely such a triple has two of its slots in
    fibers of the set, in either order, and its third in the fiber of
    the inverse of their product.  So both give the same rows up to
    sign and repetition, and the same span."""
    idx = alg.degree_index()
    rows = [e for (_, dl), e in idx.one["action"]
            if dl in degrees and dl in supports.lambda1]
    rows += [e for ds, e in idx.one["bracket"]
             if sum(d in degrees for d in ds) >= 2]
    return Subspace(alg.dim_L, rows)


def _A1_span(alg, degrees, supports):
    """Degree-1 part of A generated by the set of A-degrees: the span of
    A_{mu^-1} A_mu, plus rho(L_h, L_k)(A_{(hk)^-1}) over pairs h, k that
    also lie in the L-support.

    Its rows are the stored entries of the degree index whose key
    degrees multiply to the identity: a stored product key with either
    degree in the set, and a stored rho key (i, j, a) with deg i and
    deg j in the set and in the L-support.  The proof is that of
    `_L1_span`: the product is symmetric, so either factor may be the
    one of degree mu, and rho is read in its stored argument order."""
    idx, sig = alg.degree_index(), supports.sigma1 & degrees
    rows = [e for (di, dj), e in idx.one["amul"]
            if di in degrees or dj in degrees]
    rows += [e for (di, dj, _), e in idx.one["rho"]
             if di in sig and dj in sig]
    return Subspace(alg.dim_A, rows)


# ---------------------------------------------------------------------------
# class ideals


def _class_ideal(alg, cls, kind, supports):
    """The graded ideal of a `kind`-class: its degree-1 part (`_L1_span`
    or `_A1_span`) plus the sum of the class fibers, with its ideal
    check.  The supports are computed when not given."""
    if cls.kind != kind:
        raise ValueError("expected a %s-class" % kind)
    if supports is None:
        supports = compute_supports(alg)
    side, pool, degree_one = (("L", supports.sigma1, _L1_span)
                              if kind == "sigma"
                              else ("A", supports.lambda1, _A1_span))
    if not cls.members <= pool:
        raise ValueError("class does not come from this instance")
    fibers = alg.basis(side).fibers
    sub = _extend(degree_one(alg, cls.members, supports),
                  [{i: 1} for g in sorted(cls.members) for i in fibers[g]])
    return IdealCandidate(sub, cls, side, *verify_ideal(alg, side, sub))


def build_I(alg, cls, supports=None):
    """The graded ideal of a sigma-class (`_class_ideal`)."""
    return _class_ideal(alg, cls, "sigma", supports)


def build_A_ideal(alg, cls, supports=None):
    """The graded ideal of a lambda-class (`_class_ideal`)."""
    return _class_ideal(alg, cls, "lambda", supports)


# ---------------------------------------------------------------------------
# ideal products: verification and closure


def _reached(row, by_index):
    """(key, image) in ascending key order, where image is the sum of
    c * f_key(e_p) over the coordinates c at p of the sparse row and
    by_index[p] lists (key, f_key(e_p)) over the nonzero images (see
    `model.Incidence`); zero sums are dropped.  Skip: a key that no
    coordinate of the row reaches has every term zero.  A key reached by
    one coordinate, of 1, yields the image itself, which is shared and
    must not be modified: a path that reduces a product copies it.  A
    row {p: c} reads by_index[p] sorted by key, where each key is listed
    once: each sum is the one term c * image, which is not zero."""
    if len(row) == 1:
        (p, c), = row.items()
        for key, image in sorted(by_index.get(p, ())):
            yield key, image if c == 1 else sparse_sum(((c, image),))
        return
    terms = {}
    for p, c in row.items():
        for key, image in by_index.get(p, ()):
            terms.setdefault(key, []).append((c, image))
    for key in sorted(terms):
        t = terms[key]
        v = t[0][1] if len(t) == 1 and t[0][0] == 1 else sparse_sum(t)
        if v:
            yield key, v


def _bracket(by_L, u, v, w):
    """[u, v, w] of sparse rows, with by_L the incidence's bracket_by_L:
    the bracket is alternating, so it is the sum over i < j of
    (v_i w_j - v_j w_i) [u, e_i, e_j], and `_reached(u, by_L)` yields
    the nonzero [u, e_i, e_j].  Skip: a pair whose coefficient is zero
    adds nothing."""
    terms = []
    for (i, j), b in _reached(u, by_L):
        f = v.get(i, 0) * w.get(j, 0) - v.get(j, 0) * w.get(i, 0)
        if f:
            terms.append((f, b))
    return sparse_sum(terms)


def _product(by_index, a, u):
    """The bilinear product a u of sparse rows: the sum of a_q (e_q u)
    over `_reached(u, by_index)`, where by_index[p] lists (q, e_q e_p)
    over the nonzero products (`model.Incidence`): amul_by_A for the
    product of A, action_by_L for the action of A on L.  Skip: a q
    outside the support of a adds nothing."""
    return sparse_sum((a[q], v) for q, v in _reached(u, by_index) if q in a)


def _ideal_products(alg, side, old, new):
    """The products an ideal spanned by the sparse rows old + new must
    absorb that involve at least one row of new, each with its
    certificate tag, in a fixed order: brackets [s, L, L], then the
    A-action, then the rho-derived actions rho(s1, s2)(A) L.  On the A
    side: A t.  Within each kind, basis indices ascend as in a plain
    scan over all of them.

    Each product is a sum over the nonzero coordinates of its rows, e.g.
    [s, e_i, e_j] = sum_p s_p [e_p, e_i, e_j], read off the instance's
    incidence, so only the basis indices the rows reach are visited.
    Zero products are skipped: every subspace contains them."""
    inc = alg.incidence()
    if side == "A":
        for t in new:
            for ai, v in _reached(t, inc.amul_by_A):
                yield ("amul", ai, t), v
        return
    for s in new:
        for (i, j), v in _reached(s, inc.bracket_by_L):
            yield ("bracket", s, i, j), v
    for s in new:
        for ai, v in _reached(s, inc.action_by_L):
            yield ("action", ai, s), v
    if not alg.rho:
        return
    rows = old + new
    for p, s1 in enumerate(rows):
        for q, s2 in enumerate(rows):
            if max(p, q) < len(old):
                continue
            # rho(s1, s2)(a_k) = sum of s1_i s2_j rho(i, j)(a_k), and its
            # action on l_j is linear in it, so both steps are reached
            pairs = {(i, j): c1 * c2
                     for i, c1 in s1.items() for j, c2 in s2.items()}
            for ak, ra in _reached(pairs, inc.rho_by_pair):
                for lj, v in _reached(ra, inc.action_by_A):
                    yield ("rho-action", s1, s2, ak, lj), v


def verify_ideal(alg, side, S):
    """Ideal conditions for a subspace S of `side`: on "L" closed under
    bracketing with L in the remaining slots, the A-action and the action
    of rho(S, S)(A) on L; on "A" closed under multiplication by A.
    (ok, certificate): the tag of the first product escaping S and the
    product, rows made dense.  Another side or ambient raises ValueError.
    A copy of each product, formed in the view, is reduced as it is."""
    n = len(alg.basis(side))
    if S.ambient_dim != n:
        raise ValueError("ambient mismatch")
    for tag, v in _ideal_products(alg, side, (), S.rows):
        if _reduce(S.rows, S.pivots, dict(v)):
            return False, tuple(dense_vec(x, n) if type(x) is dict else x
                                for x in tag + (v,))
    return True, None


def _ideal_closure(alg, side, v, C=None, full=None):
    """Least ideal containing v, a reduced homogeneous sparse row such as
    a row of C.  Worklist closure: each round multiplies only the rows
    added in the round before, so every product is formed once.

    Stop rule: given an ideal C containing v, it returns C as soon as
    its span has dim C or contains a row of `full`, {degree: rows of C}
    whose closures are each known to be C.  Proof: the least ideal
    containing v lies in C, and a subspace of C of dim C is C; a span
    that contains such a row g lies in the least ideal containing v, so
    that ideal contains the closure of g, which is C.  Only the rows of
    `full` at the degree of an added product are tested: on a graded
    instance the products are homogeneous, and the span meets the fiber
    of degree d in more only when a product of degree d is added.  A
    test left out only stops the closure later.  A closure that
    reaches neither runs to the end.  The span is one echelon basis that
    grows from [v] by a copy of each product, made a `Subspace` once."""
    degrees = alg.basis(side).degrees
    bound, full = (None if C is None else C.dim), full or {}
    basis, pivots, old, new = [v], [min(v)], (), (v,)
    while new and len(basis) != bound:
        added = []
        for _, w in _ideal_products(alg, side, old, new):
            if _insert(basis, pivots, dict(w)):
                if len(basis) == bound or any(
                        not _reduce(basis, pivots, dict(g))
                        for g in full.get(degrees[next(iter(w))], ())):
                    return C
                added.append(w)
        old, new = old + new, tuple(added)
    return _from_echelon(len(degrees), basis, pivots)


def verify_triple_orthogonality(alg, L_ideals, A_ideals=()):
    """Products across distinct classes vanish: for distinct ideals
    I != J the brackets [I, I, J] and [I, J, K] are zero, and distinct
    A-side ideals multiply to zero.  Returns (ok, counterexamples), the
    counterexamples in the order of a scan over every row tuple."""
    L = [I.subspace.rows for I in L_ideals]
    A = [J.subspace.rows for J in A_ideals]
    supp_L = [{t for r in rows for t in r} for rows in L]
    supp_A = [{t for r in rows for t in r} for rows in A]
    inc, nL, nA = alg.incidence(), alg.dim_L, alg.dim_A

    # Skip: every product of rows of I_a, I_b, I_c sums u_p v_i w_j
    # [p, i, j] over their coordinates, so it is zero unless a stored key
    # has some p in supp I_a and its pair {i, j} split across supp I_b
    # and supp I_c; likewise a_p a_q for the A-side ideals.
    def bracket_meets(a, b, c):
        return any((i in supp_L[b] and j in supp_L[c])
                   or (j in supp_L[b] and i in supp_L[c])
                   for p in supp_L[a]
                   for (i, j), _ in inc.bracket_by_L.get(p, ()))

    def amul_meets(a, b):
        return any(q in supp_A[b] for p in supp_A[a]
                   for q, _ in inc.amul_by_A.get(p, ()))

    bad = []
    for i, j in combinations(range(len(L)), 2):
        # [I, J, K], then two slots from one ideal and one from the other
        for a, b, c in ([(i, j, k) for k in range(len(L)) if k not in (i, j)]
                        + [(i, i, j), (j, j, i)]):
            if bracket_meets(a, b, c):
                for u, v, w in product(L[a], L[b], L[c]):
                    if r := _bracket(inc.bracket_by_L, u, v, w):
                        bad.append(("bracket", a, b, c, dense_vec(r, nL)))
    for i, j in combinations(range(len(A)), 2):
        if amul_meets(i, j):
            for u, v in product(A[i], A[j]):
                if r := _product(inc.amul_by_A, u, v):
                    bad.append(("amul", i, j, dense_vec(r, nA)))
    return not bad, bad


# ---------------------------------------------------------------------------
# structural subspaces and predicates


def _constraints(by_index, n):
    """The span in F^n of the constraint rows of the common null space
    of the maps f_key, where by_index[m] lists (key, f_key(e_m)) over
    the nonzero images: one new row {m: f_key(e_m)_t}, in the exact
    view, per key and output coordinate t.  Skip: the row of a (key, t)
    that no image reaches is zero.  A row {m: c} with one coordinate
    spans the line of e_m, so the unit rows of those lines, already a
    reduced echelon basis, start the basis and only the other rows are
    inserted: the span, and with it the canonical echelon basis, is
    that of all the rows."""
    rows = {}
    for m, images in by_index.items():
        for key, image in images:
            for t, c in image.items():
                rows.setdefault((key, t), {})[m] = c
    lines = sorted({min(r) for r in rows.values() if len(r) == 1})
    return _from_echelon(n, *_echelon(
        [r for r in rows.values() if len(r) > 1], n,
        [{m: 1} for m in lines], lines))


def structure_ideals(alg):
    """Center, kernel of the representation and the annihilators, each
    as the null space of basis-level linear constraints read off the
    instance's incidence: z_L from [x, e_i, e_j], ker_rho from
    rho(x, e_j)(a_k), the center from both (the z_L rows, reduced once),
    ann_A from x a_j, ann_L_A from a_i x and ann_A_on_L from x l_j."""
    inc = alg.incidence()
    nL, nA = alg.dim_L, alg.dim_A
    z, r = (_constraints(inc.bracket_by_L, nL),
            _constraints(inc.rho_by_L, nL))
    z_L = _null_space(z)
    return StructureIdeals(
        z_L, _null_space(r), _null_space(_extend(z, r.rows)) if r.dim else z_L,
        ann_A=_null_space(_constraints(inc.amul_by_A, nA)),
        ann_L_A=_null_space(_constraints(inc.action_by_L, nL)),
        ann_A_on_L=_null_space(_constraints(inc.action_by_A, nA)))


def _degree_one_spans(alg, supports):
    """The degree-1 parts of L and A generated by the whole supports."""
    return (_L1_span(alg, supports.sigma1, supports),
            _A1_span(alg, supports.lambda1, supports))


def check_tight(alg, structure=None, spans=None):
    """The regularity package: vanishing center and annihilators,
    AA = A, AL = L, and generation of both degree-1 fibers from the
    supports.  `spans` are the `_degree_one_spans`, computed when not
    given."""
    if structure is None:
        structure = structure_ideals(alg)
    if spans is None:
        spans = _degree_one_spans(alg, compute_supports(alg))
    one = alg.group.identity()
    nL, nA = alg.dim_L, alg.dim_A
    AA = Subspace(nA, alg.amul.values())   # only nonzero entries are stored
    AL = Subspace(nL, alg.action.values())

    return TightnessReport(
        center_zero=structure.center.dim == 0,
        ann_A_zero=structure.ann_A.dim == 0,
        ann_L_A_zero=structure.ann_L_A.dim == 0,
        AA_eq_A=AA.dim == nA,
        AL_eq_L=AL.dim == nL,
        L1_generation=spans[0] == alg.fiber("L", one),
        A1_generation=spans[1] == alg.fiber("A", one),
    )


def pair_ideals(alg, L_ideals, A_ideals, tight=None):
    """For each class ideal on the L side, the A-class ideals acting on
    it nontrivially.  On tight instances there is exactly one."""
    if tight is None:
        tight = check_tight(alg).tight
    by_L = alg.incidence().action_by_L
    mapping = {}
    for I in L_ideals:
        hits = []
        for J in A_ideals:
            nonzero = any(_product(by_L, a, x)
                          for a in J.subspace.rows for x in I.subspace.rows)
            if nonzero:
                hits.append(J.source_class.representative.coords)
        mapping[I.source_class.representative.coords] = hits
    unique = all(len(h) == 1 for h in mapping.values())
    return PairingReport(mapping, applicable=bool(tight), unique=unique)


def check_G_multiplicative(alg, supports=None):
    """Whenever degrees compose back into a support, the corresponding
    fiber product is nonzero.  The bracket clause ranges over pairwise
    distinct degree triples: with one-dimensional fibers a repeated
    degree forces the alternating bracket to vanish, so repetition would
    make the condition unsatisfiable rather than meaningful.

    Each triple or pair is tested against the degrees of the stored keys
    in the instance's degree index: a product of basis vectors of the
    given degrees is nonzero only on a stored key, up to order and
    sign, and every stored key is nonzero, so some product of the fibers
    is nonzero exactly when a stored key has those degrees: as a set for
    the bracket and the product, where the triple is distinct and a
    repeated pair is the same one-element set on both sides, and in the
    order (A, L) for the action.

    The bracket triples are found with O(|Sigma1|^2) products, not one
    per triple.  `under` lists, for each q = s k^-1 with s, k in Sigma1,
    the positions of its k in the sorted Sigma1.  Then g h k lies in
    Sigma1 exactly when k is listed under g h: g h k = s iff
    g h = s k^-1.  A k is listed at most once under each q, since q and
    k fix s.  The lists are filled with k ascending, and the pairs
    g < h are taken in `combinations` order, so reading each list's
    k > h in turn yields the triples g < h < k in the order of
    `combinations(s1, 3)`, which is the order of the report."""
    if supports is None:
        supports = compute_supports(alg)
    seen = alg.degree_index().degrees
    in_s1, in_l1 = supports.sigma1, supports.lambda1
    s1, l1 = sorted(in_s1), sorted(in_l1)
    under = {}
    for c, k in enumerate(s1):
        k_inv = k.inv()
        for s in s1:
            under.setdefault(s.mul(k_inv), []).append(c)
    bad = []
    for a, b in combinations(range(len(s1)), 2):
        g, h = s1[a], s1[b]
        for c in under.get(g.mul(h), ()):
            if c > b and frozenset((g, h, s1[c])) not in seen["bracket"]:
                bad.append(("bracket", g.coords, h.coords, s1[c].coords))
    for lam in l1:
        for g in s1:
            if lam.mul(g) in in_s1 and (lam, g) not in seen["action"]:
                bad.append(("action", lam.coords, g.coords))
    for lam, mu in combinations_with_replacement(l1, 2):
        if (lam.mul(mu) in in_l1
                and frozenset((lam, mu)) not in seen["amul"]):
            bad.append(("amul", lam.coords, mu.coords))
    return not bad, bad


def wide_fibers(degrees):
    """The degrees that occur more than once in `degrees`, sorted: the wide
    fibers of a basis, or of an ideal by its homogeneous generators."""
    return sorted(d for d, n in Counter(degrees).items() if n > 1)


def check_maximal_length(alg):
    """Every support fiber, on both sides, is one-dimensional: the
    supports are the non-identity degrees of the basis vectors."""
    return all(d.is_identity() for basis in (alg.L, alg.A)
               for d in wide_fibers(basis.degrees))


# ---------------------------------------------------------------------------
# generated ideals and graded simplicity


def ideal_generated_by(alg, side, v):
    """Least ideal of `side` containing the homogeneous vector v: closed
    under bracketing with L, the A-action and rho-derived actions on "L",
    under multiplication by A on "A"."""
    S = Subspace(len(alg.basis(side)), [v])
    _homogeneous_generators(alg, side, S)     # raises unless homogeneous
    return _ideal_closure(alg, side, S.rows[0]) if S.rows else S


def _homogeneous_generators(alg, space, C):
    """The rows of C grouped by degree, as (degree, row) pairs in degree
    order; a row that is not homogeneous raises ValueError.  For a
    graded C these are the echelon bases B_d of its meets with the
    fibers F_d.  Proof: F_d is spanned by basis vectors, so rows of
    distinct B_d have disjoint supports; the union of the B_d spans C,
    its pivots are distinct and each pivot column is zero outside its
    own row, so sorted by pivot it is the reduced echelon basis of C,
    which is unique: C.rows.  So C is graded iff its rows are homogeneous."""
    degrees = alg.basis(space).degrees
    groups = {}
    for row in C.rows:
        ds = {degrees[t] for t in row}
        if len(ds) > 1:
            raise ValueError("subspace is not graded")
        groups.setdefault(ds.pop(), []).append(row)
    return [(d, row) for d in sorted(groups) for row in groups[d]]


def _close_generators(alg, side, C, gens, allowed=None):
    """Close the generators `gens` of the ideal C (`_homogeneous_generators`):
    ("no", ideal) for the first proper ideal inside C other than `allowed`,
    else "yes", or "undetermined", no witness, when C has a wide fiber, the
    identity's too (`wide_fibers`).  The generators whose closure is C are
    kept by degree and handed to every later closure, which returns C once
    it has dim C or contains one of them (`_ideal_closure`).  Proof: a
    closure of v that contains such a generator g contains the closure of
    g, which is C, and lies in C.  So a closure stops early only when it
    is C, and a proper one runs to the end: the same first witness."""
    full = {}
    for d, v in gens:
        closure = _ideal_closure(alg, side, v, C, full)
        if closure == C:
            full.setdefault(d, []).append(v)
        elif closure != allowed:
            return "no", closure
    if wide_fibers(d for d, v in gens):
        return "undetermined", None
    return "yes", None


def check_gr_simple_L(alg, within=None, structure=None):
    """Graded simplicity by generator closure: the bracket on the
    (sub)algebra is nonzero and every ideal generated by a homogeneous
    vector is the whole thing or the kernel part.  The test is conclusive
    only when all fibers met, the identity's too, are one-dimensional;
    else a passing run yields "undetermined".  `within` must be a graded
    ideal: another ambient dimension, a non-homogeneous row, or a failed
    ideal check unless it is the whole space, raises ValueError first."""
    return _gr_simple(alg, "L", within, structure=structure)


def check_gr_simple_A(alg, within=None):
    """`check_gr_simple_L` on A, CC for the bracket; the same `within`."""
    return _gr_simple(alg, "A", within)


def _gr_simple(alg, side, within, is_ideal=None, structure=None):
    """Both checks on `within` (None: the whole space), which must be a
    graded ideal: `is_ideal` is its known check, else a proper one is
    verified."""
    n = len(alg.basis(side))
    C = within if within is not None else full_subspace(n)
    if C.ambient_dim != n:
        raise ValueError("ambient mismatch")
    gens = _homogeneous_generators(alg, side, C)
    if is_ideal is None:
        is_ideal = C.dim == n or verify_ideal(alg, side, C)[0]
    if not is_ideal:
        raise ValueError("subspace is not an ideal, simplicity undefined")
    inc = alg.incidence()
    if side == "A":
        if not any(_product(inc.amul_by_A, u, v)
                   for u, v in combinations_with_replacement(C.rows, 2)):
            return SimplicityVerdict("no", False, witness="zero-product")
        verdict, witness = _close_generators(alg, "A", C, gens)
        return SimplicityVerdict(verdict, True, witness=witness)
    ker_rho = structure.ker_rho if structure else _null_space(
        _constraints(inc.rho_by_L, n))
    ker_part = C if ker_rho.dim == n else intersect_subspaces(ker_rho, C)

    bracket_nonzero = any(_bracket(inc.bracket_by_L, u, v, w)
                          for u, v, w in combinations(C.rows, 3))
    AA_nonzero = bool(alg.amul)           # only nonzero entries are stored
    AL_nonzero = any(next(_reached(x, inc.action_by_L), None)
                     for x in C.rows)
    if not bracket_nonzero:
        return SimplicityVerdict("no", False, AA_nonzero, AL_nonzero,
                                 witness="zero-bracket")
    verdict, witness = _close_generators(alg, "L", C, gens, ker_part)
    return SimplicityVerdict(verdict, True, AA_nonzero, AL_nonzero, witness)


# ---------------------------------------------------------------------------
# the full pipeline


def _coarse_sum(alg, side, degree_one, ideals):
    """(comp, covers, direct): the canonical complement of the degree-1
    span in the identity fiber of `side`, and whether comp and the class
    ideals sum to the whole space, and whether directly."""
    n, one = len(alg.basis(side)), alg.group.identity()
    comp = complement(degree_one, within=alg.fiber(side, one))
    spaces = [comp] + [I.subspace for I in ideals]
    total = _extend(comp, [r for S in spaces[1:] for r in S.rows]).dim
    return comp, total == n, total == n and sum(S.dim for S in spaces) == total


def decompose(alg):
    """Coarse decomposition into class ideals plus a degree-1
    complement, directness and orthogonality certificates, tightness and
    pairing, and, under tightness, maximal length and symmetric
    supports, the fine decomposition: each class ideal is one component
    with its graded-simplicity verdict, and a "no" keeps its witness
    ideal."""
    ax = run_all(alg)
    if not ax.passed:
        return DecompositionReport(axioms=ax, aborted=True)

    report = DecompositionReport(axioms=ax)
    report.supports = supports = compute_supports(alg)
    report.sigma_classes = sigma_classes(supports)
    report.lambda_classes = lambda_classes(supports)

    report.L_ideals = [build_I(alg, c, supports)
                       for c in report.sigma_classes]
    report.A_ideals = [build_A_ideal(alg, c, supports)
                       for c in report.lambda_classes]

    spans = _degree_one_spans(alg, supports)
    report.U_complement, report.L_covers, report.L_direct = _coarse_sum(
        alg, "L", spans[0], report.L_ideals)
    report.V_complement, report.A_covers, report.A_direct = _coarse_sum(
        alg, "A", spans[1], report.A_ideals)

    report.structure = structure = structure_ideals(alg)
    tightness = check_tight(alg, structure=structure, spans=spans)
    report.tightness = tightness
    report.L_directness_certified = (tightness.center_zero
                                     and tightness.L1_generation)
    report.A_directness_certified = (tightness.ann_A_zero
                                     and tightness.A1_generation)

    report.orthogonality = verify_triple_orthogonality(
        alg, report.L_ideals, report.A_ideals)
    report.pairing = pair_ideals(alg, report.L_ideals, report.A_ideals,
                                 tight=tightness.tight)

    report.maximal_length = check_maximal_length(alg)
    report.g_multiplicative, report.g_mult_counterexamples = (
        check_G_multiplicative(alg, supports))
    report.supports_symmetric = (supports.sigma1 == supports.sigma
                                 and supports.lambda1 == supports.lambda_)
    report.notes.append(
        "multiplicative-support bracket clause evaluated over pairwise "
        "distinct degree triples")

    fine_ok = (tightness.tight and report.maximal_length
               and report.supports_symmetric)
    report.fine_attempted = fine_ok
    if fine_ok:
        for side, ideals, components in (
                ("L", report.L_ideals, report.fine_components),
                ("A", report.A_ideals, report.fine_components_A)):
            for I in ideals:
                verdict = _gr_simple(alg, side, I.subspace,
                                     I.is_graded_ideal, structure)
                I.is_gr_simple = verdict.verdict
                components.append(FineComponent(
                    I.subspace, I.source_class.representative.coords,
                    verdict))
        # the note is pinned by stored report digests, so it stays
        if not report.g_multiplicative:
            report.notes.append(
                "multiplicative-support condition fails; the two-ideal "
                "split of non-simple components is not attempted")
    return report
