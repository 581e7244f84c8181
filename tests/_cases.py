"""Shared test instances: two valid instances with a nonzero rho, the
trace seed and one whose rho is not antisymmetric, invalid instances
that together fail every axiom group, all but one a single-entry change
of a valid instance, an invalid instance with a fully dense rho, and two
direct sums with an ideal in an identity fiber that no basis vector
spans once the fiber is in a mixed basis."""

from fractions import Fraction

from _transport import transport
from g3lr.catalog import LieRinehartSeed, builtin, direct_sum, from_lie_trace
from g3lr.groups import GroupSpec
from g3lr.model import TABLES, Algebra3LR, GradedBasis


def rebuild(alg, **overrides):
    """`alg` with the tables named in `overrides` replaced."""
    parts = {name: getattr(alg, name) for name in TABLES}
    parts.update(overrides)
    return Algebra3LR(alg.group, alg.L, alg.A, **parts)


def over_trivial_group(alg):
    """`alg` with every basis vector of degree the identity of the
    trivial group: one fiber per side, which holds the whole space."""
    G = GroupSpec(())

    def basis(b):
        return GradedBasis(b.labels, [G.identity()] * len(b))
    return Algebra3LR(G, basis(alg.L), basis(alg.A),
                      **{name: getattr(alg, name) for name in TABLES})


# the basis u + v, u - v of a two-dimensional fiber with basis u, v
_PLUS_MINUS = [[1, 1], [1, -1]]


def a4_plus_gl2(mixed=False):
    """direct_sum(a4, gl2-trace), whose A is F x F in its identity fiber;
    with `mixed`, that fiber in the basis one.1 + one.2, one.1 - one.2
    under the old labels, where no basis vector spans either ideal F of
    A.  The mixed one is docs/examples/direct_sum_mixed_basis.json."""
    alg = direct_sum(builtin("a4"), builtin("gl2-trace"))
    if not mixed:
        return alg
    return transport(alg, {("A", alg.group.identity()): _PLUS_MINUS})


def a4_squared_over_trivial_group(mixed=False):
    """direct_sum(a4, a4) over the trivial group; with `mixed`, L in the
    basis x.1 + x.2 then x.1 - x.2 over the basis vectors x of a4, and A
    in one.1 + one.2, one.1 - one.2, the labels kept."""
    alg = over_trivial_group(direct_sum(builtin("a4"), builtin("a4")))
    if not mixed:
        return alg
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    L = [r + r for r in eye] + [r + [-c for c in r] for r in eye]
    one = alg.group.identity()
    return transport(alg, {("L", one): L, ("A", one): _PLUS_MINUS})


def with_entry(alg, table, key, entry):
    """`alg` with one entry of one table replaced."""
    changed = dict(getattr(alg, table))
    changed[key] = entry
    return rebuild(alg, **{table: changed})


def trace_seed(rep=None):
    """The seed of `rho_trace_seed`, with `rep` in place of its
    representation rep(J)(t) = t when given."""
    g = GroupSpec((0,))
    L = GradedBasis(("e", "f", "h", "I", "J"),
                    tuple(g.elem((d,)) for d in (1, -1, 0, 0, 0)))
    A = GradedBasis(("one", "t"), (g.identity(), g.elem((2,))))
    return LieRinehartSeed(
        group=g, L=L, A=A,
        lie_bracket={(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
        amul={(0, 0): {0: 1}, (0, 1): {1: 1}},
        action={(0, li): {li: 1} for li in range(5)},
        rep={(4, 1): {1: 1}} if rep is None else rep,
        tau=(0, 0, 0, 1, 0))


def rho_trace_seed():
    """The trace construction of Bai, Bai & Wang on L = sl2 + span{I, J}
    over the dual numbers A = span{1, t}: deg e = 1, deg f = -1,
    deg t = 2, t acts as zero on L, rep(J)(t) = t and tau(I) = 1, so
    rho(I, J)(t) = t."""
    return from_lie_trace(trace_seed())


def rho_seed_square():
    """The direct sum of two copies of the trace seed: dim L 10, dim A 4,
    with the four nonzero rho values of the two copies."""
    seed = rho_trace_seed()
    return direct_sum(seed, seed)


def rho_not_antisymmetric():
    """A valid instance whose rho is not antisymmetric in its
    L-arguments: trivially graded, L = {x}, A = {one, s, t} with `one`
    the unit and every other product zero, `one` acting as the identity
    on L, and rho(x, x)(s) = t."""
    group = GroupSpec(())
    one = group.identity()
    return Algebra3LR(
        group, GradedBasis(("x",), (one,)),
        GradedBasis(("one", "s", "t"), (one,) * 3), {},
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}},
        {(0, 0): {0: 1}}, {(0, 0, 1): {2: 1}})


def rho_square_overflow():
    """`rho_seed_square` with rho(h.1, J.1)(t.1) = t.1 added: every axiom
    group passes but the representation identities, which fail on more
    than VIOLATION_CAP witnesses of both kinds (i) and (ii)."""
    sq = rho_seed_square()
    return with_entry(sq, "rho", (2, 4, 1), {1: Fraction(1)})


def dense_rho():
    """A rho with every key stored: trivially graded, dim L 8, dim A 3,
    every bracket triple [v_i, v_j, v_k] = v_(i+j+k mod 8), every rho key
    rho(v_i, v_j)(a_k) = (1 + (ij mod 3)) a_(i+j+k mod 3), and a zero
    product and action.  Every representation unit fails, on 20,412
    witnesses."""
    G = GroupSpec(())
    n, nA = 8, 3
    L = GradedBasis(tuple("v%d" % i for i in range(n)), (G.identity(),) * n)
    A = GradedBasis(tuple("a%d" % i for i in range(nA)),
                    (G.identity(),) * nA)
    bracket = {(i, j, k): {(i + j + k) % n: 1}
               for i in range(n) for j in range(i + 1, n)
               for k in range(j + 1, n)}
    rho = {(i, j, k): {(i + j + k) % nA: 1 + i * j % 3}
           for i in range(n) for j in range(n) for k in range(nA)}
    return Algebra3LR(G, L, A, bracket, {}, {}, rho)


def rescaled(alg, L_scale, A_scale):
    """`alg` in the basis x'_i = s_i x_i of L and a'_k = t_k a_k of A,
    for the nonzero scales {index: s} given (the rest stay 1): an
    isomorphic instance, whose entries pick up the quotients of the
    scales."""
    sL = [Fraction(L_scale.get(i, 1)) for i in range(alg.dim_L)]
    sA = [Fraction(A_scale.get(i, 1)) for i in range(alg.dim_A)]

    def table(entries, scales, target):
        out = {}
        for key, entry in entries.items():
            f = 1
            for s, i in zip(scales, key):
                f *= s[i]
            out[key] = {m: c * f / target[m] for m, c in entry.items()}
        return out
    return Algebra3LR(alg.group, alg.L, alg.A,
                      table(alg.bracket, (sL, sL, sL), sL),
                      table(alg.amul, (sA, sA), sA),
                      table(alg.action, (sA, sL), sL),
                      table(alg.rho, (sL, sL, sA), sA))


def rational_seed():
    """The trace seed with e scaled by 1/2 and J by -2/3: a valid
    instance with the non-integral entries [e, f, I] = h/2 and
    rho(I, J)(t) = -2t/3."""
    return rescaled(rho_trace_seed(), {0: Fraction(1, 2),
                                      4: Fraction(-2, 3)}, {})


def rational_seed_mutant():
    """`rational_seed` with rho(I, J)(t) = -t/3, no longer minus
    rho(J, I)(t) = 2t/3: the representation identities fail."""
    return with_entry(rational_seed(), "rho", (3, 4, 1),
                      {1: Fraction(-1, 3)})


def garbage_ungraded():
    """Trivially graded 5-dimensional L with an arbitrary bracket table;
    the grading checker is silent but the fundamental identity fails on
    many 5-tuples."""
    G = GroupSpec(())
    L = GradedBasis(tuple("v%d" % i for i in range(5)), (G.identity(),) * 5)
    A = GradedBasis(("one",), (G.identity(),))
    br = {(0, 1, 2): {3: 1}, (0, 1, 3): {4: 1}, (2, 3, 4): {0: 1},
          (1, 2, 4): {1: 1}, (0, 2, 3): {2: 1}}
    return Algebra3LR(G, L, A, br, {(0, 0): {0: 1}},
                      {(0, i): {i: 1} for i in range(5)}, {})


def _doubled(alg, table, key):
    return with_entry(alg, table, key,
                      {m: 2 * c for m, c in getattr(alg, table)[key].items()})


def failing_instances():
    """name -> invalid instance; together they make every axiom group
    report violations."""
    seed = rho_trace_seed()
    return {
        "fundamental-garbage": garbage_ungraded(),
        # a bracket target moved into a fiber of the wrong degree
        "grading-a4": with_entry(builtin("a4"), "bracket", (0, 1, 2),
                                 {0: Fraction(1)}),
        # t * t = t in the dual numbers
        "A-algebra-dual": with_entry(builtin("a4-dual-numbers"), "amul",
                                     (1, 1), {1: Fraction(1)}),
        # the unit acts by 2 on e1 only
        "rinehart-a4": _doubled(builtin("a4"), "action", (0, 0)),
        # rho(I, J)(t) moved from A_2 into A_0
        "grading-rho-seed": with_entry(seed, "rho", (3, 4, 1),
                                       {0: Fraction(1)}),
        "rho-doubled-seed": _doubled(seed, "rho", (3, 4, 1)),
        # rho(I, J) sends the unit to itself: not a derivation
        "rho-derivation-seed": with_entry(seed, "rho", (3, 4, 0),
                                          {0: Fraction(1)}),
    }
