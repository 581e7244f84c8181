"""Constructors and built-in instances with known ground truth.

Nothing here is trusted: every constructed instance is passed through
the full axiom suite before it is returned, and the purpose-built tight
instance re-verifies each tightness clause at build time.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .axioms import run_all
from .decompose import check_tight
from .groups import GroupSpec
from .linalg import zero_vec
from .model import Algebra3LR, GradedBasis


@dataclass
class LieRinehartSeed:
    """A binary Lie algebra over A with a trace functional, the raw
    material of the ternary construction.  lie_bracket keys are strictly
    increasing pairs; rep maps (L-index, A-index) to a sparse A-vector
    describing the derivation rho(e_i) acting on a_k."""
    group: GroupSpec
    L: GradedBasis
    A: GradedBasis
    lie_bracket: dict
    amul: dict
    action: dict
    rep: dict
    tau: tuple


@dataclass(frozen=True)
class FactorEmbedding:
    l_indices: tuple
    a_indices: tuple


def _table_vec(table, key, dim):
    out = [Fraction(0)] * dim
    for m, c in table.get(key, {}).items():
        out[m] = Fraction(c)
    return tuple(out)


def _lie_vec(seed, i, j):
    n = len(seed.L)
    if i == j:
        return zero_vec(n)
    if i < j:
        return _table_vec(seed.lie_bracket, (i, j), n)
    return tuple(-c for c in _table_vec(seed.lie_bracket, (j, i), n))


def _sparse_of(vec_):
    return {m: c for m, c in enumerate(vec_) if c != 0}


def from_lie_trace(seed):
    """Ternary bracket and two-argument representation induced by a
    trace functional tau:

        [x1,x2,x3] = tau(x1)[x2,x3] - tau(x2)[x1,x3] + tau(x3)[x1,x2]
        rho(x,y)   = tau(x) rho(y) - tau(y) rho(x)

    Requires tau to vanish on brackets and to commute with the A-module
    structure; both are checked, as is the full axiom suite on the
    result."""
    nL, nA = len(seed.L), len(seed.A)
    tau = tuple(Fraction(t) for t in seed.tau)
    assert len(tau) == nL

    for i in range(nL):
        for j in range(i + 1, nL):
            br = _lie_vec(seed, i, j)
            if sum(t * c for t, c in zip(tau, br)) != 0:
                raise ValueError(
                    "trace property fails on basis pair (%d, %d)" % (i, j))
    for ai in range(nA):
        for x in range(nL):
            ax = _table_vec(seed.action, (ai, x), nL)
            tau_ax = sum(t * c for t, c in zip(tau, ax))
            for y in range(nL):
                lhs = tuple(tau_ax if m == y else Fraction(0)
                            for m in range(nL))
                ay = _table_vec(seed.action, (ai, y), nL)
                rhs = tuple(tau[x] * c for c in ay)
                if lhs != rhs:
                    raise ValueError(
                        "trace-module compatibility fails on "
                        "(a_%d, x_%d, y_%d)" % (ai, x, y))

    bracket = {}
    for i in range(nL):
        for j in range(i + 1, nL):
            for k in range(j + 1, nL):
                v = [Fraction(0)] * nL
                for t, br in ((tau[i], _lie_vec(seed, j, k)),
                              (-tau[j], _lie_vec(seed, i, k)),
                              (tau[k], _lie_vec(seed, i, j))):
                    for m, c in enumerate(br):
                        v[m] += t * c
                entry = _sparse_of(v)
                if entry:
                    bracket[(i, j, k)] = entry

    rho = {}
    for i in range(nL):
        for j in range(nL):
            if i == j:
                continue
            for ak in range(nA):
                ri = _table_vec(seed.rep, (i, ak), nA)
                rj = _table_vec(seed.rep, (j, ak), nA)
                v = tuple(tau[i] * b - tau[j] * a for a, b in zip(ri, rj))
                entry = _sparse_of(v)
                if entry:
                    rho[(i, j, ak)] = entry

    alg = Algebra3LR(seed.group, seed.L, seed.A, bracket,
                     dict(seed.amul), dict(seed.action), rho)
    report = run_all(alg)
    if not report.passed:
        raise ValueError("trace construction produced an invalid instance: %r"
                         % report.counts)
    return alg


def direct_sum(x, y):
    """External direct sum: product grading group, disjointly embedded
    supports, all cross tables zero.  The factor embeddings are attached
    as ground truth and the result is re-validated."""
    group = GroupSpec(x.group.moduli + y.group.moduli)
    pad_x = (0,) * len(y.group.moduli)
    pad_y = (0,) * len(x.group.moduli)

    def emb_x(d):
        return group.elem(d.coords + pad_x)

    def emb_y(d):
        return group.elem(pad_y + d.coords)

    L = GradedBasis(
        tuple("%s.1" % l for l in x.L.labels)
        + tuple("%s.2" % l for l in y.L.labels),
        tuple(emb_x(d) for d in x.L.degrees)
        + tuple(emb_y(d) for d in y.L.degrees))
    A = GradedBasis(
        tuple("%s.1" % l for l in x.A.labels)
        + tuple("%s.2" % l for l in y.A.labels),
        tuple(emb_x(d) for d in x.A.degrees)
        + tuple(emb_y(d) for d in y.A.degrees))

    oL, oA = x.dim_L, x.dim_A
    bracket = dict(x.bracket)
    for (i, j, k), e in y.bracket.items():
        bracket[(i + oL, j + oL, k + oL)] = {m + oL: c for m, c in e.items()}
    amul = dict(x.amul)
    for (i, j), e in y.amul.items():
        amul[(i + oA, j + oA)] = {m + oA: c for m, c in e.items()}
    action = dict(x.action)
    for (ai, li), e in y.action.items():
        action[(ai + oA, li + oL)] = {m + oL: c for m, c in e.items()}
    rho = dict(x.rho)
    for (i, j, ak), e in y.rho.items():
        rho[(i + oL, j + oL, ak + oA)] = {m + oA: c for m, c in e.items()}

    alg = Algebra3LR(group, L, A, bracket, amul, action, rho)
    report = run_all(alg)
    if not report.passed:
        raise ValueError("direct sum produced an invalid instance: %r"
                         % report.counts)
    alg.factors = (
        FactorEmbedding(tuple(range(oL)), tuple(range(oA))),
        FactorEmbedding(tuple(range(oL, oL + y.dim_L)),
                        tuple(range(oA, oA + y.dim_A))))
    return alg


# ---------------------------------------------------------------------------
# built-in instances


# the 4-dimensional simple 3-Lie algebra: nonzero brackets on the
# ordered basis (e1, e2, e3, e4)
_A4_TABLE = {
    (0, 1, 2): {3: 1},            # [e1,e2,e3] = e4
    (0, 1, 3): {2: 1},            # [e1,e2,e4] = e3
    (0, 2, 3): {1: -1},           # [e1,e3,e4] = -e2
    (1, 2, 3): {0: 1},            # [e2,e3,e4] = e1
}


def _unital_scalar_A(group):
    return GradedBasis(("one",), (group.identity(),))


def _builtin_trivial():
    group = GroupSpec(())
    L = GradedBasis(("x",), (group.identity(),))
    A = GradedBasis(("a",), (group.identity(),))
    return Algebra3LR(group, L, A, {}, {}, {}, {})


def _builtin_a4():
    group = GroupSpec((2, 2))
    L = GradedBasis(("e1", "e2", "e3", "e4"),
                    (group.elem((1, 0)), group.elem((0, 1)),
                     group.elem((1, 1)), group.elem((0, 0))))
    A = _unital_scalar_A(group)
    amul = {(0, 0): {0: 1}}
    action = {(0, li): {li: 1} for li in range(4)}
    return Algebra3LR(group, L, A, dict(_A4_TABLE), amul, action, {})


def _builtin_gl2_trace():
    group = GroupSpec((0,))
    L = GradedBasis(("e", "f", "h", "I"),
                    (group.elem((1,)), group.elem((-1,)),
                     group.elem((0,)), group.elem((0,))))
    A = _unital_scalar_A(group)
    seed = LieRinehartSeed(
        group=group, L=L, A=A,
        lie_bracket={
            (0, 1): {2: 1},       # [e,f] = h
            (0, 2): {0: -2},      # [e,h] = -2e
            (1, 2): {1: 2},       # [f,h] = 2f
        },
        amul={(0, 0): {0: 1}},
        action={(0, li): {li: 1} for li in range(4)},
        rep={},
        tau=(0, 0, 0, 2),         # the matrix trace: tau(I) = 2
    )
    return from_lie_trace(seed)


def _a4_module_over_2dim(t_square):
    """L = A4 tensor A for the two-dimensional algebra A = span{1, t}
    with t^2 = t_square * 1, graded over Z2^3 with the A4 degrees in the
    first two coordinates and deg t = (0,0,1)."""
    group = GroupSpec((2, 2, 2))
    a4_deg = [(1, 0), (0, 1), (1, 1), (0, 0)]
    L_labels = tuple("e%d" % (i + 1) for i in range(4)) \
        + tuple("e%dt" % (i + 1) for i in range(4))
    L_degrees = tuple(group.elem(d + (0,)) for d in a4_deg) \
        + tuple(group.elem(d + (1,)) for d in a4_deg)
    L = GradedBasis(L_labels, L_degrees)
    A = GradedBasis(("one", "t"),
                    (group.identity(), group.elem((0, 0, 1))))

    amul = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    if t_square:
        amul[(1, 1)] = {0: Fraction(t_square)}

    action = {}
    for i in range(8):
        action[(0, i)] = {i: 1}
    for i in range(4):
        action[(1, i)] = {i + 4: 1}           # t * (e tensor 1)
        if t_square:
            action[(1, i + 4)] = {i: Fraction(t_square)}

    bracket = {}

    def add(i, j, k, entry):
        # canonicalize the decorated triple, tracking the sign
        idx = sorted(((i, 0), (j, 1), (k, 2)))
        perm = tuple(p for _, p in idx)
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        key = tuple(p for p, _ in idx)
        tgt = bracket.setdefault(key, {})
        for m, c in entry.items():
            tgt[m] = tgt.get(m, Fraction(0)) + sign * Fraction(c)

    for (i, j, k), entry in _A4_TABLE.items():
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    nt = di + dj + dk
                    if nt == 0:
                        factor, dl = Fraction(1), 0
                    elif nt == 1:
                        factor, dl = Fraction(1), 1
                    elif t_square:
                        factor = Fraction(t_square) ** (nt // 2)
                        dl = nt % 2
                    else:
                        continue
                    add(i + 4 * di, j + 4 * dj, k + 4 * dk,
                        {m + 4 * dl: factor * c for m, c in entry.items()})

    bracket = {k: {m: c for m, c in e.items() if c != 0}
               for k, e in bracket.items()}
    bracket = {k: e for k, e in bracket.items() if e}
    return Algebra3LR(group, L, A, bracket, amul, action, {})


def _builtin_tight_pair():
    factor = _a4_module_over_2dim(1)
    alg = direct_sum(factor, factor)
    tightness = check_tight(alg)
    if not tightness.tight:
        raise AssertionError("tight-pair build is not tight: %r" % tightness)
    return alg


_BUILDERS = {
    "trivial": _builtin_trivial,
    "a4": _builtin_a4,
    "gl2-trace": _builtin_gl2_trace,
    "a4-dual-numbers": lambda: _a4_module_over_2dim(0),
    "tight-pair": _builtin_tight_pair,
}

BUILTIN_NAMES = tuple(sorted(_BUILDERS))


@lru_cache(maxsize=None)
def builtin(name):
    """A named catalog instance; every build runs the full axiom suite
    and raises on any violation."""
    if name not in _BUILDERS:
        raise KeyError("unknown builtin %r (have: %s)"
                       % (name, ", ".join(BUILTIN_NAMES)))
    alg = _BUILDERS[name]()
    report = run_all(alg)
    if not report.passed:
        raise AssertionError("builtin %r fails validation: %r"
                             % (name, report.counts))
    return alg
