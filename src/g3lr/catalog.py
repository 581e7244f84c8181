"""Constructors and built-in instances with known ground truth.

Nothing here is trusted: every constructed instance is passed through
the full axiom suite before it is returned, and the purpose-built tight
instance re-verifies each tightness clause at build time.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from operator import add

from .axioms import run_all
from .decompose import check_tight
from .groups import GroupSpec
from .linalg import sparse_sum
from .model import TABLES, Algebra3LR, GradedBasis


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

    def lie(i, j):                # [x_i, x_j] for i < j
        return seed.lie_bracket.get((i, j), {})

    for i, j in combinations(range(nL), 2):
        if sum(tau[m] * c for m, c in lie(i, j).items()) != 0:
            raise ValueError(
                "trace property fails on basis pair (%d, %d)" % (i, j))
    for ai in range(nA):
        for x in range(nL):
            tau_ax = sum(tau[m] * c
                         for m, c in seed.action.get((ai, x), {}).items())
            for y in range(nL):
                if sparse_sum([(tau_ax, {y: 1})]) != sparse_sum(
                        [(tau[x], seed.action.get((ai, y), {}))]):
                    raise ValueError(
                        "trace-module compatibility fails on "
                        "(a_%d, x_%d, y_%d)" % (ai, x, y))

    bracket = {}
    for i, j, k in combinations(range(nL), 3):
        entry = sparse_sum([(tau[i], lie(j, k)), (-tau[j], lie(i, k)),
                            (tau[k], lie(i, j))])
        if entry:
            bracket[(i, j, k)] = entry

    rho = {}
    for i, j in permutations(range(nL), 2):
        for ak in range(nA):
            entry = sparse_sum([(tau[i], seed.rep.get((j, ak), {})),
                                (-tau[j], seed.rep.get((i, ak), {}))])
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
    supports, all cross tables zero: x's indices first in each space,
    then y's.  The result is re-validated."""
    group = GroupSpec(x.group.moduli + y.group.moduli)
    pad_x, pad_y = (0,) * len(y.group.moduli), (0,) * len(x.group.moduli)

    def summed(space):
        bx, by = x.basis(space), y.basis(space)
        return GradedBasis(
            ["%s.1" % l for l in bx.labels] + ["%s.2" % l for l in by.labels],
            [group.elem(d.coords + pad_x) for d in bx.degrees]
            + [group.elem(pad_y + d.coords) for d in by.degrees])

    # y's indices follow x's in each space
    tables = []
    for name, (args, value, _) in TABLES.items():
        shift = [len(x.basis(s)) for s in args]
        o = len(x.basis(value))
        table = dict(getattr(x, name))
        for key, e in getattr(y, name).items():
            table[tuple(map(add, key, shift))] = {m + o: c
                                                  for m, c in e.items()}
        tables.append(table)

    alg = Algebra3LR(group, summed("L"), summed("A"), *tables)
    report = run_all(alg)
    if not report.passed:
        raise ValueError("direct sum produced an invalid instance: %r"
                         % report.counts)
    return alg


# ---------------------------------------------------------------------------
# built-in instances


def _unital_scalar_A(group):
    return GradedBasis(("one",), (group.identity(),))


def _builtin_trivial():
    group = GroupSpec(())
    L = GradedBasis(("x",), (group.identity(),))
    A = GradedBasis(("a",), (group.identity(),))
    return Algebra3LR(group, L, A, {}, {}, {}, {})


def _builtin_a4():
    """The 4-dimensional simple 3-Lie algebra over F."""
    group = GroupSpec((2, 2))
    L = GradedBasis(("e1", "e2", "e3", "e4"),
                    (group.elem((1, 0)), group.elem((0, 1)),
                     group.elem((1, 1)), group.elem((0, 0))))
    A = _unital_scalar_A(group)
    amul = {(0, 0): {0: 1}}
    action = {(0, li): {li: 1} for li in range(4)}
    bracket = {
        (0, 1, 2): {3: 1},        # [e1,e2,e3] = e4
        (0, 1, 3): {2: 1},        # [e1,e2,e4] = e3
        (0, 2, 3): {1: -1},       # [e1,e3,e4] = -e2
        (1, 2, 3): {0: 1},        # [e2,e3,e4] = e1
    }
    return Algebra3LR(group, L, A, bracket, amul, action, {})


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


def _a4_module_over_2dim(s):
    """L = A4 tensor A for A = F[t]/(t^2 - s), graded over Z2^3 with the
    A4 degrees in the first two coordinates and deg t = (0,0,1).  Index
    i + 4p stands for e_(i+1) t^p in L, and p for t^p in A.  A product
    with n factors of t is scaled by s^(n // 2) and keeps t^(n % 2):

        [x t^p, y t^q, z t^r] = [x, y, z] t^(p+q+r)
        t^a (x t^p) = x t^(a+p)            t^a t^b = t^(a+b)

    where [x, y, z], with its sign, is read off the incidence of the
    `a4` instance.  Algebra3LR drops the zero coefficients and the
    emptied entries that s = 0 leaves."""
    s = Fraction(s)
    a4 = _builtin_a4()
    ad = a4.incidence().ad
    group = GroupSpec((2, 2, 2))
    L = GradedBasis(
        [label + "t" * p for p in (0, 1) for label in a4.L.labels],
        [group.elem(d.coords + (p,)) for p in (0, 1) for d in a4.L.degrees])
    A = GradedBasis(("one", "t"), [group.elem((0, 0, p)) for p in (0, 1)])

    def times_t(n, entry, stride):
        # entry t^n, where index m + stride * p stands for (index m) t^p
        return {m + stride * (n % 2): s ** (n // 2) * c
                for m, c in entry.items()}

    bracket = {}
    for i, j, k in combinations(range(8), 3):
        e = ad.get((j % 4, k % 4), {}).get(i % 4, {})    # the A4 factor
        bracket[(i, j, k)] = times_t(i // 4 + j // 4 + k // 4, e, 4)
    action = {(a, m): times_t(a + m // 4, {m % 4: 1}, 4)
              for a in range(2) for m in range(8)}
    amul = {(a, b): times_t(a + b, {0: 1}, 1)
            for a, b in combinations_with_replacement(range(2), 2)}
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
