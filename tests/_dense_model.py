"""Dense reference copy of the model's products, kept as a test oracle.

These are the basis-level products (`*_basis`) and multilinear
evaluators (`eval_*`) that `Algebra3LR` carried before the decomposition
layer moved onto the signed lookups, rewritten as free functions of the
instance, together with the decomposition helpers built on them: the
ordered ideal products and the two degree-1 spans.  Every argument and
result is a dense Fraction vector, and every evaluator scans all
coordinate tuples.  The differential tests compare the sparse code with
these, value by value and in order.
"""

from fractions import Fraction
from itertools import combinations, product
from weakref import WeakKeyDictionary

from _ref_linalg import is_zero_vec
from g3lr.linalg import span, vec, zero_vec

_CACHES = WeakKeyDictionary()


def _perm_sign_and_sorted(i, j, k):
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return sign, (a, b, c)


def _cached(alg, key, build):
    """Per-instance memo, as the instance itself used to keep."""
    cache = _CACHES.setdefault(alg, {})
    out = cache.get(key)
    if out is None:
        out = cache[key] = build()
    return out


def _table_row(entry, dim):
    acc = [Fraction(0)] * dim
    if entry:
        for m, c in entry.items():
            acc[m] = c
    return tuple(acc)


# ---- basis-level products (dense vectors) ----


def bracket_basis(alg, i, j, k):
    def build():
        if i == j or j == k or i == k:
            return zero_vec(alg.dim_L)
        sign, key = _perm_sign_and_sorted(i, j, k)
        entry = alg.bracket.get(key)
        acc = [Fraction(0)] * alg.dim_L
        if entry:
            for m, c in entry.items():
                acc[m] = sign * c
        return tuple(acc)
    return _cached(alg, ("b", i, j, k), build)


def amul_basis(alg, i, j):
    key = (i, j) if i <= j else (j, i)
    return _cached(alg, ("m", i, j),
                   lambda: _table_row(alg.amul.get(key), alg.dim_A))


def action_basis(alg, ai, li):
    return _cached(alg, ("a", ai, li),
                   lambda: _table_row(alg.action.get((ai, li)), alg.dim_L))


def rho_basis(alg, i, j, ak):
    return _cached(alg, ("r", i, j, ak),
                   lambda: _table_row(alg.rho.get((i, j, ak)), alg.dim_A))


# ---- multilinear evaluators ----


def eval_bracket(alg, x, y, z):
    assert len(x) == len(y) == len(z) == alg.dim_L
    acc = [Fraction(0)] * alg.dim_L
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b or j == i:
                continue
            ab = a * b
            for k, c in enumerate(z):
                if not c or k == i or k == j:
                    continue
                sign, key = _perm_sign_and_sorted(i, j, k)
                entry = alg.bracket.get(key)
                if not entry:
                    continue
                f = ab * c if sign > 0 else -ab * c
                for m, cc in entry.items():
                    acc[m] += f * cc
    return vec(acc)


def eval_amul(alg, a, b):
    assert len(a) == len(b) == alg.dim_A
    acc = [Fraction(0)] * alg.dim_A
    for i, p in enumerate(a):
        if not p:
            continue
        for j, q in enumerate(b):
            if not q:
                continue
            key = (i, j) if i <= j else (j, i)
            entry = alg.amul.get(key)
            if not entry:
                continue
            pq = p * q
            for m, c in entry.items():
                acc[m] += pq * c
    return vec(acc)


def eval_action(alg, a, x):
    assert len(a) == alg.dim_A and len(x) == alg.dim_L
    acc = [Fraction(0)] * alg.dim_L
    for i, p in enumerate(a):
        if not p:
            continue
        for j, q in enumerate(x):
            if not q:
                continue
            entry = alg.action.get((i, j))
            if not entry:
                continue
            pq = p * q
            for m, c in entry.items():
                acc[m] += pq * c
    return vec(acc)


def eval_rho(alg, x, y, a):
    assert len(x) == len(y) == alg.dim_L and len(a) == alg.dim_A
    acc = [Fraction(0)] * alg.dim_A
    if not alg.rho:
        return vec(acc)
    for i, p in enumerate(x):
        if not p:
            continue
        for j, q in enumerate(y):
            if not q:
                continue
            pq = p * q
            for k, r in enumerate(a):
                if not r:
                    continue
                entry = alg.rho.get((i, j, k))
                if not entry:
                    continue
                pqr = pq * r
                for m, c in entry.items():
                    acc[m] += pqr * c
    return vec(acc)


# ---- decomposition helpers on the dense products ----


def ideal_products(alg, side, old, new):
    """Every product an ideal spanned by old + new must absorb that
    involves a row of new, zero products included, with its tag, in the
    order `g3lr.decompose._ideal_products` keeps."""
    if side == "A":
        for t in new:
            for ai in range(alg.dim_A):
                yield ("amul", ai, t), eval_amul(alg, alg.A_unit(ai), t)
        return
    for s in new:
        for i, j in combinations(range(alg.dim_L), 2):
            yield (("bracket", s, i, j),
                   eval_bracket(alg, s, alg.L_unit(i), alg.L_unit(j)))
    for s in new:
        for ai in range(alg.dim_A):
            yield ("action", ai, s), eval_action(alg, alg.A_unit(ai), s)
    if not alg.rho:
        return
    rows = old + new
    for p, s1 in enumerate(rows):
        for q, s2 in enumerate(rows):
            if max(p, q) < len(old):
                continue
            for ak in range(alg.dim_A):
                ra = eval_rho(alg, s1, s2, alg.A_unit(ak))
                if is_zero_vec(ra):
                    continue
                for lj in range(alg.dim_L):
                    yield (("rho-action", s1, s2, ak, lj),
                           eval_action(alg, ra, alg.L_unit(lj)))


def L1_span(alg, degrees, supports):
    """Span of A_{h^-1} L_h over h in the A-support plus
    [L_h, L_k, L_{(hk)^-1}] over pairs, from the dense basis rows."""
    degrees = sorted(degrees, key=lambda e: e.coords)
    rows = []
    for h in degrees:
        if h in supports.lambda1:
            rows += [action_basis(alg, ai, li)
                     for ai in alg.fiber_indices("A", h.inv())
                     for li in alg.fiber_indices("L", h)]
    for h, k in product(degrees, repeat=2):
        rows += [bracket_basis(alg, i, j, m)
                 for i in alg.fiber_indices("L", h)
                 for j in alg.fiber_indices("L", k)
                 for m in alg.fiber_indices("L", h.mul(k).inv())]
    return span(rows, alg.dim_L)


def A1_span(alg, degrees, supports):
    """Span of A_{mu^-1} A_mu plus rho(L_h, L_k)(A_{(hk)^-1}) over pairs
    in the L-support, from the dense basis rows."""
    degrees = sorted(degrees, key=lambda e: e.coords)
    rows = []
    for mu in degrees:
        rows += [amul_basis(alg, i, j)
                 for i in alg.fiber_indices("A", mu.inv())
                 for j in alg.fiber_indices("A", mu)]
    for h, k in product(degrees, repeat=2):
        if h in supports.sigma1 and k in supports.sigma1:
            rows += [rho_basis(alg, i, j, ak)
                     for i in alg.fiber_indices("L", h)
                     for j in alg.fiber_indices("L", k)
                     for ak in alg.fiber_indices("A", h.mul(k).inv())]
    return span(rows, alg.dim_A)
