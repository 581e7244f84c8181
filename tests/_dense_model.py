"""Dense reference copy of the model's products, kept as a test oracle.

These are the basis-level products (`*_basis`) and multilinear
evaluators (`eval_*`) that `Algebra3LR` once carried, rewritten as free
functions of the instance, together with the decomposition helper
built on them: the ordered ideal products.  The package itself has no
per-tuple lookup and no dense evaluator: it forms every product from
`model.Incidence`.  Every argument and
result is a dense Fraction vector, and every evaluator scans all
coordinate tuples.  The differential tests compare the sparse code with
these, value by value and in order.
"""

from fractions import Fraction
from itertools import combinations
from weakref import WeakKeyDictionary

from _ref_linalg import is_zero_vec, unit_vec, vec, zero_vec

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
    nL, nA = alg.dim_L, alg.dim_A
    if side == "A":
        for t in new:
            for ai in range(nA):
                yield ("amul", ai, t), eval_amul(alg, unit_vec(nA, ai), t)
        return
    for s in new:
        for i, j in combinations(range(nL), 2):
            yield (("bracket", s, i, j),
                   eval_bracket(alg, s, unit_vec(nL, i), unit_vec(nL, j)))
    for s in new:
        for ai in range(nA):
            yield ("action", ai, s), eval_action(alg, unit_vec(nA, ai), s)
    if not alg.rho:
        return
    rows = old + new
    for p, s1 in enumerate(rows):
        for q, s2 in enumerate(rows):
            if max(p, q) < len(old):
                continue
            for ak in range(nA):
                ra = eval_rho(alg, s1, s2, unit_vec(nA, ak))
                if is_zero_vec(ra):
                    continue
                for lj in range(nL):
                    yield (("rho-action", s1, s2, ak, lj),
                           eval_action(alg, ra, unit_vec(nL, lj)))
