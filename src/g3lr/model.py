"""Data model for a finite-dimensional graded 3-Lie-Rinehart algebra.

An instance bundles a grading group, labelled graded bases of the
3-Lie side L and the commutative side A, and four sparse structure
constant tables:

  bracket  [.,.,.] : L x L x L -> L   keys (i<j<k), expanded by sign
  amul     A x A -> A                 keys {i<=j}, symmetric
  action   A x L -> L                 keys (a_i, l_j)
  rho      L x L -> Der(A)            keys (i, j, a_k), both (i,j) orders
                                      stored independently

Unlisted entries are zero.  Skew symmetry of the bracket and
commutativity of the product hold by storage convention; the genuinely
checkable axioms live in `axioms`.

Evaluators are multilinear extensions over the stored basis constants,
so checking an identity on basis tuples proves it for all vectors.
"""

from fractions import Fraction

from .groups import GroupElem, GroupSpec
from .linalg import Subspace, unit_vec, vec, zero_vec


class GradedBasis:
    """Ordered basis labels with one group degree per label."""

    def __init__(self, labels, degrees):
        labels = tuple(labels)
        degrees = tuple(degrees)
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees differ in length")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        for d in degrees:
            if not isinstance(d, GroupElem):
                raise ValueError("degree is not a group element: %r" % (d,))
        self.labels = labels
        self.degrees = degrees

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)


def _sparse(entries, dim):
    out = {}
    for idx, c in entries.items():
        c = Fraction(c)
        if c != 0:
            if not 0 <= idx < dim:
                raise ValueError("structure constant index out of range")
            out[idx] = c
    return out


def _perm_sign_and_sorted(i, j, k):
    """Sort a distinct triple, tracking the permutation sign."""
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return sign, (a, b, c)


class Algebra3LR:
    """Immutable instance; construction validates indices and storage
    canonicity, not the axioms (see `axioms.run_all`)."""

    def __init__(self, group, L, A, bracket, amul, action, rho):
        assert isinstance(group, GroupSpec)
        assert isinstance(L, GradedBasis) and isinstance(A, GradedBasis)
        for d in L.degrees + A.degrees:
            if d.spec != group:
                raise ValueError("degree from a different group")
        self.group = group
        self.L = L
        self.A = A
        nL, nA = len(L), len(A)
        self.dim_L = nL
        self.dim_A = nA

        self.bracket = {}
        for (i, j, k), val in bracket.items():
            if not (0 <= i < j < k < nL):
                raise ValueError(
                    "bracket key %r is not strictly increasing in range"
                    % ((i, j, k),))
            v = _sparse(val, nL)
            if v:
                self.bracket[(i, j, k)] = v

        self.amul = {}
        for (i, j), val in amul.items():
            if not (0 <= i <= j < nA):
                raise ValueError("amul key %r is not non-decreasing in range"
                                 % ((i, j),))
            v = _sparse(val, nA)
            if v:
                self.amul[(i, j)] = v

        self.action = {}
        for (ai, li), val in action.items():
            if not (0 <= ai < nA and 0 <= li < nL):
                raise ValueError("action key %r out of range" % ((ai, li),))
            v = _sparse(val, nL)
            if v:
                self.action[(ai, li)] = v

        self.rho = {}
        for (i, j, ak), val in rho.items():
            if not (0 <= i < nL and 0 <= j < nL and 0 <= ak < nA):
                raise ValueError("rho key %r out of range" % ((i, j, ak),))
            v = _sparse(val, nA)
            if v:
                self.rho[(i, j, ak)] = v

        self._basis_cache = {}

    # ---- basis-level products (dense vectors) ----

    def bracket_basis(self, i, j, k):
        cached = self._basis_cache.get(("b", i, j, k))
        if cached is not None:
            return cached
        if i == j or j == k or i == k:
            out = zero_vec(self.dim_L)
        else:
            sign, key = _perm_sign_and_sorted(i, j, k)
            entry = self.bracket.get(key)
            acc = [Fraction(0)] * self.dim_L
            if entry:
                for m, c in entry.items():
                    acc[m] = sign * c
            out = tuple(acc)
        self._basis_cache[("b", i, j, k)] = out
        return out

    def amul_basis(self, i, j):
        cached = self._basis_cache.get(("m", i, j))
        if cached is not None:
            return cached
        key = (i, j) if i <= j else (j, i)
        entry = self.amul.get(key)
        acc = [Fraction(0)] * self.dim_A
        if entry:
            for m, c in entry.items():
                acc[m] = c
        out = tuple(acc)
        self._basis_cache[("m", i, j)] = out
        return out

    def action_basis(self, ai, li):
        cached = self._basis_cache.get(("a", ai, li))
        if cached is not None:
            return cached
        entry = self.action.get((ai, li))
        acc = [Fraction(0)] * self.dim_L
        if entry:
            for m, c in entry.items():
                acc[m] = c
        out = tuple(acc)
        self._basis_cache[("a", ai, li)] = out
        return out

    def rho_basis(self, i, j, ak):
        cached = self._basis_cache.get(("r", i, j, ak))
        if cached is not None:
            return cached
        entry = self.rho.get((i, j, ak))
        acc = [Fraction(0)] * self.dim_A
        if entry:
            for m, c in entry.items():
                acc[m] = c
        out = tuple(acc)
        self._basis_cache[("r", i, j, ak)] = out
        return out

    # ---- multilinear evaluators ----

    def eval_bracket(self, x, y, z):
        assert len(x) == len(y) == len(z) == self.dim_L
        acc = [Fraction(0)] * self.dim_L
        bracket = self.bracket
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
                    entry = bracket.get(key)
                    if not entry:
                        continue
                    f = ab * c if sign > 0 else -ab * c
                    for m, cc in entry.items():
                        acc[m] += f * cc
        return vec(acc)

    def eval_amul(self, a, b):
        assert len(a) == len(b) == self.dim_A
        acc = [Fraction(0)] * self.dim_A
        for i, p in enumerate(a):
            if not p:
                continue
            for j, q in enumerate(b):
                if not q:
                    continue
                key = (i, j) if i <= j else (j, i)
                entry = self.amul.get(key)
                if not entry:
                    continue
                pq = p * q
                for m, c in entry.items():
                    acc[m] += pq * c
        return vec(acc)

    def eval_action(self, a, x):
        assert len(a) == self.dim_A and len(x) == self.dim_L
        acc = [Fraction(0)] * self.dim_L
        for i, p in enumerate(a):
            if not p:
                continue
            for j, q in enumerate(x):
                if not q:
                    continue
                entry = self.action.get((i, j))
                if not entry:
                    continue
                pq = p * q
                for m, c in entry.items():
                    acc[m] += pq * c
        return vec(acc)

    def eval_rho(self, x, y, a):
        assert len(x) == len(y) == self.dim_L and len(a) == self.dim_A
        acc = [Fraction(0)] * self.dim_A
        if not self.rho:
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
                    entry = self.rho.get((i, j, k))
                    if not entry:
                        continue
                    pqr = pq * r
                    for m, c in entry.items():
                        acc[m] += pqr * c
        return vec(acc)

    # ---- degree fibers ----

    def fiber(self, space, g):
        """Span of the basis vectors of the given degree; `space` is
        "L" or "A"."""
        basis = self.L if space == "L" else self.A
        n = len(basis)
        rows = [unit_vec(n, i) for i, d in enumerate(basis.degrees) if d == g]
        return Subspace(n, rows)

    def fiber_indices(self, space, g):
        basis = self.L if space == "L" else self.A
        return [i for i, d in enumerate(basis.degrees) if d == g]

    def L_unit(self, i):
        return unit_vec(self.dim_L, i)

    def A_unit(self, i):
        return unit_vec(self.dim_A, i)
