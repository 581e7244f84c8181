"""Support sets of the grading and the connection equivalence classes
they carry, with explicit witness chains.

A chain from g to h on the L-side has odd length 2n+1, starts at g,
keeps every odd partial product g1 g2 g3, g1...g5, ..., g1...g_{2n-1}
inside Sigma, keeps every even partial product g1 g2, g1...g4, ...
inside Sigma u Lambda, and its total product lands on h or h^{-1}.
Without the even-prefix condition the relation degenerates: the chain
{g, g^{-1}, h} would connect every pair outright, every support would
collapse to a single class, and the uniqueness of the class pairing on
well-behaved instances would fail.  Constraining the even prefixes
blocks exactly that cancellation, the same way passing through the
identity is blocked in chains built one element at a time.  On the
A-side chains do grow one element at a time and every proper partial
product stays inside Lambda.  In both cases the search alphabet is the
finite set Sigma u Lambda u {1} computed from the instance, and the
breadth-first state space is a subset of that finite set plus the two
targets, so the search always terminates.
"""

from dataclasses import dataclass

from .groups import product_many


@dataclass(frozen=True)
class SupportSets:
    group: object
    sigma1: frozenset
    lambda1: frozenset

    @property
    def sigma(self):
        return self.sigma1 | frozenset(g.inv() for g in self.sigma1)

    @property
    def lambda_(self):
        return self.lambda1 | frozenset(l.inv() for l in self.lambda1)

    def alphabet(self):
        return self.sigma | self.lambda_ | {self.group.identity()}


@dataclass
class ConnectionClass:
    representative: object
    members: frozenset
    kind: str                  # "sigma" or "lambda"
    witnesses: dict            # member -> chain (tuple of GroupElem)


def compute_supports(alg):
    """The non-identity degrees of the basis vectors; every degree
    listed there has a nonempty fiber."""
    return SupportSets(
        alg.group,
        frozenset(d for d in alg.L.degrees if not d.is_identity()),
        frozenset(d for d in alg.A.degrees if not d.is_identity()))


def _sigma_search(supports, g):
    """Breadth-first closure from g.  States are odd partial products
    lying in Sigma; a transition appends two alphabet elements and its
    midpoint (the even partial product) must lie in Sigma u Lambda.
    Returns {state: chain} for every reachable state in Sigma."""
    sigma = supports.sigma
    mid_ok = supports.sigma | supports.lambda_
    alpha = sorted(supports.alphabet(), key=lambda e: e.coords)
    chains = {g: (g,)}
    frontier = [g]
    while frontier:
        nxt = []
        for s in frontier:
            for u in alpha:
                su = s.mul(u)
                if su not in mid_ok:
                    continue
                for v in alpha:
                    suv = su.mul(v)
                    if suv in sigma and suv not in chains:
                        chains[suv] = chains[s] + (u, v)
                        nxt.append(suv)
        frontier = nxt
    return chains


def sigma_connected(supports, g, h):
    """A connection chain from g to h, or None.  Chains found are
    minimal in length for the breadth-first order; any chain satisfying
    the partial-product conditions is equally valid."""
    if g not in supports.sigma1 or h not in supports.sigma1:
        raise ValueError("arguments must lie in the L-support")
    chains = _sigma_search(supports, g)
    for target in (h, h.inv()):
        if target in chains:
            return chains[target]
    return None


def _lambda_search(supports, lam):
    lam_set = supports.lambda_
    alpha = sorted(supports.alphabet(), key=lambda e: e.coords)
    chains = {lam: (lam,)}
    frontier = [lam]
    while frontier:
        nxt = []
        for s in frontier:
            for u in alpha:
                su = s.mul(u)
                if su in lam_set and su not in chains:
                    chains[su] = chains[s] + (u,)
                    nxt.append(su)
        frontier = nxt
    return chains


def lambda_connected(supports, lam, mu):
    if lam not in supports.lambda1 or mu not in supports.lambda1:
        raise ValueError("arguments must lie in the A-support")
    chains = _lambda_search(supports, lam)
    for target in (mu, mu.inv()):
        if target in chains:
            return chains[target]
    return None


def _classes(supports, members, search, kind):
    order = sorted(members, key=lambda e: e.coords)
    seen = set()
    out = []
    for g in order:
        if g in seen:
            continue
        chains = search(supports, g)
        cls_members = set()
        witnesses = {}
        for h in order:
            for target in (h, h.inv()):
                if target in chains:
                    cls_members.add(h)
                    witnesses[h] = chains[target]
                    break
        seen |= cls_members
        out.append(ConnectionClass(g, frozenset(cls_members), kind,
                                   witnesses))
    return out


def sigma_classes(supports):
    """Partition of the L-support into connection classes; empty
    support gives the empty partition."""
    return _classes(supports, supports.sigma1, _sigma_search, "sigma")


def lambda_classes(supports):
    return _classes(supports, supports.lambda1, _lambda_search, "lambda")


def replay_sigma_chain(supports, chain, g, h):
    """Check a chain against the defining conditions: odd length,
    starts at g, elements in the alphabet, odd proper partial products
    in Sigma, even partial products in Sigma u Lambda (the
    non-degeneracy condition, see the module docstring), total product
    h or h^{-1}."""
    if len(chain) % 2 != 1 or not chain:
        return False
    if chain[0] != g:
        return False
    alpha = supports.alphabet()
    if any(e not in alpha for e in chain):
        return False
    mid_ok = supports.sigma | supports.lambda_
    for stop in range(2, len(chain), 2):
        partial = product_many(supports.group, chain[:stop])
        if partial not in mid_ok:
            return False
    for stop in range(3, len(chain), 2):
        partial = product_many(supports.group, chain[:stop])
        if partial not in supports.sigma:
            return False
    total = product_many(supports.group, chain)
    return total in (h, h.inv())


def replay_lambda_chain(supports, chain, lam, mu):
    if not chain or chain[0] != lam:
        return False
    alpha = supports.alphabet()
    if any(e not in alpha for e in chain):
        return False
    for stop in range(1, len(chain)):
        partial = product_many(supports.group, chain[:stop])
        if partial not in supports.lambda_:
            return False
    total = product_many(supports.group, chain)
    return total in (mu, mu.inv())
