"""Reference copy of the connection searches and replays, kept as a test
oracle.

These are the two breadth-first searches and the two replays that
`g3lr.connections` ran before both chain rules were written once, as a
table read by one search and one replay: each rule here is spelled out
by hand, once in its search and once in its replay.  The differential
test in `test_connections.py` asserts that both give the same classes,
witness chains, connection answers and replay verdicts.
"""

from g3lr.connections import ConnectionClass
from g3lr.groups import product_many


def _alphabet(supports):
    return supports.sigma | supports.lambda_ | {supports.group.identity()}


def _sigma_search(supports, g):
    sigma = supports.sigma
    mid_ok = supports.sigma | supports.lambda_
    alpha = sorted(_alphabet(supports), key=lambda e: e.coords)
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
    if g not in supports.sigma1 or h not in supports.sigma1:
        raise ValueError("arguments must lie in the L-support")
    chains = _sigma_search(supports, g)
    for target in (h, h.inv()):
        if target in chains:
            return chains[target]
    return None


def _lambda_search(supports, lam):
    lam_set = supports.lambda_
    alpha = sorted(_alphabet(supports), key=lambda e: e.coords)
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
    return _classes(supports, supports.sigma1, _sigma_search, "sigma")


def lambda_classes(supports):
    return _classes(supports, supports.lambda1, _lambda_search, "lambda")


def replay_sigma_chain(supports, chain, g, h):
    if len(chain) % 2 != 1 or not chain:
        return False
    if chain[0] != g:
        return False
    alpha = _alphabet(supports)
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
    alpha = _alphabet(supports)
    if any(e not in alpha for e in chain):
        return False
    for stop in range(1, len(chain)):
        partial = product_many(supports.group, chain[:stop])
        if partial not in supports.lambda_:
            return False
    total = product_many(supports.group, chain)
    return total in (mu, mu.inv())
