"""Plain-list reference implementations used to cross-check the package.

Nothing here imports from nega3: vectors are lists of small ints, matrices
are lists of lists, and codes are enumerated word by word.  Obvious over
fast, so a disagreement with the packed implementations points at them.
"""

import itertools


def vadd(a, b):
    return [(x + y) % 3 for x, y in zip(a, b)]


def vneg(a):
    return [(-x) % 3 for x in a]


def vscale(a, c):
    return [(c * x) % 3 for x in a]


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b)) % 3


def vweight(a):
    return sum(1 for x in a if x)


def negashift(v):
    """Cyclic right shift with the wrapped entry negated."""
    return [(-v[-1]) % 3] + list(v[:-1])


def nega_conj(p):
    """p(x^-1) in F_3[x]/(x^n + 1), where x^-1 = -x^(n-1)."""
    n = len(p)
    return [p[0]] + [(-p[n - i]) % 3 for i in range(1, n)]


def nega_mul(a, b):
    """The product of a and b in F_3[x]/(x^n + 1), by list convolution."""
    n = len(a)
    conv = [0] * (2 * n)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return [(conv[t] - conv[t + n]) % 3 for t in range(n)]


def row_pair_gram(m, a, b):
    """sum_t a_t * b_t^* over the three width-m blocks of two first rows."""
    acc = [0] * m
    for t in range(3):
        prod = nega_mul(a[t * m:(t + 1) * m], nega_conj(b[t * m:(t + 1) * m]))
        acc = vadd(acc, prod)
    return acc


def f_value(v):
    return sum(x * 3**i for i, x in enumerate(v))


def rank(rows):
    """Rank over GF(3) by textbook elimination."""
    rs = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rs)) if rs[i][col]), None)
        if piv is None:
            continue
        rs[r], rs[piv] = rs[piv], rs[r]
        inv = rs[r][col]  # 1 and 2 are their own inverses mod 3
        rs[r] = vscale(rs[r], inv)
        for i in range(len(rs)):
            if i != r and rs[i][col]:
                rs[i] = vadd(rs[i], vscale(rs[r], -rs[i][col] % 3))
        r += 1
    return r


def codewords(basis):
    """All 3^k words spanned by the basis, as tuples."""
    if not basis:
        return [()]
    n = len(basis[0])
    out = []
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                v = vadd(v, vscale(b, c))
        out.append(tuple(v))
    return out


def distribution(basis):
    counts = {}
    for w in codewords(basis):
        wt = vweight(w)
        counts[wt] = counts.get(wt, 0) + 1
    return counts


def min_weight(basis):
    return min(vweight(w) for w in codewords(basis) if any(w))


def gram_is_zero(rows):
    return all(vdot(a, b) == 0 for a in rows for b in rows)


def spec_generator_rows(m, r1, r2, r3):
    """The 3m rows of (I | M) for first rows r1, r2, r3 (plain lists)."""
    rows = []
    for i, r in enumerate((r1, r2, r3)):
        blocks = [list(r[j * m:(j + 1) * m]) for j in range(3)]
        for s in range(m):
            left = [0] * (3 * m)
            left[i * m + s] = 1
            rows.append(left + blocks[0] + blocks[1] + blocks[2])
            blocks = [negashift(b) for b in blocks]
    return rows


def spec_is_self_dual(m, r1, r2, r3):
    return gram_is_zero(spec_generator_rows(m, r1, r2, r3))


def block_rows(m, r):
    """The m rows of the 1 x 3 block matrix expanded from the first row r."""
    blocks = [list(r[j * m:(j + 1) * m]) for j in range(3)]
    out = []
    for _ in range(m):
        out.append(blocks[0] + blocks[1] + blocks[2])
        blocks = [negashift(b) for b in blocks]
    return out


def leads_with_one(v):
    nz = [x for x in v if x]
    return not nz or nz[0] == 1


def conditions(m, rows, d):
    """Transliteration of the canonical-form constraints on 1 to 3 rows."""
    for r in rows:
        w = vweight(r)
        if w % 3 != 2 or w < d - 1:
            return False
    r1 = rows[0]
    blocks = [list(r1[j * m:(j + 1) * m]) for j in range(3)]
    if not all(leads_with_one(b) for b in blocks):
        return False
    fb = [f_value(b) for b in blocks]
    if not fb[0] >= fb[1] >= fb[2]:
        return False
    for r in rows[1:]:
        if not leads_with_one(r):
            return False
    fs = [f_value(r) for r in rows]
    if any(fs[i] < fs[i + 1] for i in range(len(fs) - 1)):
        return False
    if len(rows) >= 2 and any(vdot(rows[1], u) for u in block_rows(m, r1)):
        return False
    if len(rows) == 3:
        span = block_rows(m, r1) + block_rows(m, rows[1])
        if any(vdot(rows[2], u) for u in span):
            return False
    return True


def reduced_space_findings(m, d):
    """Brute-force the whole reduced space at block size m: every triple
    passing the structural constraints, checked for self-duality by direct
    Gram computation and for minimum weight by full enumeration.

    Returns (structural, verified): structural is the list of candidate
    (r1, r2, r3) tuples, verified keeps those that generate a self-dual
    code with minimum weight exactly d.  Only sane for m = 1 or 2.
    """
    width = 3 * m
    pool = []
    for f in range(3**m):
        v = [(f // 3**i) % 3 for i in range(m)]
        if leads_with_one(v):
            pool.append(v)
    every = [[(f // 3**i) % 3 for i in range(width)] for f in range(3**width)]

    structural = []
    verified = []
    for bz, by, bx in itertools.combinations_with_replacement(pool, 3):
        r1 = bx + by + bz  # non-increasing f left to right
        if not conditions(m, (r1,), d):
            continue
        f1 = f_value(r1)
        for r2 in every:
            if f_value(r2) > f1 or not conditions(m, (r1, r2), d):
                continue
            f2 = f_value(r2)
            for r3 in every:
                if f_value(r3) > f2 or not conditions(m, (r1, r2, r3), d):
                    continue
                structural.append((tuple(r1), tuple(r2), tuple(r3)))
                gen = spec_generator_rows(m, r1, r2, r3)
                if gram_is_zero(gen) and min_weight(gen) == d:
                    verified.append((tuple(r1), tuple(r2), tuple(r3)))
    return structural, verified
