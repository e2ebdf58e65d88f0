"""Plain-list reference implementations used to cross-check the package.

Nothing here imports from nega3: vectors are lists of small ints, matrices
are lists of lists, and codes are enumerated word by word.  Obvious over
fast, so a disagreement with the packed implementations points at them.
"""

import collections
import itertools
from math import comb


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


def row_conj(m, a):
    """Each width-m block of a first row conjugated (nega_conj)."""
    return [e for t in range(3) for e in nega_conj(a[t * m:(t + 1) * m])]


def ring_cross(m, a, b):
    """The cross product a x b of two first rows over F_3[x]/(x^m + 1):
    block t is a_(t+1) b_(t+2) - a_(t+2) b_(t+1), block indices mod 3."""
    blocks_a = [a[t * m:(t + 1) * m] for t in range(3)]
    blocks_b = [b[t * m:(t + 1) * m] for t in range(3)]
    out = []
    for t in range(3):
        s, u = (t + 1) % 3, (t + 2) % 3
        out += vadd(nega_mul(blocks_a[s], blocks_b[u]), vneg(nega_mul(blocks_a[u], blocks_b[s])))
    return out


def ring_scale(m, u, a):
    """The ring element u times each width-m block of a first row."""
    return [e for t in range(3) for e in nega_mul(u, a[t * m:(t + 1) * m])]


def plane(v, value):
    """The bit plane of v for one entry value, as an integer: bit i is set
    where entry i equals value."""
    return sum(1 << i for i, x in enumerate(v) if x == value)


def f_value(v):
    return sum(x * 3**i for i, x in enumerate(v))


def vector_from_f(f, width):
    """The width-long vector whose f-value is f."""
    return [(f // 3**i) % 3 for i in range(width)]


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


def rref(rows):
    """The nonzero rows of the reduced echelon form, columns scanned left to
    right and pivots scaled to 1: the canonical basis of the row space."""
    rs = [list(r) for r in rows]
    top = 0
    for col in range(len(rs[0]) if rs else 0):
        piv = next((i for i in range(top, len(rs)) if rs[i][col]), None)
        if piv is None:
            continue
        rs[top], rs[piv] = rs[piv], rs[top]
        rs[top] = vscale(rs[top], rs[top][col])  # 1 and 2 are their own inverses mod 3
        for i in range(len(rs)):
            if i != top and rs[i][col]:
                rs[i] = vadd(rs[i], vscale(rs[top], -rs[i][col] % 3))
        top += 1
    return rs[:top]


def pivot(v):
    return next(c for c, x in enumerate(v) if x)


def greedy_sets(basis):
    """The information sets of the code spanned by basis by the greedy rule,
    as (rows, pivots, deficit): the reduced basis, then the reductions with
    the columns not yet used scanned first, for as long as that finds new
    pivots.  rows is that reduction, in the code's column order, pivots its
    pivots in the order found, and deficit the number of them an earlier
    set already used.  For a self-dual code these are the two systematic
    forms on complementary columns that the covering scan takes."""
    n = len(basis[0])
    order, used, sets = list(range(n)), [], []
    while True:
        reduced = rref([[r[c] for c in order] for r in basis])
        rows = [[0] * n for _ in reduced]
        for row, r in zip(rows, reduced):
            for c, x in zip(order, r):
                row[c] = x
        pivots = [order[pivot(r)] for r in reduced]
        new = [p for p in pivots if p not in used]
        if not new:
            return sets
        sets.append((rows, pivots, len(pivots) - len(new)))
        used += new
        fresh = [c for c in range(n) if c not in used]
        if not fresh:
            return sets
        order = fresh + sorted(used)


def orbit_width(basis):
    """The block width b = n/6 when the covering scan of the code spanned by
    basis may walk one support per orbit of sigma, the simultaneous
    negashift of its six width-b blocks; else 0.  Past the shape (b at
    least 2, at most 64 rows) that takes two checks: sigma maps each row of
    the reduced basis to plus or minus the row whose pivot is the rotated
    pivot, so it is an automorphism, and the greedy pivots are whole blocks,
    each in column order."""
    rows = rref(basis)
    n, b = len(rows[0]), len(rows[0]) // 6
    if n % 6 or b < 2 or len(rows) > 64:
        return 0
    by_pivot = {pivot(r): r for r in rows}
    for p, r in by_pivot.items():
        image = [x for t in range(6) for x in negashift(r[t * b:(t + 1) * b])]
        q = by_pivot.get(p - p % b + (p + 1) % b)
        if q is None or image not in (q, vneg(q)):
            return 0
    whole = all(len(s) % b == 0 and all(s[i] % b == 0 and s[i:i + b] == list(range(s[i], s[i] + b))
                                        for i in range(0, len(s), b))
                for _, s, _ in greedy_sets(rows))
    return b if whole else 0


def neighbor(basis, x):
    """The canonical basis of <x> + (C & x^perp), C the self-dual code
    spanned by basis and x a self-orthogonal vector outside it: the rows
    orthogonal to x, each other row b made orthogonal to x with the first
    such row p, as b - (b.x / p.x) p, and x itself, reduced from scratch."""
    kept = [b for b in basis if not vdot(b, x)]
    crossing = [b for b in basis if vdot(b, x)]
    p = crossing[0]
    for b in crossing[1:]:
        kept.append(vadd(b, vscale(p, -vdot(b, x) * vdot(p, x) % 3)))  # 1 / s = s mod 3
    return rref(kept + [x])


def codewords(basis):
    """All 3^k words spanned by the basis, as tuples, in the order of
    itertools.product over the coefficients: each word of the first j rows
    plus 0, 1 and 2 times row j."""
    if not basis:
        return [()]
    out = [tuple([0] * len(basis[0]))]
    for b in basis:
        multiples = [vscale(b, c) for c in range(3)]
        out = [tuple(vadd(v, u)) for v in out for u in multiples]
    return out


def distribution(basis):
    counts = {}
    for w in codewords(basis):
        wt = vweight(w)
        counts[wt] = counts.get(wt, 0) + 1
    return counts


def min_weight(basis):
    return min(vweight(w) for w in codewords(basis) if any(w))


def unrank_combination(k, j, rank):
    """The j-subset of range(k) of lexicographic rank rank, element by
    element: while rank is at least the C(k - 1 - a, j - 1 - i) subsets that
    hold a at position i, skip them and try a + 1."""
    out, a = [], 0
    for i in range(j):
        while rank >= comb(k - 1 - a, j - 1 - i):
            rank -= comb(k - 1 - a, j - 1 - i)
            a += 1
        out.append(a)
        a += 1
    return tuple(out)


def walk_supports(rows, j, width):
    """The words the covering scan walks at message support size j under
    the basis rows, as a Counter of (support mask, mult): every message
    whose first nonzero coefficient is 1, one word at a time.  With a width,
    only message supports least among their rotations within each
    width-wide block of rows are taken, as bit masks, each with its orbit
    size as mult; without one, every support with mult 1."""
    counts = collections.Counter()
    for combo in itertools.combinations(range(len(rows)), j):
        mult = 1
        if width:
            orbit = {sum(1 << (i - i % width + (i + r) % width) for i in combo) for r in range(width)}
            if sum(1 << i for i in combo) != min(orbit):
                continue
            mult = len(orbit)
        for signs in itertools.product((1, 2), repeat=j - 1):
            word = rows[combo[0]]
            for c, i in zip(signs, combo[1:]):
                word = vadd(word, vscale(rows[i], c))
            counts[sum(1 << col for col, x in enumerate(word) if x), mult] += 1
    return counts


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


def dual_basis(rows, width):
    """A basis of the vectors orthogonal to every row, echelonized from the
    high end: for each non-pivot column c of the reduced rows, highest
    first, the vector with 1 at c and minus the column's entry of each
    reduced row at that row's pivot."""
    reduced, pivots = [], []
    for r in rows:
        r = list(r)
        for p, u in zip(pivots, reduced):
            if r[p]:
                r = vadd(r, vscale(u, -r[p] % 3))
        col = next((c for c, x in enumerate(r) if x), None)
        if col is None:
            continue
        r = vscale(r, r[col])  # 1 and 2 are their own inverses mod 3
        reduced = [vadd(u, vscale(r, -u[col] % 3)) if u[col] else u for u in reduced]
        reduced.append(r)
        pivots.append(col)
    basis = []
    for c in reversed(range(width)):
        if c in pivots:
            continue
        v = [0] * width
        v[c] = 1
        for p, u in zip(pivots, reduced):
            v[p] = -u[c] % 3
        basis.append(v)
    return basis


def ascending_dual(rows, width, limit):
    """The nonzero vectors orthogonal to every row with f-value at most
    limit, in ascending f order: a base-3 odometer over the coefficients of
    dual_basis(rows, width), least significant digit on its last row,
    stopped at the first vector past limit."""
    basis = dual_basis(rows, width)
    t = len(basis)
    digits = [0] * t
    v = [0] * width
    for _ in range(3**t - 1):
        j = 0
        while digits[j] == 2:  # 2 -> 0 adds the row once more
            digits[j] = 0
            v = vadd(v, basis[t - 1 - j])
            j += 1
        digits[j] += 1
        v = vadd(v, basis[t - 1 - j])
        if f_value(v) > limit:
            return
        yield v


def combination(rows, k, width):
    """Combination number k of the rows: digit j of k, least significant
    first, is the coefficient of rows[j]."""
    v = [0] * width
    for row in rows:
        v = vadd(v, vscale(row, k % 3))
        k //= 3
    return v


def bisect_count(f_of, size, limit):
    """How many counter values 0 <= k < size have f_of(k) <= limit, for
    f_of strictly rising in k with f_of(0) <= limit: bisection over the
    counter, the search's count of dual members before its closed form."""
    lo, hi = 1, size  # values below lo pass, from hi on fail
    while lo < hi:
        mid = (lo + hi) // 2
        if f_of(mid) <= limit:
            lo = mid + 1
        else:
            hi = mid
    return lo


def exhaustive_unit(m, r1, d):
    """The (r1, r2, r3) triples of one exhaustive search unit, in order:
    r2 runs over the dual of r1's block rows and r3 over the dual of r1's
    and r2's block rows, each in ascending f order up to the f-value of the
    row before, keeping the rows with a leading 1, weight 2 mod 3 and at
    least d - 1 and the diagonal Gram identity.  An r1 without that
    identity, or whose rows (e_i | block row i) span a word of weight below
    d, has none."""
    width = 3 * m

    def gram_is_two(v):
        return row_pair_gram(m, v, v) == [2] + [0] * (m - 1)

    def admissible(v):
        w = vweight(v)
        return leads_with_one(v) and w % 3 == 2 and w >= d - 1 and gram_is_two(v)

    span1 = block_rows(m, r1)
    subcode = [[int(j == i) for j in range(width)] + u for i, u in enumerate(span1)]
    if not gram_is_two(r1) or min_weight(subcode) < d:
        return
    for r2 in ascending_dual(span1, width, f_value(r1)):
        if not admissible(r2):
            continue
        for r3 in ascending_dual(span1 + block_rows(m, r2), width, f_value(r2)):
            if admissible(r3):
                yield [list(r1), r2, r3]


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


def column_move(m, rows, units=(1, 1, 1), perm=(0, 1, 2)):
    """Three first rows with block column p scaled by units[p], then the
    columns reordered so that column q is old column perm[q]."""
    return [sum((vscale(r[p * m:(p + 1) * m], units[p]) for p in perm), []) for r in rows]


def row_move(rows, units=(1, 1, 1), perm=(0, 1, 2)):
    """Three first rows with row k scaled by units[k], then reordered so
    that row q is old row perm[q]."""
    return [vscale(rows[k], units[k]) for k in perm]


def block_moves(m, rows):
    """The images of three first rows under all 2,304 block moves: a
    column move, then a row move."""
    for col_units in itertools.product((1, 2), repeat=3):
        for col_perm in itertools.permutations(range(3)):
            cols = column_move(m, rows, col_units, col_perm)
            for row_units in itertools.product((1, 2), repeat=3):
                for row_perm in itertools.permutations(range(3)):
                    yield row_move(cols, row_units, row_perm)


def in_walk_form(m, rows):
    """The exhaustive walk's row form: r1's blocks each zero or leading
    with 1, in non-increasing f order; r2 and r3 nonzero and leading with 1;
    f(r3) < f(r2) <= f(r1)."""
    r1, r2, r3 = rows
    fb = [f_value(r1[j * m:(j + 1) * m]) for j in range(3)]
    return (all(leads_with_one(r1[j * m:(j + 1) * m]) for j in range(3))
            and fb[0] >= fb[1] >= fb[2]
            and any(r2) and any(r3) and leads_with_one(r2) and leads_with_one(r3)
            and f_value(r3) < f_value(r2) <= f_value(r1))


def walk_form(m, rows):
    """The image in walk form least in (f(r1), f(r2), f(r3)) among all
    block moves of rows, or None when no move reaches the form."""
    forms = (img for img in block_moves(m, rows) if in_walk_form(m, img))
    return min(forms, key=lambda img: [f_value(r) for r in img], default=None)

