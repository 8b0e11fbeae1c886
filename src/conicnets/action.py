"""The projectivity group of PG(2,q) acting on PG(5,q), q even.

A projectivity with matrix A acts on symmetric 3x3 matrices by congruence
M -> A M A^T; reading points of PG(5,q) as symmetric matrices, this lifts A
to a 6x6 matrix L with L . vec(M) = vec(A M A^T).  The lift is a group
homomorphism up to scalars and commutes with the Veronese embedding:
lift(A) maps the image of p to the image of A p.

Matrices of PG(2,q) projectivities are flat 9-tuples (row-major),
normalized so the first nonzero entry is 1.  Orbits of subspaces are
enumerated by breadth-first closure under a fixed generating set, with the
packed RREF basis as hash key; stabilizer orders follow from the
orbit-stabilizer identity and, for small q, can be cross-checked by
filtering the full group.
"""

from __future__ import annotations

from .errors import ResourceBudgetError, VerificationError
from .gf import GF
from .projgeom import Subspace, pack_rows
from .veronese import sym_matrix

IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def pgl_order(q: int) -> int:
    gl = (q**3 - 1) * (q**3 - q) * (q**3 - q * q)
    return gl // (q - 1)


def as_flat3(a) -> tuple[int, ...]:
    if len(a) == 9:
        return tuple(a)
    return tuple(v for row in a for v in row)


def normalize_mat3(gf: GF, a) -> tuple[int, ...]:
    a = as_flat3(a)
    for v in a:
        if v:
            if v != 1:
                m = gf._mul[gf._inv[v]]
                a = tuple(m[x] for x in a)
            return a
    raise ValueError("zero matrix is not a projectivity")


def mat3_mul(gf: GF, a, b) -> tuple[int, ...]:
    mul = gf._mul
    a, b = as_flat3(a), as_flat3(b)
    out = []
    for i in (0, 3, 6):
        a0, a1, a2 = a[i], a[i + 1], a[i + 2]
        for j in (0, 1, 2):
            out.append(mul[a0][b[j]] ^ mul[a1][b[3 + j]] ^ mul[a2][b[6 + j]])
    return tuple(out)


def mat3_det(gf: GF, a) -> int:
    mul = gf._mul
    a = as_flat3(a)
    return (
        mul[a[0]][mul[a[4]][a[8]] ^ mul[a[5]][a[7]]]
        ^ mul[a[1]][mul[a[3]][a[8]] ^ mul[a[5]][a[6]]]
        ^ mul[a[2]][mul[a[3]][a[7]] ^ mul[a[4]][a[6]]]
    )


def mat3_inv(gf: GF, a) -> tuple[int, ...]:
    mul, inv = gf._mul, gf._inv
    a = as_flat3(a)
    d = mat3_det(gf, a)
    if d == 0:
        raise ValueError("singular matrix has no inverse")
    di = inv[d]
    m = mul
    adj = (
        m[a[4]][a[8]] ^ m[a[5]][a[7]], m[a[2]][a[7]] ^ m[a[1]][a[8]], m[a[1]][a[5]] ^ m[a[2]][a[4]],
        m[a[5]][a[6]] ^ m[a[3]][a[8]], m[a[0]][a[8]] ^ m[a[2]][a[6]], m[a[2]][a[3]] ^ m[a[0]][a[5]],
        m[a[3]][a[7]] ^ m[a[4]][a[6]], m[a[1]][a[6]] ^ m[a[0]][a[7]], m[a[0]][a[4]] ^ m[a[1]][a[3]],
    )
    return tuple(m[di][v] for v in adj)


def act_point_pg2(gf: GF, a, p) -> tuple[int, ...]:
    """Image of a PG(2,q) point under the column action p -> A p, normalized."""
    mul = gf._mul
    a = as_flat3(a)
    x, y, z = p
    img = (
        mul[a[0]][x] ^ mul[a[1]][y] ^ mul[a[2]][z],
        mul[a[3]][x] ^ mul[a[4]][y] ^ mul[a[5]][z],
        mul[a[6]][x] ^ mul[a[7]][y] ^ mul[a[8]][z],
    )
    for v in img:
        if v:
            if v != 1:
                m = gf._mul[gf._inv[v]]
                img = tuple(m[t] for t in img)
            return img
    raise ValueError("projectivity matrix was singular")


def lift(gf: GF, a) -> tuple[tuple[int, ...], ...]:
    """The 6x6 matrix of the congruence action M -> A M A^T on vec(M)."""
    a = as_flat3(a)
    arows = (a[0:3], a[3:6], a[6:9])
    mul = gf._mul
    cols = []
    for j in range(6):
        y = [0] * 6
        y[j] = 1
        msym = sym_matrix(y)
        am = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for k in range(3):
                acc = 0
                for t in range(3):
                    acc ^= mul[arows[i][t]][msym[t][k]]
                am[i][k] = acc
        out = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for k in range(3):
                acc = 0
                for t in range(3):
                    acc ^= mul[am[i][t]][arows[k][t]]
                out[i][k] = acc
        cols.append((out[0][0], out[0][1], out[0][2], out[1][1], out[1][2], out[2][2]))
    return tuple(tuple(cols[j][i] for j in range(6)) for i in range(6))


def lift_transpose(gf: GF, a) -> tuple[tuple[int, ...], ...]:
    l = lift(gf, a)
    return tuple(tuple(l[i][j] for i in range(6)) for j in range(6))


def act_point(gf: GF, l, y) -> tuple[int, ...]:
    """Image of a PG(5,q) point under a lifted 6x6 matrix, normalized."""
    mul = gf._mul
    img = []
    for i in range(6):
        row = l[i]
        acc = 0
        for j in range(6):
            if y[j] and row[j]:
                acc ^= mul[y[j]][row[j]]
        img.append(acc)
    for v in img:
        if v:
            if v != 1:
                m = gf._mul[gf._inv[v]]
                img = [m[t] for t in img]
            return tuple(img)
    raise ValueError("lifted matrix was singular")


def _act_rows(gf: GF, lt, rows):
    """Apply a lifted matrix (given transposed) to basis rows; RREF result."""
    mul = gf._mul
    out = []
    for r in rows:
        acc = [0, 0, 0, 0, 0, 0]
        for j in range(6):
            v = r[j]
            if v:
                ltj = lt[j]
                mv = mul[v]
                acc[0] ^= mv[ltj[0]]
                acc[1] ^= mv[ltj[1]]
                acc[2] ^= mv[ltj[2]]
                acc[3] ^= mv[ltj[3]]
                acc[4] ^= mv[ltj[4]]
                acc[5] ^= mv[ltj[5]]
        out.append(acc)
    return _rref_rows_inplace(gf, out)


def _rref_rows_inplace(gf: GF, rows):
    mul, inv = gf._mul, gf._inv
    n = len(rows)
    r = 0
    for c in range(6):
        pr = None
        for i in range(r, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        a = prow[c]
        if a != 1:
            mia = mul[inv[a]]
            for j in range(c, 6):
                prow[j] = mia[prow[j]]
        for i in range(n):
            if i != r and rows[i][c]:
                mf = mul[rows[i][c]]
                row = rows[i]
                for j in range(c, 6):
                    row[j] ^= mf[prow[j]]
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in rows[:r])


def act_subspace(s: Subspace, a) -> Subspace:
    lt = lift_transpose(s.gf, a)
    return Subspace(s.gf, s.n, _act_rows(s.gf, lt, s.rows))


# -- generators and group closure ----------------------------------------


def generators(gf: GF) -> tuple[tuple[int, ...], ...]:
    """Two elementary transvections, a primitive diagonal, a coordinate cycle.

    The degenerate duplicates that appear at q=2 (the diagonal collapses to
    the identity) are dropped.  Certified by closure size for small q.
    """
    g = gf.primitive_element()
    cand = [
        (1, 1, 0, 0, 1, 0, 0, 0, 1),
        (1, 0, 0, 1, 1, 0, 0, 0, 1),
        (g, 0, 0, 0, 1, 0, 0, 0, 1),
        (0, 0, 1, 1, 0, 0, 0, 1, 0),
    ]
    out = []
    for m in cand:
        m = normalize_mat3(gf, m)
        if m != IDENTITY3 and m not in out:
            out.append(m)
    return tuple(out)


def mulclose(gf: GF, gens, limit: int | None = None) -> set[tuple[int, ...]]:
    """Closure of a generating set under products, all elements normalized."""
    gens = [normalize_mat3(gf, g) for g in gens]
    seen = {IDENTITY3}
    seen.update(gens)
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = normalize_mat3(gf, mat3_mul(gf, x, g))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if limit is not None and len(seen) > limit:
                        raise ResourceBudgetError(
                            "group closure exceeded %d elements" % limit,
                            partial=len(seen),
                        )
        frontier = new
    return seen


_PGL_CACHE: dict[GF, set[tuple[int, ...]]] = {}


def pgl_elements(gf: GF) -> set[tuple[int, ...]]:
    """The full projectivity group as normalized matrices (practical q <= 4)."""
    if gf not in _PGL_CACHE:
        els = mulclose(gf, generators(gf))
        if len(els) != pgl_order(gf.q):
            raise VerificationError(
                "generator closure has %d elements, expected %d"
                % (len(els), pgl_order(gf.q))
            )
        _PGL_CACHE[gf] = els
    return _PGL_CACHE[gf]


def certify_generators(gf: GF) -> int:
    """Closure size of the generating set; raises unless it equals the
    projectivity group order."""
    return len(pgl_elements(gf))


# -- orbits ----------------------------------------------------------------


def _lifted_transposes(gf: GF):
    return [lift_transpose(gf, g) for g in generators(gf)]


def orbit_keys(s: Subspace, max_keys: int | None = None) -> set[int]:
    """Packed keys of the full orbit of s, by breadth-first closure."""
    gf = s.gf
    lts = _lifted_transposes(gf)
    e = gf.e
    start = [list(r) for r in s.rows]
    k0 = pack_rows(gf, s.rows)
    seen = {k0}
    frontier = [tuple(tuple(r) for r in start)]
    while frontier:
        new = []
        for rows in frontier:
            for lt in lts:
                img = _act_rows(gf, lt, rows)
                k = 0
                for row in img:
                    for v in row:
                        k = (k << e) | v
                if k not in seen:
                    seen.add(k)
                    if max_keys is not None and len(seen) > max_keys:
                        raise ResourceBudgetError(
                            "orbit enumeration exceeded %d keys" % max_keys,
                            partial=len(seen),
                        )
                    new.append(img)
        frontier = new
    return seen


def stabilizer_order(s: Subspace, max_keys: int | None = None) -> int:
    """|stabilizer| via the orbit-stabilizer identity."""
    size = len(orbit_keys(s, max_keys=max_keys))
    total = pgl_order(s.gf.q)
    if total % size:
        raise VerificationError(
            "orbit size %d does not divide the group order %d" % (size, total)
        )
    return total // size


def stabilizer_order_direct(s: Subspace) -> int:
    """|stabilizer| by filtering the full group; practical for q <= 4."""
    gf = s.gf
    target = s.rows
    count = 0
    for g in pgl_elements(gf):
        if _act_rows(gf, lift_transpose(gf, g), target) == target:
            count += 1
    return count


def k_equivalent(s1: Subspace, s2: Subspace, max_keys: int | None = None) -> bool:
    """Same orbit?  Cheap invariants first, then BFS from s1 watching for s2."""
    if s1.gf != s2.gf or s1.n != s2.n:
        raise ValueError("subspaces live in different spaces")
    if len(s1.rows) != len(s2.rows):
        return False
    from .invariants import nucleus_meet_dim, point_class_counts

    if nucleus_meet_dim(s1) != nucleus_meet_dim(s2):
        return False
    if point_class_counts(s1) != point_class_counts(s2):
        return False
    gf = s1.gf
    target = pack_rows(gf, s2.rows)
    lts = _lifted_transposes(gf)
    e = gf.e
    seen = {pack_rows(gf, s1.rows)}
    if target in seen:
        return True
    frontier = [s1.rows]
    while frontier:
        new = []
        for rows in frontier:
            for lt in lts:
                img = _act_rows(gf, lt, rows)
                k = 0
                for row in img:
                    for v in row:
                        k = (k << e) | v
                if k == target:
                    return True
                if k not in seen:
                    seen.add(k)
                    if max_keys is not None and len(seen) > max_keys:
                        raise ResourceBudgetError(
                            "equivalence search exceeded %d keys" % max_keys,
                            partial=len(seen),
                        )
                    new.append(img)
        frontier = new
    return False


# -- stabilizers via transversals ------------------------------------------


def orbit_transversal(gf: GF, state0, act):
    """BFS orbit of a hashable state under the standard generators.

    ``act(state, k)`` applies generator k.  Returns {state: witness matrix}
    with witness(state0) = identity and witness mapping state0 to the state.
    """
    gens = generators(gf)
    tr = {state0: IDENTITY3}
    frontier = [state0]
    while frontier:
        new = []
        for s in frontier:
            u = tr[s]
            for k in range(len(gens)):
                s2 = act(s, k)
                if s2 not in tr:
                    tr[s2] = normalize_mat3(gf, mat3_mul(gf, gens[k], u))
                    new.append(s2)
        frontier = new
    return tr


def stabilizer_from_transversal(gf: GF, state0, act, tr) -> set[tuple[int, ...]]:
    """Full stabilizer of state0, from Schreier generators of the transversal.

    The expected order is |group| / |orbit|; generation stops as soon as the
    closure reaches it and fails loudly if the Schreier set cannot.
    """
    gens = generators(gf)
    order = pgl_order(gf.q)
    if order % len(tr):
        raise VerificationError("orbit size %d does not divide %d" % (len(tr), order))
    target = order // len(tr)
    sgens = set()
    for s, u in tr.items():
        for k, a in enumerate(gens):
            v = tr[act(s, k)]
            h = normalize_mat3(
                gf, mat3_mul(gf, mat3_inv(gf, v), mat3_mul(gf, a, u))
            )
            if h != IDENTITY3:
                sgens.add(h)
    picked: list[tuple[int, ...]] = []
    closure: set[tuple[int, ...]] = {IDENTITY3}
    for h in sorted(sgens):
        if h in closure:
            continue
        picked.append(h)
        closure = mulclose(gf, picked)
        if len(closure) == target:
            return closure
        if len(closure) > target:
            raise VerificationError(
                "stabilizer closure overshot: %d > %d" % (len(closure), target)
            )
    if len(closure) != target:
        raise VerificationError(
            "Schreier generators closed at %d, expected %d" % (len(closure), target)
        )
    return closure
