"""Seeded workload inputs, built with numpy and the stdlib only.

Nothing here calls the program.  Matrices are assembled from canonical
blocks and conjugated, interpolation problems are drawn directly, and
density targets are built from orbit points computed here.  Each case
carries the facts its checker needs: the constructed blocks, the planted
violation, or the known hull membership of every target.

Slices that the program is known to get wrong (the defective spectra and
the wide interpolation problems) are drawn from fixed generators that do
not depend on the seed, so every run fails the same operations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Every eigenvalue keeps this distance from the unit circle, the real axis
# (unless it is exactly real) and the conjugate of every other eigenvalue
# (unless it is exactly that conjugate), so no verdict sits near a boundary.
MARGIN = 0.2
OUTER_RADIUS = 4.0

# Size classes of the classify workload: (class name, dimension, main-slice
# cases, defective-slice cases) per round.  The counts put the median call
# inside n32 and the tail percentile (p90, the 11th slowest call of a
# round) inside n128 (see README).
CLASSIFY_CLASSES = (("n8", 8, 21, 9), ("n32", 32, 26, 9), ("n64", 64, 12, 9), ("n128", 128, 14, 0))

# Interpolation slices per round; interleaved with the density scans below
# they form the solve_scan round (324 calls): its median falls among the
# budget-64 scans and the narrow and wide solves, its tail percentile
# (p96, the 13th slowest call of a round) among the budget-400 scans.
NARROW_COUNT = 60
VIOLATOR_KINDS = ("DiskBound", "ValueAtOne", "RealTarget", "ConjugateSymmetry")
VIOLATORS_PER_KIND = 6
WIDE_KINDS = ("rows10", "rows14", "rows22", "spread")
WIDE_PER_KIND = 12

# Density scans per round.
DENSITY_SCANS = ((64, 144), (400, 48))
TARGETS_PER_SCAN = 20

# Each scan slot of a round has DENSITY_DRAWS candidate inputs, each built
# from its own fixed stream; the seed picks one per slot.  Freshly drawn
# scans raise RuntimeError from scipy's NNLS iteration cap inside
# dynamics.hull_contains about once in 2000 (see README), which would fail
# a run on some seeds only; bench/screen_pool.py scans every candidate and
# none of these does.
DENSITY_DRAWS = 16

# Fixed generator seeds of the seed-independent inputs.
DEFECTIVE_SEED = 20151
WIDE_SEED = 20152
WARMUP_SEED = 20153
DENSITY_POOL_SEED = 20154
NARROW_SHAPE_SEED = 20155


@dataclass(frozen=True)
class Block:
    """One canonical block: ``diag`` (1x1), ``jordan`` (k x k, one value) or
    ``rot`` (real k-fold rotation-scaling block of size 2k for the pair
    ``value``, ``conj(value)``)."""

    kind: str
    value: complex
    k: int = 1

    @property
    def dimension(self) -> int:
        return 2 * self.k if self.kind == "rot" else self.k


@dataclass(frozen=True)
class ClassifyCase:
    slice: str
    size_class: str
    field: str
    blocks: tuple[Block, ...]
    matrix: np.ndarray
    conjugator_cond: float


@dataclass(frozen=True)
class InterpolateCase:
    slice: str
    kind: str
    real_nodes: tuple[tuple[float, tuple[float, ...]], ...]
    complex_nodes: tuple[tuple[complex, tuple[complex, ...]], ...]


@dataclass(frozen=True)
class DensityCase:
    budget: int
    matrix: np.ndarray
    x: np.ndarray
    targets: tuple[np.ndarray, ...]
    inside: tuple[bool, ...]
    # lower bound on the distance of each outside target from the hull
    distance: tuple[float, ...]


def interleave(groups: list[list]) -> list:
    """Merge groups so that each is spread evenly over the round.

    A round runs for seconds while the machine's speed drifts; spreading
    every slice over the whole round makes each slice sample the same mix
    of fast and slow periods instead of one burst.
    """
    keyed = [((j + 0.5) / len(g), gi, item) for gi, g in enumerate(groups) for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda k: (k[0], k[1]))]


# ---------------------------------------------------------------- matrices


def block_matrix(blocks: tuple[Block, ...], field: str) -> np.ndarray:
    """Block-diagonal canonical form of ``blocks``."""
    n = sum(b.dimension for b in blocks)
    out = np.zeros((n, n), dtype=float if field == "real" else complex)
    pos = 0
    for b in blocks:
        if b.kind == "rot":
            a, s = b.value.real, b.value.imag
            cell = np.array([[a, -s], [s, a]])
            for i in range(b.k):
                r = pos + 2 * i
                out[r : r + 2, r : r + 2] = cell
                if i + 1 < b.k:
                    out[r : r + 2, r + 2 : r + 4] = np.eye(2)
        else:
            value = b.value.real if field == "real" else b.value
            for i in range(b.k):
                out[pos + i, pos + i] = value
                if i + 1 < b.k:
                    out[pos + i, pos + i + 1] = 1.0
        pos += b.dimension
    return out


def constructed_spectrum(blocks: tuple[Block, ...]) -> list[tuple[complex, int, int, int]]:
    """Distinct eigenvalues as (value, algebraic, geometric, largest block)."""
    acc: dict[complex, list[int]] = {}
    for b in blocks:
        values = (b.value, b.value.conjugate()) if b.kind == "rot" else (b.value,)
        for v in values:
            alg, geo, big = acc.setdefault(complex(v), [0, 0, 0])
            acc[complex(v)] = [alg + b.k, geo + 1, max(big, b.k)]
    return [(v, a, g, k) for v, (a, g, k) in acc.items()]


def _conjugator(rng: np.random.Generator, n: int, complex_field: bool) -> tuple[np.ndarray, float]:
    """Random U diag(d) V with d in [0.5, 2], so the condition number is <= 4."""

    def unitary() -> np.ndarray:
        g = rng.standard_normal((n, n))
        if complex_field:
            g = g + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        return q * np.sign(np.diag(r))

    d = rng.uniform(0.5, 2.0, n)
    return unitary() @ np.diag(d) @ unitary(), float(d.max() / d.min())


class _Spectrum:
    """Eigenvalues placed so far, with the separation rules of MARGIN."""

    def __init__(self, rng: np.random.Generator, outer: float = OUTER_RADIUS):
        self.rng = rng
        self.outer = outer
        self.values: list[complex] = []
        # negative reals placed at random along [-outer, -1 - MARGIN] jam
        # well before the line is full; stay below this count
        self.negative_cap = int(0.4 * (outer - 1.0 - MARGIN) / MARGIN)

    def _clear(self, z: complex) -> bool:
        return all(abs(z - v) >= MARGIN and abs(z - v.conjugate()) >= MARGIN for v in self.values)

    def draw(self, where: str, real: bool, sign: float = 0.0) -> complex:
        """New eigenvalue ``outside`` (|z| >= 1 + MARGIN) or ``inside``
        (|z| <= 1 - MARGIN) the unit disk; ``real`` ones lie on the axis
        with the given sign (random when 0), others keep |Im| >= MARGIN."""
        lo, hi = (1.0 + MARGIN, self.outer) if where == "outside" else (MARGIN, 1.0 - MARGIN)
        for _ in range(100000):
            r = float(self.rng.uniform(lo, hi))
            if real:
                s = sign or (1.0 if self.rng.uniform() < 0.5 else -1.0)
                z = complex(s * r, 0.0)
            else:
                z = cmath.rect(r, float(self.rng.uniform(-math.pi, math.pi)))
                if abs(z.imag) < MARGIN:
                    continue
            if self._clear(z):
                self.values.append(z)
                return z
        raise RuntimeError("could not place a separated eigenvalue")


def _good_blocks(spec: _Spectrum, field: str, room: int, defective_ok: bool) -> list[Block]:
    """Fill ``room`` dimensions with blocks that keep a matrix convex-cyclic.

    Jordan blocks appear only where a splitting defective eigenvalue cannot
    change a clause: non-real values in the complex field, negative reals
    or rotation pairs in the real field.
    """
    rng = spec.rng
    out: list[Block] = []
    while room > 0:
        u = rng.uniform()
        if field == "complex":
            k = int(rng.integers(2, 4)) if defective_ok and u < 0.15 else 1
            k = min(k, room)
            out.append(Block("jordan" if k > 1 else "diag", spec.draw("outside", False), k))
            room -= k
        elif room >= 2 and u < 0.6:
            k = 2 if defective_ok and room >= 4 and u < 0.1 else 1
            out.append(Block("rot", spec.draw("outside", False), k))
            room -= 2 * k
        else:
            # negative reals fit only a few at a time in [-outer, -1.2]
            if sum(1 for v in spec.values if v.imag == 0 and v.real < 0) >= spec.negative_cap:
                if room >= 2:
                    continue
                out.append(Block("diag", spec.draw("outside", True, -1.0)))
                room -= 1
                continue
            k = 2 if defective_ok and room >= 2 and u > 0.9 else 1
            out.append(Block("jordan" if k > 1 else "diag", spec.draw("outside", True, -1.0), k))
            room -= k
    return out


def _fault_blocks(spec: _Spectrum, field: str) -> list[Block]:
    """Blocks that break chosen clauses; each fault kind with probability 0.35."""
    rng = spec.rng
    kinds = ("disk", "real", "pair", "repeat") if field == "complex" else ("disk", "nonneg", "repeat")
    out: list[Block] = []
    for kind in kinds:
        if rng.uniform() >= 0.35:
            continue
        if kind == "disk":
            if field == "complex" or rng.uniform() < 0.5:
                out.append(Block("diag" if field == "complex" else "rot", spec.draw("inside", False)))
            else:
                out.append(Block("diag", spec.draw("inside", True, -1.0)))
        elif kind == "real":
            out.append(Block("diag", spec.draw("outside", True)))
        elif kind == "nonneg":
            out.append(Block("diag", spec.draw("outside", True, 1.0)))
        elif kind == "pair":
            z = spec.draw("outside", False)
            out += [Block("diag", z), Block("diag", z.conjugate())]
        else:
            if field == "complex" or rng.uniform() < 0.5:
                z = spec.draw("outside", field == "real", -1.0)
                out += [Block("diag", z), Block("diag", z)]
            else:
                z = spec.draw("outside", False)
                out += [Block("rot", z), Block("rot", z)]
    return out


def _classify_case(rng, slice_name, size_class, n, field, blocks) -> ClassifyCase:
    order = rng.permutation(len(blocks))
    blocks = tuple(blocks[i] for i in order)
    P, cond = _conjugator(rng, n, field == "complex")
    matrix = P @ block_matrix(blocks, field) @ np.linalg.inv(P)
    return ClassifyCase(slice_name, size_class, field, blocks, matrix, cond)


def _main_case(rng, size_class: str, n: int, field: str) -> ClassifyCase:
    spec = _Spectrum(rng)
    faults = _fault_blocks(spec, field)
    room = n - sum(b.dimension for b in faults)
    blocks = faults + _good_blocks(spec, field, room, defective_ok=True)
    return _classify_case(rng, "main", size_class, n, field, blocks)


DEFECTIVE_KINDS = ("J2+J2", "J2+1", "J2@real")


def _defective_case(rng, size_class: str, n: int, field: str, kind: str) -> ClassifyCase:
    """A double eigenvalue carried by a 2x2 Jordan block, padded with
    distinct eigenvalues that satisfy every clause.

    ``J2+J2`` (J2(lam) + J2(lam)) and ``J2+1`` (J2(lam) + [lam]) are not
    cyclic; lam is a negative real in the real field and non-real in the
    complex field.  ``J2@real`` is a lone J2(lam) at a real lam whose
    realness decides a clause: lam > 0 in the real field (nonnegative real),
    any real lam in the complex field.
    """
    spec = _Spectrum(rng)
    if kind == "J2@real":
        lam = spec.draw("outside", True, 1.0 if field == "real" else 0.0)
        head = [Block("jordan", lam, 2)]
    else:
        lam = spec.draw("outside", field == "real", -1.0)
        head = [Block("jordan", lam, 2), Block("jordan", lam, 2) if kind == "J2+J2" else Block("diag", lam)]
    room = n - sum(b.dimension for b in head)
    return _classify_case(rng, "defective", size_class, n, field, head + _good_blocks(spec, field, room, False))


def classify_round(seed: int) -> list[ClassifyCase]:
    """One round: seeded main slice plus the fixed defective slice."""
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng(DEFECTIVE_SEED)
    groups = []
    for name, n, main, defective in CLASSIFY_CLASSES:
        groups.append([_main_case(rng, name, n, ("real", "complex")[i % 2]) for i in range(main)])
        kinds = [DEFECTIVE_KINDS[i % len(DEFECTIVE_KINDS)] for i in range(defective)]
        fields = [("real", "complex")[(i // len(DEFECTIVE_KINDS)) % 2] for i in range(defective)]
        groups.append([_defective_case(fixed, name, n, f, k) for f, k in zip(fields, kinds)])
    return interleave([g for g in groups if g])


def classify_warmup() -> ClassifyCase:
    return _main_case(np.random.default_rng(WARMUP_SEED), "n8", 8, "complex")


# ----------------------------------------------------------- interpolation


def _place_nodes(rng, n_real: int, n_cplx: int, lo: float, hi: float, sep: float):
    for _ in range(100000):
        xs = [-float(rng.uniform(lo, hi)) for _ in range(n_real)]
        zs = []
        for _ in range(n_cplx):
            angle = float(rng.uniform(0.15, math.pi - 0.15)) * (1 if rng.uniform() < 0.5 else -1)
            zs.append(cmath.rect(float(rng.uniform(lo, hi)), angle))
        nodes = [complex(x) for x in xs] + zs
        if all(
            abs(a - b) >= sep and abs(a - b.conjugate()) >= sep
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        ):
            return sorted(xs), zs
    raise RuntimeError("could not place separated nodes")


def _real_targets(rng, count: int) -> tuple[float, ...]:
    return tuple(float(rng.uniform(-10.0, 10.0)) for _ in range(count))


def _complex_targets(rng, count: int) -> tuple[complex, ...]:
    return tuple(
        cmath.rect(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 2 * math.pi)))
        for _ in range(count)
    )


def _problem(rng, slice_name, kind, xs, zs, orders) -> InterpolateCase:
    return InterpolateCase(
        slice_name,
        kind,
        tuple((x, _real_targets(rng, orders[i])) for i, x in enumerate(xs)),
        tuple((z, _complex_targets(rng, orders[len(xs) + i])) for i, z in enumerate(zs)),
    )


def _narrow_shape(rng) -> tuple[int, int, tuple[int, ...]]:
    """(real nodes, complex nodes, derivative orders) inside the envelope."""
    rows = 6
    while True:
        n_real, n_cplx = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        if 1 <= n_real + 2 * n_cplx <= rows:
            break
    orders = [1] * (n_real + n_cplx)
    budget = rows - (n_real + 2 * n_cplx)
    for k in rng.permutation(n_real + n_cplx):
        cost = 1 if k < n_real else 2
        extra = int(rng.integers(0, 3))
        while extra > 0 and orders[k] < 3 and budget >= cost:
            orders[k] += 1
            budget -= cost
            extra -= 1
    return n_real, n_cplx, tuple(orders)


def _narrow(rng, shape) -> InterpolateCase:
    """Inside the documented envelope: at most 3 real and 2 complex nodes,
    moduli in one band [rho, 1.7 rho], at most 6 rows, targets up to 10."""
    n_real, n_cplx, orders = shape
    rho = float(rng.uniform(1.5 + 0.2 * n_real, 2.35))
    xs, zs = _place_nodes(rng, n_real, n_cplx, rho, min(1.7 * rho, 4.0), 0.5)
    return _problem(rng, "narrow", "narrow", xs, zs, orders)


def _wide(rng, kind: str) -> InterpolateCase:
    """Admissible, beyond the envelope: 10, 14 or 22 rows in one modulus
    band, or 7 rows with moduli spread over [1.05, 4]."""
    if kind == "spread":
        xs, zs = _place_nodes(rng, 3, 2, 1.05, 4.0, 0.3)
        return _problem(rng, "wide", kind, xs, zs, [1] * 5)
    # (real nodes, real order, complex nodes, complex order)
    n_real, real_order, n_cplx, cplx_order = {
        "rows10": (2, 3, 2, 1),
        "rows14": (2, 3, 2, 2),
        "rows22": (5, 2, 3, 2),
    }[kind]
    rho = float(rng.uniform(2.0, 2.35))
    xs, zs = _place_nodes(rng, n_real, n_cplx, rho, 1.7 * rho, 0.3)
    orders = [real_order] * n_real + [cplx_order] * n_cplx
    return _problem(rng, "wide", kind, xs, zs, orders)


def _violator(rng, kind: str) -> InterpolateCase:
    """A problem that breaks exactly one necessary condition."""
    if kind == "DiskBound":
        node = cmath.rect(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.3, math.pi - 0.3)))
        target = cmath.rect(float(rng.uniform(1.5, 5.0)), float(rng.uniform(0.0, 2 * math.pi)))
        return InterpolateCase("violator", kind, (), ((node, (target,)),))
    if kind == "ValueAtOne":
        target = float(rng.uniform(2.0, 10.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        return InterpolateCase("violator", kind, ((1.0, (target,)),), ())
    if kind == "RealTarget":
        node = complex(float(rng.uniform(-5.0, -1.5)), 0.0)
        im = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        return InterpolateCase("violator", kind, (), ((node, (complex(rng.uniform(-3.0, 3.0), im),)),))
    z = cmath.rect(float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.3, math.pi - 0.3)))
    w = cmath.rect(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 2 * math.pi)))
    off = w.conjugate() + cmath.rect(float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.0, 2 * math.pi)))
    return InterpolateCase("violator", kind, (), ((z, (w,)), (z.conjugate(), (off,))))


def interpolate_round(seed: int) -> list[InterpolateCase]:
    """One round: seeded narrow and violator slices plus the fixed wide slice."""
    rng = np.random.default_rng([seed, 2])
    fixed = np.random.default_rng(WIDE_SEED)
    # the shapes are fixed so that every seed asks for the same mix of
    # sizes; the seed draws nodes and targets
    shapes = np.random.default_rng(NARROW_SHAPE_SEED)
    narrow = [_narrow(rng, _narrow_shape(shapes)) for _ in range(NARROW_COUNT)]
    violators = [_violator(rng, kind) for kind in VIOLATOR_KINDS for _ in range(VIOLATORS_PER_KIND)]
    wide = [_wide(fixed, kind) for kind in WIDE_KINDS for _ in range(WIDE_PER_KIND)]
    return interleave([narrow, violators, wide])


def interpolate_warmup() -> InterpolateCase:
    rng = np.random.default_rng(WARMUP_SEED)
    return _narrow(rng, _narrow_shape(rng))


# ------------------------------------------------------------------ density


def _orbit(T: np.ndarray, x: np.ndarray, count: int) -> list[np.ndarray]:
    pts = [x]
    for _ in range(count - 1):
        pts.append(T @ pts[-1])
    return pts


def _density_case(rng, budget: int, variant: str, field: str, n: int) -> DensityCase:
    """A small canonical matrix with TARGETS_PER_SCAN targets of known membership.

    ``cc`` matrices are convex-cyclic and get inside targets only.  ``pos``
    has a positive real diagonal entry lam >= 1.2 with x-coordinate 1, whose
    image coordinate p(lam) is >= 1 for every convex p, so a target with
    that coordinate <= 1 - d lies at distance >= d from the hull.  ``pair``
    (complex field) has diagonal entries z, conj(z) with x-coordinates 1,
    whose image coordinates are w, conj(w); a target (a, b) there lies at
    distance >= |b - conj(a)| / sqrt(2) from the hull.
    """
    # moduli up to 3 keep inside targets, built from the first four orbit
    # points, at moderate norms
    spec = _Spectrum(rng, outer=3.0)
    head: list[Block] = []
    if variant == "pos":
        head = [Block("diag", spec.draw("outside", True, 1.0))]
    elif variant == "pair":
        z = spec.draw("outside", False)
        head = [Block("diag", z), Block("diag", z.conjugate())]
    blocks = head + _good_blocks(spec, field, n - len(head), defective_ok=True)
    T = block_matrix(tuple(blocks), field)
    dtype = float if field == "real" else complex
    x = rng.uniform(0.5, 1.5, n).astype(dtype)
    if field == "complex":
        x = x * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    if head:
        x[: len(head)] = 1.0
    pts = _orbit(T, x, 4)
    targets, inside, distance = [], [], []
    outside_count = 0 if variant == "cc" else TARGETS_PER_SCAN // 2
    for i in range(TARGETS_PER_SCAN):
        w = rng.dirichlet(np.ones(len(pts)))
        t = sum(wk * p for wk, p in zip(w, pts))
        if i < outside_count:
            t = np.array(t, dtype=dtype)
            if variant == "pos":
                d = float(rng.uniform(0.5, 4.0))
                t[0] = 1.0 - d
                distance.append(d)
            else:
                d = float(rng.uniform(1.0, 4.0))
                t[1] = np.conj(t[0]) + cmath.rect(d, float(rng.uniform(0, 2 * math.pi)))
                distance.append(d / math.sqrt(2.0))
            inside.append(False)
        else:
            inside.append(True)
            distance.append(0.0)
        targets.append(np.asarray(t, dtype=dtype))
    order = rng.permutation(TARGETS_PER_SCAN)
    return DensityCase(
        budget,
        T,
        x,
        tuple(targets[i] for i in order),
        tuple(inside[i] for i in order),
        tuple(distance[i] for i in order),
    )


def density_slots() -> list[tuple[int, str, str, int]]:
    """The fixed (budget, variant, field, n) of every scan in a round, so
    that every seed asks for the same mix of sizes."""
    slots = []
    for budget, count in DENSITY_SCANS:
        for i in range(count):
            variant = ("cc", "pos", "pair")[i % 3]
            field = {"pos": "real", "pair": "complex"}.get(variant, ("real", "complex")[(i // 3) % 2])
            n = 1 + (5 * i) % 16 if variant == "cc" else 2 + (5 * i) % 15
            slots.append((budget, variant, field, n))
    return slots


def pool_case(slot: int, draw: int) -> DensityCase:
    """Draw number ``draw`` of scan ``slot``, from its own fixed stream."""
    budget, variant, field, n = density_slots()[slot]
    return _density_case(np.random.default_rng([DENSITY_POOL_SEED, slot, draw]), budget, variant, field, n)


def density_round(seed: int) -> list[DensityCase]:
    """One round: for every slot, the seed picks one of its pool draws."""
    slots = density_slots()
    draws = np.random.default_rng([seed, 3]).integers(0, DENSITY_DRAWS, len(slots))
    cases = [pool_case(slot, int(draw)) for slot, draw in enumerate(draws)]
    return interleave([[c for c in cases if c.budget == budget] for budget, _ in DENSITY_SCANS])


def density_warmup() -> DensityCase:
    return _density_case(np.random.default_rng(WARMUP_SEED), 64, "pos", "real", 6)
