"""Ground-truth scene generation, rendering and the Monte-Carlo noise study.

Random rigid point bodies, random unrestricted motions, orthographic frame
rendering, and calibrated multiplicative noise.  Everything is
deterministic given an explicit non-negative integer seed; a sub-stream is
named by a key of spawn-key integers, so parallel Monte-Carlo runs
reproduce serial ones.  The stream of key k is the one
``np.random.default_rng(subseed(seed, *k))`` gives, bit for bit, but
_generators derives the states of all of a call's keys in one array pass
of numpy's SeedSequence hash instead of building a SeedSequence per stream.

One array core does the work for any number of scenes at once: bodies are
(N, p, 3) arrays, rotations (N, k, 3, 3), translations (N, k, 2) and images
(N, k, p, 2).  Each stream still makes its own draws in its own order, so a
scene is the same whether it is simulated alone or in a stack.  gen_body,
gen_motion, gen_scene, render and add_noise are thin adapters that turn
the arrays into the public value types; run_noise_study stays on arrays,
and it alone loads solvers, so simulating a scene loads no solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError
from .geometry import (
    DEGENERACY_EPS,
    TETRA_EDGES,
    TRIANGLE_EDGES,
    FrameObservation,
    RigidMotion,
    check_motions,
    checked_body,
)

DEFAULT_LABELS = ("P", "Q", "R", "T", "S")

# Motions rejected as unusable for recovery: nearly no rotation, or the
# rotation axis so close to the viewing direction that depths barely change.
MIN_ROTATION_ANGLE = 0.1        # radians
MIN_AXIS_TILT = 0.1             # |axis_xy|; axis ~ e_z means in-plane motion

_COND_MARGIN = 0.05             # genericity margin for generated bodies
_MAX_ATTEMPTS = 1000            # draws per stream before resampling gives up

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), in uint32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875      # mix_entropy's hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED      # generate_state's
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True, eq=False)
class Scene:
    """A ground-truth body (labels and points, geometry.checked_body) plus one
    rigid motion per frame (frame 1 identity); equal when the fields are."""

    labels: tuple
    points: np.ndarray
    motions: tuple         # of RigidMotion
    seed: int

    def __post_init__(self):
        labels, points = checked_body(self.labels, self.points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "motions", tuple(self.motions))

    def __eq__(self, other):
        return isinstance(other, Scene) and self.labels == other.labels \
            and np.array_equal(self.points, other.points) \
            and self.motions == other.motions and self.seed == other.seed

    def true_sq_distance(self, label_a, label_b) -> float:
        d = self.points[self.labels.index(label_a)] - self.points[self.labels.index(label_b)]
        return float(d @ d)


@dataclass(frozen=True)
class NoiseSpec:
    """Relative per-coordinate measurement noise.

    level is the maximum relative perturbation for the uniform distribution;
    for gaussian it is treated as a 3-sigma bound.  It must be non-negative
    and its range, 2 * level, finite (at most about 9e307).
    """

    level: float
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(2.0 * self.level) and self.level >= 0):
            raise InvalidInputError(
                f"noise level must be >= 0 with a finite range 2 * level, got {self.level!r}")
        if self.distribution not in ("uniform", "gaussian"):
            raise InvalidInputError(f"unknown distribution {self.distribution!r}")


def _labels_for(n: int) -> tuple:
    if n <= len(DEFAULT_LABELS):
        return DEFAULT_LABELS[:n]
    return DEFAULT_LABELS + tuple(f"X{i}" for i in range(n - len(DEFAULT_LABELS)))


def subseed(seed, *key) -> np.random.SeedSequence:
    """The SeedSequence of sub-stream key of seed: identical (seed, key)
    pairs give identical streams regardless of drawing order.  Accepts an
    int or an already-derived SeedSequence (keys concatenate).  The
    simulator itself never builds one per stream: _generators derives the
    same states for a whole batch of keys in one array pass, and accepts
    what this returns as its seed."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=tuple(seed.spawn_key) + tuple(key))
    return np.random.SeedSequence(int(seed), spawn_key=tuple(key))


def rotation_angle_axis(rot: np.ndarray) -> tuple:
    """Rotation angle in [0, pi] and a unit axis (arbitrary for angle 0)."""
    angle = math.acos(min(1.0, max(-1.0, (np.trace(rot) - 1.0) / 2.0)))
    axis = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    norm = np.linalg.norm(axis)
    if norm < DEGENERACY_EPS:
        # angle ~ 0 or ~ pi; fall back to the dominant eigenvector
        vals, vecs = np.linalg.eigh((rot + rot.T) / 2.0)
        axis = vecs[:, int(np.argmax(vals))]
        return angle, axis / np.linalg.norm(axis)
    return angle, axis / norm


# ---------------------------------------------------------------- streams

def _words(values) -> list:
    """The 32-bit words of each non-negative integer of values, least
    significant first, as SeedSequence splits it ([0] for 0)."""
    out = []
    for value in values:
        if type(value) is not int:
            if not isinstance(value, np.integer):
                raise InvalidInputError(
                    f"seeds and sub-stream keys must be integers, got {value!r}")
            value = int(value)
        # the sign first: shifting a negative int right never reaches 0
        if value < 0:
            raise InvalidInputError(
                f"seeds and sub-stream keys must be non-negative, got {value!r}")
        out.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            out.append(value & 0xFFFFFFFF)
            value >>= 32
    return out


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < count: the hash constant before
    each step of a SeedSequence hash, whatever the data."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


_GENERATE_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _hashmix(values: np.ndarray, xor, mult) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _states(entropy: np.ndarray) -> np.ndarray:
    """(N, 4) uint64 PCG64 seeds: row i is what a SeedSequence whose
    assembled entropy is row i of the (N, w) uint32 stack, w >= 4, returns
    from generate_state(4, np.uint64).

    mix_entropy hashes the first four words into the pool, mixes every
    pool word into every other and then each further word into all four;
    generate_state hashes the pool out cyclically into 8 words, read in
    pairs as little-endian uint64.  The hash constant steps the same way
    for every row, so each step is one array operation over all rows.
    """
    width = entropy.shape[1]
    hc = _hash_constants(_INIT_A, _MULT_A, 4 * width + 1)
    pool = _hashmix(entropy[:, :_POOL_SIZE], hc[:4], hc[1:5])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src], hc[k], hc[k + 1]))
                k += 1
    for src in range(_POOL_SIZE, width):
        pool = _mix(pool, _hashmix(entropy[:, src, None], hc[k:k + 4], hc[k + 1:k + 5]))
        k += 4
    words = _hashmix(np.tile(pool, 2), _GENERATE_B[:-1], _GENERATE_B[1:])
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


class _State(ISeedSequence):
    """A seed sequence whose PCG64 seed words are already computed."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise NotImplementedError("only PCG64's seed, 4 uint64 words")
        return self.state


def _generators(seed, keys) -> list:
    """One Generator per key, each the stream of
    np.random.default_rng(subseed(seed, *key)), bit for bit.

    seed is a non-negative integer or a SeedSequence (as subseed returns)
    with a non-negative integer entropy, the default pool size and an
    integer spawn key; anything else raises InvalidInputError before any
    draw.  The assembled entropy of a key is SeedSequence's: the seed's
    words, zero-padded to the pool size (where an unkeyed SeedSequence
    hashes zeros instead), then the words of each spawn-key element.  Rows
    with as many words are hashed together by _states.
    """
    prefix = ()
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != _POOL_SIZE:
            raise InvalidInputError(
                f"seed sequences must have pool_size {_POOL_SIZE}, got {seed.pool_size}")
        seed, prefix = seed.entropy, tuple(seed.spawn_key)
    run = _words([seed])
    head = run + [0] * (_POOL_SIZE - len(run)) + _words(prefix)
    rows = [head + _words(key) for key in keys]
    by_width = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    states = np.empty((len(rows), _POOL_SIZE), dtype=np.uint64)
    for index in by_width.values():
        states[index] = _states(np.array([rows[i] for i in index], dtype=np.uint32))
    return [np.random.Generator(np.random.PCG64(_State(state))) for state in states]


# ---------------------------------------------------------------- array core

def _redraw(rngs, draw, usable) -> np.ndarray:
    """One accepted draw per stream, stacked.

    draw(rng) makes a stream's next draw from its Generator; usable(stack)
    says which draws of a stack to keep.  A rejected stream draws again
    from where it stopped, as a loop redrawing from its own Generator would.
    """
    out = None
    pending = np.arange(len(rngs))
    for _ in range(_MAX_ATTEMPTS):
        stack = np.array([draw(rngs[i]) for i in pending])
        if out is None:
            out = stack
        else:
            out[pending] = stack
        pending = pending[~usable(stack)]
        if not len(pending):
            return out
    raise AssertionError(f"resampling failed {_MAX_ATTEMPTS} times")  # pragma: no cover


def _generic(bodies: np.ndarray) -> np.ndarray:
    """Per body of an (N, n, 3) stack: non-collinear, and for n >= 4 also
    non-coplanar, by a singular-value margin."""
    sv = np.linalg.svd(bodies - bodies.mean(axis=1, keepdims=True), compute_uv=False)
    ok = sv[:, 1] >= _COND_MARGIN * sv[:, 0]
    if bodies.shape[1] >= 4:
        ok &= sv[:, 2] >= _COND_MARGIN * sv[:, 0]
    return ok


def _bodies(rngs, n: int) -> np.ndarray:
    """(N, n, 3): n points in the unit cube per stream, redrawn until generic."""
    return _redraw(rngs, lambda rng: rng.uniform(0.0, 1.0, size=(n, 3)), _generic)


def _rotations(quats: np.ndarray) -> np.ndarray:
    """(M, 3, 3) rotations of an (M, 4) stack of quaternions (w, x, y, z),
    each normalized first."""
    w, x, y, z = (quats / np.sqrt(np.vecdot(quats, quats))[:, None]).T
    return np.moveaxis(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]), -1, 0)


def _usable_rotations(rots: np.ndarray) -> np.ndarray:
    """Per rotation: it turns by at least MIN_ROTATION_ANGLE about an axis
    tilted by at least MIN_AXIS_TILT from the viewing direction."""
    cosines = ((np.trace(rots, axis1=1, axis2=2) - 1.0) / 2.0).tolist()
    axes = np.stack([rots[:, 2, 1] - rots[:, 1, 2], rots[:, 0, 2] - rots[:, 2, 0],
                     rots[:, 1, 0] - rots[:, 0, 1]], axis=1)
    norms = np.sqrt(np.vecdot(axes, axes)).tolist()
    ok = []
    # math.acos and math.hypot, not np.arccos and np.hypot: those round
    # differently, and a moved rejection would change the stream's scene
    for rot, cos, (ax, ay, _), norm in zip(rots, cosines, axes.tolist(), norms):
        if norm < DEGENERACY_EPS:
            angle, (ax, ay, _) = rotation_angle_axis(rot)
        else:
            angle = math.acos(min(1.0, max(-1.0, cos)))
            ax, ay = ax / norm, ay / norm
        ok.append(angle >= MIN_ROTATION_ANGLE and math.hypot(ax, ay) >= MIN_AXIS_TILT)
    return np.array(ok)


def _motions(rngs) -> tuple:
    """Rotations (M, 3, 3), uniform on SO(3), and translations (M, 2),
    uniform in [-1, 1]^2, one per stream; a stream's rotation is redrawn
    until usable and its translation is drawn after it."""
    quats = _redraw(rngs, lambda rng: rng.normal(size=4),
                    lambda stack: _usable_rotations(_rotations(stack)))
    return _rotations(quats), np.array([rng.uniform(-1.0, 1.0, size=2) for rng in rngs])


def _scene_keys(keys, n_frames: int) -> list:
    """The stream keys of one scene per key, as gen_scene(subseed(seed,
    *key)) draws it: the body from sub-stream 0 and the motion of frame
    j >= 1 from sub-stream j."""
    return [(*key, j) for key in keys for j in range(n_frames)]


def _scenes(n_points: int, n_frames: int, rngs) -> tuple:
    """Bodies (N, p, 3), rotations (N, k, 3, 3) and translations (N, k, 2)
    from the N * k Generators of _scene_keys, with the identity in frame 0."""
    bodies = _bodies(rngs[::n_frames], n_points)
    n = len(bodies)
    rots = np.tile(np.eye(3), (n, n_frames, 1, 1))
    trans = np.zeros((n, n_frames, 2))
    if n_frames > 1:
        r, t = _motions([rng for i, rng in enumerate(rngs) if i % n_frames])
        rots[:, 1:] = r.reshape(n, n_frames - 1, 3, 3)
        trans[:, 1:] = t.reshape(n, n_frames - 1, 2)
    return bodies, rots, trans


def _images(bodies: np.ndarray, rots: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """(N, k, p, 2) orthographic images of (N, p, 3) bodies under each
    scene's k motions, in one matmul."""
    moved = (rots[:, :, None] @ bodies[:, None, :, :, None])[..., 0]
    return moved[..., :2] + trans[:, :, None, :]


def _noise(rngs, spec: NoiseSpec, shape) -> np.ndarray:
    """Relative noise of the given shape from each stream, stacked."""
    eps = []
    for rng in rngs:
        if spec.distribution == "uniform":
            eps.append(rng.uniform(-spec.level, spec.level, size=shape))
        else:
            eps.append(rng.normal(0.0, spec.level / 3.0, size=shape))
    return np.array(eps)


# ---------------------------------------------------------------- adapters

def gen_body(n: int, seed) -> tuple:
    """Sample n labeled points in the unit cube, resampling until the
    configuration is non-collinear (non-coplanar for n >= 4), as (labels, points)."""
    if n < 3:
        raise InvalidInputError("need at least 3 points")
    return checked_body(_labels_for(n), _bodies(_generators(seed, [()]), n)[0])


def gen_motion(seed) -> RigidMotion:
    """A rigid motion with rotation uniform on SO(3) and translation uniform
    in [-1, 1]^2, rejecting near-degenerate motions (tiny rotation, or an
    axis so close to the viewing direction that the motion is in-plane)."""
    return RigidMotion.stack(*_motions(_generators(seed, [()])))[0]


def gen_scene(n_points: int, n_frames: int, seed) -> Scene:
    """A random generic body with one random motion per frame beyond the
    first (frame 1 observes the unmoved body)."""
    if n_frames < 1:
        raise InvalidInputError("need at least 1 frame")
    if n_points < 3:
        raise InvalidInputError("need at least 3 points")
    bodies, rots, trans = _scenes(
        n_points, n_frames, _generators(seed, _scene_keys([()], n_frames)))
    # _generators admitted only an int entropy, which Scene.seed records
    provenance = seed.entropy if isinstance(seed, np.random.SeedSequence) else int(seed)
    return Scene(_labels_for(n_points), bodies[0], RigidMotion.stack(rots[0], trans[0]),
                 int(provenance))


def render(scene: Scene) -> list:
    """Orthographic frames of the scene: frame j projects motion_j(body)."""
    rots = np.array([m.rotation for m in scene.motions])
    trans = np.array([m.translation for m in scene.motions])
    images = _images(scene.points[None], rots[None], trans[None])[0]
    return list(FrameObservation.stack([scene.labels] * len(images), images))


def add_noise(frames, spec: NoiseSpec) -> list:
    """Multiplicative per-coordinate noise: x -> x * (1 + eps).

    Uniform: eps ~ U(-level, level).  Gaussian: eps ~ N(0, (level/3)^2),
    so the stated level is a 3-sigma bound.  Level 0 returns the (immutable)
    frames themselves.
    """
    if spec.level == 0.0 or not frames:
        return list(frames)
    coords = np.concatenate([f.coords() for f in frames])
    noise = _noise(_generators(spec.seed, [()]), spec, coords.shape)[0]
    noisy = coords * (1.0 + noise)
    sizes = [len(f.labels) for f in frames]
    if len(set(sizes)) == 1:
        return list(FrameObservation.stack([f.labels for f in frames],
                                           noisy.reshape(len(frames), -1, 2)))
    return [FrameObservation(f.labels, part)
            for f, part in zip(frames, np.split(noisy, np.cumsum(sizes)[:-1]))]


# ---------------------------------------------------------------- noise study

def _median_p95(errors: np.ndarray) -> tuple:
    """float(np.median(errors)) and float(np.percentile(errors, 95)), bit for bit.

    Both numpy functions test their input for a masked array, and that test
    loads numpy.ma, which costs a one-shot command more than the statistics.
    This repeats their arithmetic without it.  Each statistic partitions at
    the positions its numpy function partitions at, not one sort for both:
    np.sort and np.partition may order -0.0 and +0.0 differently.  A NaN
    sorts last and is both statistics, as in numpy.
    """
    n = len(errors)
    middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(errors, middle + [-1]).tolist()
    if math.isnan(part[-1]):
        return part[-1], part[-1]
    # np.mean sums from +0.0, so the mean of -0.0 and -0.0 is +0.0
    total = 0.0
    for i in middle:
        total += part[i]
    median = total / len(middle)
    # np.percentile's linear method: the neighbours of the virtual index
    # (n - 1) * q, and numpy's _lerp, which interpolates down from the upper
    # neighbour once t >= 0.5; past the end both neighbours are the last
    # value, at t = virtual - (-1)
    virtual = (n - 1) * (95 / 100)
    lo = -1 if virtual >= n - 1 else math.floor(virtual)
    hi = -1 if lo == -1 else lo + 1
    part = np.partition(errors, sorted({0, -1, lo, hi})).tolist()
    a, b, t = part[lo], part[hi], virtual - lo
    diff = b - a
    return median, b - diff * (1 - t) if t >= 0.5 else a + diff * t


def run_noise_study(mode: str, levels, trials: int, seed: int) -> list:
    """Per-level relative-error statistics of recovered squared lengths.

    Returns a list of dict rows.  Deterministic: trial t at level index i
    draws its scene from sub-stream (i, t, 0) and its noise from (i, t, 1).
    Every level derives all of its trials' streams in one _generators call,
    simulates the trials as one stack and solves them in one
    solvers.solve_batch call.  A trial's answer is its candidate closest
    to the truth in max absolute error.  failures counts the trials without
    an answer: failures_degenerate those whose system was degenerate or
    singular, failures_no_candidate those that gave no candidate.
    """
    from . import solvers

    n_points, n_frames = solvers.MODES[mode]
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    levels = list(levels)
    specs = [NoiseSpec(level) for level in levels]
    first, second = np.array(TETRA_EDGES if n_points == 4 else TRIANGLE_EDGES).T
    # looked up per study so a wrapped core is the one that runs
    solve = solvers.solve_batch
    rows = []
    for li, (level, spec) in enumerate(zip(levels, specs)):
        keys = _scene_keys([(li, t, 0) for t in range(trials)], n_frames)
        if spec.level > 0:
            keys += [(li, t, 1) for t in range(trials)]
        rngs = _generators(seed, keys)
        n_scene = trials * n_frames
        bodies, rots, trans = _scenes(n_points, n_frames, rngs[:n_scene])
        check_motions(rots, trans)
        images = _images(bodies, rots, trans)
        if spec.level > 0:
            images = images * (1.0 + _noise(rngs[n_scene:], spec, images.shape[1:]))
        d = images[:, :, first] - images[:, :, second]
        # dx*dx + dy*dy as projected_sq_distances rounds it; np.vecdot on
        # 2-vectors does not
        batch = solve(mode, d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        d = bodies[:, first] - bodies[:, second]
        truths = np.vecdot(d, d)
        # each answered trial's first candidate with the smallest max error,
        # as min() picks it
        keys = np.abs(batch.lengths - truths[batch.row]).max(axis=1).tolist()
        best = {}
        for i, (trial, key) in enumerate(zip(batch.row.tolist(), keys)):
            if trial not in best or key < keys[best[trial]]:
                best[trial] = i
        truth = truths[list(best)]
        errors = (np.abs(batch.lengths[list(best.values())] - truth) / np.abs(truth)).ravel()
        if not len(errors):
            errors = np.array([np.nan])
        degenerate = int(np.count_nonzero(batch.degenerate))
        no_candidate = trials - degenerate - len(best)
        median, p95 = _median_p95(errors)
        rows.append({
            "level": level,
            "trials": trials,
            "failures": degenerate + no_candidate,
            "median_rel_error": median,
            "mean_rel_error": float(np.mean(errors)),
            "p95_rel_error": p95,
            "failures_degenerate": degenerate,
            "failures_no_candidate": no_candidate,
        })
    return rows
