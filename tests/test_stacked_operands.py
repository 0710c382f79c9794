"""Stacked operands, batched streams and the SPD distance kernels against
test-local references.

Jiggling stacks the sample once and returns its anchors as one stack; the
depth calls stack each operand once, whatever sequence it comes as; the
median pairwise distance partitions the upper triangle where it took
``np.median``. Each must give the bits of the tuple-built form.

Refinement stacks its anchors and sample once, derives all its step
streams in one batch, measures a block of proposals in one distance call
and rejects most of them by a witness pair without a scan; the intrinsic
mean and median stack their sample once; the SPD distance kernel runs two
matmuls where it ran two ``einsum(optimize=True)`` calls. None of this may
move a bit, so each is checked for exact equality against the form it
replaced: a loop that derives one stream per step, passes tuples and scans
every proposal, and the einsum kernel. On spd:2 the distances take one
fixed sequence of IEEE operations per pair instead, so they are checked
for the same bits on both bodies and at every call shape, an exact zero
between equal matrices, and the stated error bound against the einsum
kernel.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from metricdepth import depth as depth_module
from metricdepth.depth import (
    _min_counts,
    approx_depth,
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    median_pairwise_distance,
    refine_deepest,
)
from metricdepth.errors import GeometryError, MetricDepthError, NumericalError
from metricdepth.estimators import (
    MAX_STEP_HALVINGS,
    WEISZFELD_GUARD,
    frechet_mean,
    frechet_median,
    mhd_median,
)
from metricdepth.rng import NS_JIGGLE, NS_REFINE, derive_normals, derive_rng
from metricdepth.simulation import SimulationConfig, sample_contaminated
from metricdepth.spaces import SPD, Euclidean, Product, Sphere, Spider3
from metricdepth.spaces.spd import EIG_FLOOR, _sym

from conftest import numpy_kernels, random_points

SPACES = [
    Euclidean(3),
    Sphere(2),
    SPD(2),
    SPD(3),
    Spider3(),
    Product((SPD(2), Sphere(2))),
]


def _same(a, b) -> bool:
    """Bit-for-bit equality of points, tangents and their payloads."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def reference_refine(space, sample, anchors, start, budget, seed, radius_frac, table,
                     outcomes=None, proposals=None):
    """Refinement as one stream per step, with tuples passed to every call,
    and a scan of every proposal. Each step's outcome is appended to
    ``outcomes``: "deeper", "tie-accept", "tie-reject", "shallower" or
    "failed" (its distances raised), and its proposal to ``proposals``."""
    sample = tuple(sample)
    anchor_points = tuple(getattr(anchors, "points", anchors))
    outcomes = [] if outcomes is None else outcomes
    proposals = [] if proposals is None else proposals

    def depth_of(point):
        dist = space.distance_matrix([point], anchor_points)
        return int(_min_counts(table, dist)[0][0])

    def dist_sum(point):
        return float(space.distance_matrix([point], sample).sum(axis=1)[0])

    current, current_num = start, depth_of(start)
    if budget == 0:
        return current, Fraction(current_num, table.n)
    current_sum = dist_sum(current)
    radius = radius_frac * median_pairwise_distance(space, sample)
    decay = 0.01 ** (1.0 / budget)
    for step in range(budget):
        normals = derive_rng(seed, NS_REFINE, step).standard_normal((1, space.normal_count))
        proposal = space.exp_many(
            [current], space.normal_tangents([current], [radius**2], normals))[0]
        proposals.append(proposal)
        radius *= decay
        try:
            num = depth_of(proposal)
        except MetricDepthError:
            outcomes.append("failed")
            continue
        if num > current_num:
            current, current_num, current_sum = proposal, num, dist_sum(proposal)
            outcomes.append("deeper")
        elif num == current_num:
            prop_sum = dist_sum(proposal)
            if prop_sum < current_sum:
                current, current_sum = proposal, prop_sum
                outcomes.append("tie-accept")
            else:
                outcomes.append("tie-reject")
        else:
            outcomes.append("shallower")
    return current, Fraction(current_num, table.n)


def reference_descent(space, sample, tol, max_iter, objective, direction):
    """The intrinsic mean / median loop with the sample passed as a tuple."""
    sample = tuple(sample)
    dist = space.distance_matrix(sample, sample)
    objs = objective(dist)
    x, current = sample[int(np.argmin(objs))], float(objs.min())
    last_update, iterations = np.inf, 0
    for iterations in range(1, max_iter + 1):
        try:
            v = direction(x, space.distance_matrix([x], sample)[0])
        except MetricDepthError as exc:
            raise NumericalError(str(exc)) from exc
        if v is None:  # the current point is a minimizer
            last_update = 0.0
            break
        vnorm, step, accepted = float(space.tangent_norms([x], v)[0]), 1.0, False
        for _ in range(MAX_STEP_HALVINGS):
            trial = space.exp_many([x], space.scale_tangents(v, step))[0]
            trial_obj = float(objective(space.distance_matrix([trial], sample))[0])
            if trial_obj <= current:
                x, current, last_update, accepted = trial, trial_obj, step * vnorm, True
                break
            step *= 0.5
        if not accepted:
            last_update = step * vnorm
            break
        if last_update < tol:
            break
    return x, current, iterations, last_update < tol


def _refinement_case(space, anchor_kind, rng, start="deepest"):
    """A sample, its anchors and table, and its deepest or shallowest point
    as the start. "jiggled" anchors begin with the sample, so refinement
    reads the sample's distances among the anchors'; "copies", the jiggled
    copies alone, do not, so it reads them from columns after the anchors'."""
    sample = random_points(space, 14, rng)
    anchors = jiggle_anchors(space, sample, 2, 0.2, seed=5)
    if anchor_kind == "copies":
        anchors = anchors.points[len(sample):]
    table = halfspace_prob_table(space, sample, anchors)
    if start == "deepest":
        point, _, _ = in_sample_deepest(space, sample, anchors, table=table)
    else:
        reports = approx_depth(space, sample, anchors, sample, table=table)
        point = sample[min(range(len(sample)), key=lambda i: reports[i].depth_num)]
    return sample, anchors, table, point


def counted_scans(monkeypatch) -> list:
    """The query count of each table scan refinement makes from now on."""
    scans = []

    def counted(table, dist):
        scans.append(len(dist))
        return _min_counts(table, dist)

    monkeypatch.setattr(depth_module, "_min_counts", counted)
    return scans


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
@pytest.mark.parametrize("budget", [0, 1, 12, 40, 64])
def test_refine_deepest_equals_per_step_stream_loop(space, budget, rng, monkeypatch):
    # The longest budgets start from the shallowest sample point, so that
    # moves are accepted. The reference scans every proposal; refinement
    # scans only those that no witness pair rejects.
    start_kind = "shallowest" if budget >= 40 else "deepest"
    scans = counted_scans(monkeypatch)
    for anchor_kind in ("jiggled", "copies"):
        sample, anchors, table, start = _refinement_case(space, anchor_kind, rng, start_kind)
        scans.clear()
        got = refine_deepest(space, sample, anchors, start, budget, seed=11,
                             radius_frac=0.3, table=table)
        outcomes = []
        want = reference_refine(space, sample, anchors, start, budget, 11, 0.3, table,
                                outcomes)
        assert got[1] == want[1]
        assert _same(got[0], want[0])
        if budget >= 40:
            # Moves accepted before the last step make refinement draw its
            # proposals again, and some proposal is rejected on a tie.
            assert {"deeper", "tie-accept"} & set(outcomes[:-1])
            assert "tie-reject" in outcomes
        if budget == 64:
            # One one-query scan for the start and one for each proposal
            # that no witness rejects: fewer than the proposals.
            assert scans == [1] * len(scans)
            assert len(scans) - 1 < budget - outcomes.count("failed")


@pytest.mark.parametrize("anchor_kind", ["jiggled", "copies"])
@pytest.mark.parametrize("space,radius_frac,block_rows",
                         [(SPD(2), 0.3, True), (SPD(3), 0.3, False), (Euclidean(3), 0.0, True)],
                         ids=["spd:2", "spd:3", "euclidean:3-zero-steps"])
def test_refine_deepest_work_counts(anchor_kind, space, radius_frac, block_rows, rng,
                                    monkeypatch):
    # Each normal_steps call draws the next 8 steps, or the steps that
    # remain, from the step after the last move accepted or after the last
    # block read. The start takes a one-row distance call; then a geometry
    # whose entries are pairwise takes one call per draw, of the draw's
    # length, and spd:3 one one-row call per proposal read. Zero Euclidean
    # steps propose the current point itself, whose equal sum is no gain:
    # the start's own pair rejects every proposal without a scan.
    budget = 40
    sample, anchors, table, start = _refinement_case(space, anchor_kind, rng, "shallowest")
    spread = median_pairwise_distance(space, sample)
    outcomes = []
    reference_refine(space, sample, anchors, start, budget, 11, radius_frac, table, outcomes)
    if radius_frac == 0:
        assert outcomes == ["tie-reject"] * budget
    accepted = [step for step, outcome in enumerate(outcomes)
                if outcome in ("deeper", "tie-accept")]
    want, step = [], 0
    while step < budget:
        want.append(min(8, budget - step))
        moves = [s for s in accepted if step <= s < step + want[-1]]
        step = moves[0] + 1 if moves else step + want[-1]
    # Some move inside a block makes refinement draw before the block ends.
    assert radius_frac == 0 or len(want) > budget // 8
    rows, draws = [], []
    kind = type(space)
    distance_matrix, normal_steps = kind.distance_matrix, kind.normal_steps

    def counted_distances(self, xs, ys):
        rows.append(len(xs))
        return distance_matrix(self, xs, ys)

    def counted_steps(self, bases, scatters, normals):
        draws.append(len(bases))
        return normal_steps(self, bases, scatters, normals)

    monkeypatch.setattr(kind, "distance_matrix", counted_distances)
    monkeypatch.setattr(kind, "normal_steps", counted_steps)
    scans = counted_scans(monkeypatch)
    refine_deepest(space, sample, anchors, start, budget, seed=11, radius_frac=radius_frac,
                   table=table, spread=spread)
    assert rows == ([1] + want if block_rows else [1] * (budget + 1))
    assert draws == want
    if radius_frac == 0:
        assert scans == [1]


def test_refine_deepest_measures_a_failed_block_one_row_at_a_time(rng, monkeypatch):
    # A block call that fails is made again one row at a time: only the
    # proposal whose distances fail is rejected, and the rest of its block
    # is measured and decided as the reference loop decides it.
    space, budget = SPD(2), 40
    sample, anchors, table, start = _refinement_case(space, "jiggled", rng, "shallowest")
    outcomes, proposals = [], []
    reference_refine(space, sample, anchors, start, budget, 11, 0.3, table, outcomes,
                     proposals)
    # The first move accepted, before the last step of its block: blocks
    # start every 8 steps until a move is accepted.
    step = next(i for i, outcome in enumerate(outcomes) if outcome in ("deeper", "tie-accept"))
    assert step % 8 != 7
    marked, calls = proposals[step], []
    distance_matrix = SPD.distance_matrix

    def failing_distances(self, xs, ys):
        hit = [i for i, x in enumerate(xs) if _same(x, marked)]
        if hit:
            calls.append((len(xs), hit[0]))
            raise GeometryError("matrix is not positive definite")
        return distance_matrix(self, xs, ys)

    monkeypatch.setattr(SPD, "distance_matrix", failing_distances)
    got = refine_deepest(space, sample, anchors, start, budget, seed=11, radius_frac=0.3,
                         table=table)
    assert calls == [(min(8, budget - step // 8 * 8), step % 8), (1, 0)]
    outcomes = []
    want = reference_refine(space, sample, anchors, start, budget, 11, 0.3, table, outcomes)
    assert outcomes[step] == "failed"
    assert {"deeper", "tie-accept"} & set(outcomes[step + 1:])
    assert got[1] == want[1]
    assert _same(got[0], want[0])


@pytest.mark.parametrize("seed", range(10))
def test_refine_deepest_rejects_proposals_outside_the_cone(seed):
    # Steps of ten times the median distance leave the SPD cone through
    # rounding on most of these seeds; such proposals are rejected, and the
    # median is at least as deep as the refinement's start.
    space = SPD(3)
    config = SimulationConfig(case=1, space=space, n=20, reps=1, seed=0)
    sample, _ = sample_contaminated(config, 0)
    start = mhd_median(space, sample, jiggle_k=0, radius_frac=10.0, budget=0, seed=seed)
    result = mhd_median(space, sample, jiggle_k=0, radius_frac=10.0, budget=16, seed=seed)
    assert result.objective >= start.objective


def test_refine_deepest_names_the_failed_step(monkeypatch):
    # A draw of proposals that fails names the step and the setting to lower.
    space = SPD(3)
    config = SimulationConfig(case=1, space=space, n=20, reps=1, seed=0)
    sample, _ = sample_contaminated(config, 0)

    def failing_steps(self, bases, scatters, normals):
        raise GeometryError("matrix is not positive definite")

    monkeypatch.setattr(SPD, "normal_steps", failing_steps)
    with pytest.raises(NumericalError, match=r"^refinement step 1 of 16 failed: matrix "
                       r"is not positive definite; try a smaller --radius-frac$"):
        mhd_median(space, sample, jiggle_k=0, radius_frac=10.0, budget=16, seed=0)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
def test_frechet_mean_and_median_equal_tuple_loop(space, rng):
    sample = tuple(random_points(space, 12, rng))
    tol, max_iter = 1e-8, 25

    def mean_objective(dist):
        return np.mean(np.asarray(dist) ** 2, axis=-1)

    def median_objective(dist):
        return np.mean(np.asarray(dist), axis=-1)

    def mean_direction(x, dist):
        return space.mean_log(x, sample)

    def median_direction(x, dist):
        far = dist > WEISZFELD_GUARD
        if not far.any():
            return None
        weights = np.where(far, 1.0 / np.where(far, dist, 1.0), 0.0)
        v = space.mean_log(x, sample, weights=weights)
        return None if (~far).sum() >= space.tangent_norms([x], v)[0] * weights.sum() else v

    for fit, objective, direction in ((frechet_mean, mean_objective, mean_direction),
                                      (frechet_median, median_objective, median_direction)):
        try:
            want = reference_descent(space, sample, tol, max_iter, objective, direction)
        except NumericalError:
            with pytest.raises(NumericalError):
                fit(space, sample, tol=tol, max_iter=max_iter)
            continue
        got = fit(space, sample, tol=tol, max_iter=max_iter)
        assert _same(got.point, want[0])
        assert (got.objective, got.iterations, got.converged) == want[1:]
        if fit is frechet_mean:
            grad = space.tangent_norms([want[0]], space.mean_log(want[0], sample))[0]
            assert got.extras["grad_norm"] == grad


def reference_eigvalsh(mats):
    """Eigenvalues of a batch of symmetric matrices, closed form for k = 2,
    read through strided (..., 2, 2) views and stacked into pairs."""
    k = mats.shape[-1]
    if k == 2:
        a = mats[..., 0, 0]
        b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
        c = mats[..., 1, 1]
        mid = 0.5 * (a + c)
        rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b**2, 0.0))
        return np.stack([mid - rad, mid + rad], axis=-1)
    return np.linalg.eigvalsh(_sym(mats))


def einsum_distance_matrix(space, xs, ys):
    """The SPD kernel as two ``einsum(optimize=True)`` calls per row chunk."""
    left, right = space._stack(xs), space._stack(ys)
    s = space._inv_sqrt_stack(left)
    na, nb = len(left), len(right)
    out = np.empty((na, nb))
    chunk = max(1, int(4e6 // max(nb * space.size * space.size, 1)))
    for lo in range(0, na, chunk):
        hi = min(lo + chunk, na)
        mid = np.einsum("aij,bjk->abik", s[lo:hi], right, optimize=True)
        whitened = np.einsum("abik,akl->abil", mid, s[lo:hi], optimize=True)
        logs = np.log(np.maximum(reference_eigvalsh(whitened), EIG_FLOOR))
        out[lo:hi] = np.sqrt(np.sum(logs**2, axis=-1))
    return out


def spd_points(k, n, rng, scale=1.0):
    raw = rng.standard_normal((n, k, k))
    return list(scale * (raw @ np.swapaxes(raw, 1, 2) + 0.5 * np.eye(k)))


def spd_cases(k, rng):
    """Pairs of point lists that span row chunks, empty sides, and whitened
    eigenvalues from about 1e-6 to 1e6 with some at the identity."""
    nb = 400
    chunk = max(1, int(4e6 // (nb * k * k)))
    # Row counts 1 and one past the chunk size (two chunks, the last of one
    # row), and empty sides.
    points = spd_points(k, chunk + 1, rng)
    cases = [(points[:1], points[:1]), (points[:1], points[:nb]),
             (points[:nb], points[:1]), (points[:7], points[:nb]),
             (points, points[:nb]), (points[:0], points[:nb]),
             (points[:nb], points[:0]), (points[:0], points[:0])]
    return cases + spd_scale_cases(k, rng)


def spd_scale_cases(k, rng):
    # Each side mixes its own scale with the other's, so whitened
    # eigenvalues run from about 1e-6 to 1e6; points on both sides give
    # whitened matrices at the identity, with logs at or next to 0.
    cases = []
    for scale in (1e-3, 1e-1, 1e1, 1e3):
        xs = spd_points(k, 9, rng, scale)
        ys = spd_points(k, 31, rng, 1.0 / scale) + xs[:4]
        cases += [(xs, ys), (ys, xs), (xs[:1], ys), (ys, xs[:1]), (xs, xs)]
    return cases


@pytest.mark.parametrize("k", [1, 3, 4, 5])
def test_spd_kernel_equals_einsum_reference(k, rng):
    space = SPD(k)
    for xs, ys in spd_cases(k, rng):
        got = space.distance_matrix(xs, ys)
        assert got.shape == (len(xs), len(ys))
        assert np.array_equal(got, einsum_distance_matrix(space, xs, ys))


def test_spd2_kernel_equals_its_numpy_body(rng):
    from metricdepth import _native

    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    space = SPD(2)
    nan, inf = np.full((2, 2), np.nan), np.diag([np.inf, 1.0])
    cases = spd_cases(2, rng) + [(spd_points(2, 3, rng), [nan, inf, -inf, np.zeros((2, 2))])]
    for xs, ys in cases:
        got = space.distance_matrix(xs, ys)
        with numpy_kernels():
            want = space.distance_matrix(xs, ys)
        assert got.shape == (len(xs), len(ys))
        assert got.tobytes() == want.tobytes()


def test_spd2_distances_do_not_depend_on_the_call_shape(rng):
    space = SPD(2)
    # 230 x 920 is a depth-jiggle table call; 2001 rows span several chunks.
    for na, nb in ((230, 920), (2001, 40)):
        xs, ys = spd_points(2, na, rng), spd_points(2, nb, rng)
        full = space.distance_matrix(xs, ys)
        ones = np.concatenate([space.distance_matrix(xs[i:i + 1], ys) for i in range(na)])
        sevens = np.concatenate([space.distance_matrix(xs[i:i + 7], ys)
                                 for i in range(0, na, 7)])
        columns = rng.permutation(nb)[:nb // 3]
        picked = space.distance_matrix(xs, [ys[j] for j in columns])
        assert ones.tobytes() == full.tobytes()
        assert sevens.tobytes() == full.tobytes()
        assert picked.tobytes() == full[:, columns].tobytes()


def test_spd2_distances_do_not_depend_on_the_blas_thread_count():
    # A depth-jiggle table call: 230 spd:2 points against their 920 jiggled
    # anchors. Whitening through BLAS products gave other bits at two
    # OpenBLAS threads than at one.
    code = """if True:
        import hashlib
        import numpy as np
        from metricdepth.depth import jiggle_anchors
        from metricdepth.spaces import SPD
        space = SPD(2)
        raw = np.random.default_rng(0).standard_normal((230, 2, 2))
        sample = space.stack(raw @ np.swapaxes(raw, 1, 2) + 0.5 * np.eye(2))
        anchors = jiggle_anchors(space, sample, 3, 0.2, seed=0)
        dist = space.distance_matrix(sample, anchors.points)
        print(dist.shape, hashlib.sha256(dist.tobytes()).hexdigest())
    """
    digests = []
    for count in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": count}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        digests.append(out.stdout.strip())
    assert digests[0].startswith("(230, 920) ")
    assert digests[0] == digests[1]


def test_spd2_distance_between_equal_matrices_is_exactly_zero(rng):
    space = SPD(2)
    for scale in (1e-3, 1.0, 1e3):
        xs = spd_points(2, 50, rng, scale)
        dist = space.distance_matrix(xs, xs)
        assert (np.diagonal(dist) == 0.0).all()
        # Equal matrices off the diagonal, and copies, count too.
        dist = space.distance_matrix(xs[:5], [x.copy() for x in xs[3:8]])
        assert dist[3, 0] == 0.0 and dist[4, 1] == 0.0
        assert np.count_nonzero(dist == 0.0) == 2


def test_spd2_distances_within_their_error_bound_of_einsum_reference(rng):
    # The docstring's bound, 32 eps (cond(P) cond(Q) + d) from the exact
    # distance, applies to the einsum reference as well, so the two differ
    # by at most twice it.
    space = SPD(2)
    eps = np.finfo(float).eps
    for xs, ys in spd_scale_cases(2, rng):
        got = space.distance_matrix(xs, ys)
        want = einsum_distance_matrix(space, xs, ys)
        cond = np.linalg.cond(np.array(xs))[:, None] * np.linalg.cond(np.array(ys))[None, :]
        assert (np.abs(got - want) <= 64 * eps * (cond + want)).all()


def test_spd_kernel_peak_memory_is_bounded_by_its_chunk():
    # 2000 x 2000 on spd:2 took four row chunks of 500. The bound of five
    # (500, 2000, 2, 2) chunk temporaries beyond the output is the einsum
    # kernel's measured 4.75 rounded up; the per-pair kernel, in chunks of
    # 16 rows, reads 0.012, and its numpy body 0.092.
    space = SPD(2)
    n, k = 2000, 2
    points = space.stack(spd_points(k, n, np.random.default_rng(0)))
    chunk = int(4e6 // (n * k * k))
    chunk_bytes = chunk * n * k * k * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dist = space.distance_matrix(points, points)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= dist.nbytes + 5 * chunk_bytes


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
def test_stack_reads_like_the_points(space, rng):
    points = random_points(space, 9, rng)
    others = random_points(space, 4, rng)
    stacked = space.stack(points)
    assert len(stacked) == len(points)
    if isinstance(stacked, np.ndarray):
        assert not stacked.flags.writeable
    else:
        assert stacked == tuple(points)
    assert np.array_equal(space.distance_matrix(stacked, others),
                          space.distance_matrix(points, others))
    assert np.array_equal(space.distance_matrix(others, stacked),
                          space.distance_matrix(others, points))
    assert _same(space.mean_log(others[0], stacked), space.mean_log(others[0], points))


def test_stack_leaves_a_caller_array_writeable(rng):
    space = Euclidean(3)
    raw = rng.standard_normal((5, 3))
    stacked = space.stack(raw)
    assert not stacked.flags.writeable
    assert raw.flags.writeable


class NaNDistances(Euclidean):
    """A geometry whose distance between the first and last point is NaN."""

    def distance_matrix(self, xs, ys):
        dist = super().distance_matrix(xs, ys)
        dist[0, -1] = np.nan
        return dist


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
def test_median_pairwise_distance_is_numpy_median_of_the_upper_triangle(space, rng):
    # n = 2-9 gives odd and even counts of pairs; repeated points tie.
    for n in [*range(2, 10), 40]:
        sample = random_points(space, n, rng)
        for points in (sample, [sample[i % 3 if n > 3 else 0] for i in range(n)]):
            dist = space.distance_matrix(points, points)
            want = float(np.median(dist[np.triu_indices(n, 1)]))
            got = median_pairwise_distance(space, points)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    space = NaNDistances(2)
    for n in range(2, 7):
        assert np.isnan(median_pairwise_distance(space, random_points(space, n, rng)))


def reference_jiggle(space, sample, k, radius_frac, seed):
    """Jiggled anchors as a tuple of the sample points and their copies."""
    sample = tuple(sample)
    sigma = radius_frac * median_pairwise_distance(space, sample)
    bases = [x for x in sample for _ in range(k)]
    normals = derive_normals(seed, NS_JIGGLE, shape=(len(sample), k), dim=space.normal_count)
    return sample + tuple(space.normal_steps(bases, [sigma**2] * len(bases), normals))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
def test_jiggled_anchors_are_one_stack_of_the_tuple_built_points(space, rng):
    sample = random_points(space, 7, rng)
    n = len(sample)
    anchors = {k: jiggle_anchors(space, sample, k, 0.3, seed=8) for k in (2, 5)}
    for k, anchor_set in anchors.items():
        points = anchor_set.points
        assert type(points) is type(space.stack(sample))
        assert not isinstance(points, np.ndarray) or not points.flags.writeable
        assert len(points) == n * (k + 1)
        assert all(map(_same, points, reference_jiggle(space, sample, k, 0.3, 8)))
    small, large = anchors[2].points, anchors[5].points
    assert all(map(_same, small[:n], large[:n]))
    for i in range(n):
        assert all(map(_same, small[n + 2 * i: n + 2 * i + 2], large[n + 5 * i: n + 5 * i + 2]))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
def test_depth_calls_read_tuples_lists_and_stacks_alike(space, rng, monkeypatch):
    # Anchors that begin with the sample, in any of these forms, give
    # refinement the sample's distance sums from their first n columns.
    sample = random_points(space, 12, rng)
    queries = random_points(space, 4, rng)
    anchor_set = jiggle_anchors(space, sample, 2, 0.3, seed=3)
    spread = median_pairwise_distance(space, sample)
    table = halfspace_prob_table(space, sample, anchor_set)
    widths = []
    distance_matrix = type(space).distance_matrix

    def counted(self, xs, ys):
        widths.append(len(ys))
        return distance_matrix(self, xs, ys)

    results = []
    for form in (tuple, list, space.stack):
        s = form(sample)
        for anchors in (anchor_set, anchor_set.points, form(list(anchor_set.points))):
            start, depth, index = in_sample_deepest(space, s, anchors)
            monkeypatch.setattr(type(space), "distance_matrix", counted)
            refined = refine_deepest(space, s, anchors, start, 12, seed=4, radius_frac=0.3,
                                     table=table, spread=spread)
            monkeypatch.undo()
            fit = mhd_median(space, s, 2, 0.3, 12, seed=4)
            results.append((approx_depth(space, s, anchors, form(queries)).tobytes(),
                            approx_depth(space, s, anchors, s).tobytes(),
                            start, depth, index, *refined,
                            fit.point, fit.objective, fit.extras))
    assert set(widths) == {len(anchor_set)}
    assert all(_same(got, results[0]) for got in results[1:])
