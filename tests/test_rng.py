"""Derived streams against numpy's ``SeedSequence`` paths.

``metricdepth.rng`` runs the ``SeedSequence`` entropy mix itself, over many
paths at once. Stream ``(seed, *path)`` must stay numpy's
``default_rng(SeedSequence([seed, *path]))``, every entry masked to 64 bits,
so these tests compare generator states and draws with numpy's own.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from metricdepth.rng import NS_REFINE, derive_draw32, derive_rng, derive_rngs, derive_seed

MASK64 = 2**64 - 1
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1, -1, -(2**63)]
PREFIXES = [(), (3,), (2, 2**33), (1, 2**64 - 1, 0), (0, 0, 0, 0, 0)]


def reference(seed, *path):
    entropy = [int(v) & MASK64 for v in (seed, *path)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def assert_same_stream(gen, ref):
    assert gen.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(gen.standard_normal(7), ref.standard_normal(7))
    assert np.array_equal(gen.permutation(11), ref.permutation(11))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
@pytest.mark.parametrize("shape", [(0,), (1,), (3, 4)], ids=repr)
def test_derive_rngs_equals_seed_sequence_paths(seed, prefix, shape):
    gens = list(derive_rngs(seed, *prefix, shape=shape))
    indices = list(np.ndindex(shape))
    assert len(gens) == len(indices)
    for gen, idx in zip(gens, indices):
        assert_same_stream(gen, reference(seed, *prefix, *idx))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
def test_single_stream_and_seed_equal_seed_sequence(seed, prefix):
    assert_same_stream(derive_rng(seed, *prefix), reference(seed, *prefix))
    entropy = [int(v) & MASK64 for v in (seed, *prefix)]
    expected = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    assert derive_seed(seed, *prefix) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", [(NS_REFINE,), *PREFIXES], ids=repr)
def test_first_32_bit_draw_equals_generator_integers(seed, prefix):
    # The depth median seeds its refinement with this draw of stream
    # (seed, NS_REFINE).
    assert derive_draw32(seed, *prefix) == reference(seed, *prefix).integers(2**32).item()


def test_derived_generators_pickle_mid_stream():
    for gen in (derive_rng(4, 2), next(derive_rngs(4, shape=(3,)))):
        gen.standard_normal(3)
        copy = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(copy.standard_normal(5), gen.standard_normal(5))


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, metricdepth.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("n, dim", [(0, 3), (1, 1), (50, 3), (200, 6)])
def test_one_block_of_normals_is_the_successive_draws(n, dim):
    # Simulated sampling reads its one stream, after the outlier mask, as a
    # single standard_normal((n, dim)) for n successive draws of dim.
    block, successive = derive_rng(9, 6), derive_rng(9, 6)
    block.random(5)
    successive.random(5)
    got = block.standard_normal((n, dim))
    want = np.array([successive.standard_normal(dim) for _ in range(n)]).reshape(n, dim)
    assert got.tobytes() == want.tobytes()
    assert block.bit_generator.state == successive.bit_generator.state


def loads_numpy_random(command, tmp_path) -> bool:
    """Whether running the CLI ``command`` on a 12-point euclidean:2 file
    imports ``numpy.random``, in a fresh process."""
    data = tmp_path / "points.csv"
    data.write_text("".join(f"{t / 4!r},{t * t / 16!r}\n" for t in range(12)))
    args = [command[0], "--space", "euclidean:2", "--data", str(data), *command[1:],
            "--out", str(tmp_path / "out")]
    code = ("import sys\nfrom metricdepth.cli import main\n"
            f"main({args!r}, standalone_mode=False)\nprint('numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_compiled_jiggled_depth_leaves_numpy_random_unloaded(tmp_path):
    from metricdepth import _native

    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    assert not loads_numpy_random(["depth", "--self", "--anchors", "jiggle:2"], tmp_path)


def test_compiled_depth_median_leaves_numpy_random_unloaded(tmp_path):
    # Jiggling, the refinement seed and the refinement steps all draw
    # without numpy.random.
    from metricdepth import _native

    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    command = ["median", "--estimator", "mhd", "--jiggle", "2", "--budget", "4"]
    assert not loads_numpy_random(command, tmp_path)
