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

from metricdepth.rng import derive_rng, derive_rngs, derive_seed

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
