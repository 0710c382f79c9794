"""Stacked point checks against the one-point path.

Every geometry validates a whole stack of raw points in one pass
(``validate_points``) and decodes a file's rows together
(``decode_points``); ``validate_point`` and ``decode_point`` are their
N = 1 entries. These tests pin what that promises: points read in one
stack are bit-identical to the rows decoded one at a time and to the
one-point formulas (a sphere row divided by its ``np.linalg.norm``, an SPD
matrix averaged with its transpose), and a file with bad rows fails on
the first bad row, with the message and line number a row-by-row read
gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth.errors import DataError, PointValidationError
from metricdepth.io import read_points
from metricdepth.spaces import SPD, Euclidean, Product, Sphere, Spider3, parse_space
from metricdepth.spaces.spider import SpiderPoint

SPECS = ["euclidean:3", "sphere:2", "spd:2", "spider3", "product:spd:2+sphere:2"]

# Rows that fail each geometry's check, one per kind of failure: wrong
# length, non-finite, unparsable, and the geometry's own conditions.
BAD_ROWS = {
    "euclidean": ["1,2", "1,nan,3", "x,1,2", "1,inf,0", "1,2,3,4"],
    "sphere": ["1,1,0", "1,0", "nan,0,1", "a,b,c", "0,0,0"],
    "spd": ["1,2,3,1", "1,2,2,1", "1,0,0", "1,0,0,nan", "zz", "-1,0,0,-1"],
    "spider3": ["4,1.0", "1,-1", "1", "x,1", "2,nan"],
}


def raw_row(space, rng):
    """One valid raw point as a flat float list, off the exact point where
    the geometry normalizes: sphere rows miss unit norm and SPD rows miss
    symmetry, each within tolerance."""
    if isinstance(space, Euclidean):
        return list(rng.standard_normal(space.dim) * 10.0 ** rng.integers(-3, 4))
    if isinstance(space, Sphere):
        x = rng.standard_normal(space.ambient_dim)
        return list(x / np.linalg.norm(x) * (1.0 + rng.uniform(-5e-7, 5e-7)))
    if isinstance(space, SPD):
        k = space.size
        a = rng.standard_normal((k, k))
        p = a @ a.T + 0.5 * np.eye(k)
        p[0, -1] += rng.uniform(-5e-7, 5e-7)
        return list(p.reshape(-1))
    if isinstance(space, Spider3):
        radius = 0.0 if rng.random() < 0.2 else float(abs(rng.standard_normal()))
        return [radius, int(rng.integers(1, 4))]
    raise NotImplementedError(type(space))


def encode_raw(space, raw) -> str:
    if isinstance(space, Spider3):
        return f"{raw[1]},{raw[0]!r}"
    return ",".join(repr(float(v)) for v in raw)


def one_point_reference(space, raw):
    """The point the one-point formulas make from a valid raw row."""
    x = np.asarray(raw, dtype=float)
    if isinstance(space, Euclidean):
        return x
    if isinstance(space, Sphere):
        return x / np.linalg.norm(x)
    if isinstance(space, SPD):
        p = x.reshape(space.size, space.size)
        return 0.5 * (p + p.T)
    radius, branch = raw
    return SpiderPoint(radius=radius, branch=1 if radius == 0.0 else branch)


def same_point(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_point(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == np.shape(b) and np.array_equal(a, b)
    return a == b


def valid_rows(space, n, rng):
    """n valid rows of ``space`` as CSV text and the points they stand for."""
    parts = space.components if isinstance(space, Product) else (space,)
    raws = [[raw_row(part, rng) for part in parts] for _ in range(n)]
    texts = ["|".join(encode_raw(part, r) for part, r in zip(parts, raw)) for raw in raws]
    points = [tuple(one_point_reference(part, r) for part, r in zip(parts, raw))
              for raw in raws]
    if not isinstance(space, Product):
        points = [p[0] for p in points]
    return texts, points


def bad_row(space, good: str, choice: int, component: int) -> str:
    """A row that fails: for a product, one component made bad (or the
    wrong number of '|' parts when ``component`` is past the last)."""
    if not isinstance(space, Product):
        options = BAD_ROWS[space.kind]
        return options[choice % len(options)]
    parts = good.split("|")
    if component >= len(parts):
        return parts[0]
    options = BAD_ROWS[space.components[component].kind]
    parts[component] = options[choice % len(options)]
    return "|".join(parts)


def write_file(path, texts, rng):
    """The rows with blank and comment lines between them, so file line
    numbers and row indices differ."""
    lines = []
    for text in texts:
        while rng.random() < 0.3:
            lines.append("" if rng.random() < 0.5 else "# note")
        lines.append(text)
    path.write_text("\n".join(lines) + "\n")
    return lines


def row_by_row_error(space, path, lines) -> str | None:
    """The DataError text of a read that decodes one row at a time."""
    for lineno, line in enumerate(lines, start=1):
        row = line.strip()
        if not row or row.startswith("#"):
            continue
        try:
            space.decode_point(row)
        except PointValidationError as exc:
            return f"{path}: row {lineno}: {exc}"
    return None


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 40))
def test_stacked_read_is_bit_identical_to_one_point_decoding(tmp_path_factory, spec, seed, n):
    space = parse_space(spec)
    rng = np.random.default_rng(seed)
    texts, want = valid_rows(space, n, rng)
    path = tmp_path_factory.mktemp("read") / "points.csv"
    write_file(path, texts, rng)
    got = read_points(path, space)
    assert len(got) == n
    for point, text, reference in zip(got, texts, want):
        assert same_point(point, space.decode_point(text))
        assert same_point(point, reference)
    assert all(same_point(a, b) for a, b in zip(space.decode_points(texts), got))


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 15),
       bad=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 9), st.integers(0, 2)),
                    min_size=1, max_size=4))
def test_first_bad_row_fails_with_the_one_point_message(tmp_path_factory, spec, seed, n, bad):
    # Bad rows land at random lines, several per file; in a product each
    # names a component, so components can fail on different rows or on
    # the same one.
    space = parse_space(spec)
    rng = np.random.default_rng(seed)
    texts, _ = valid_rows(space, n, rng)
    for position, choice, component in bad:
        i = position % n
        texts[i] = bad_row(space, texts[i], choice, component)
    path = tmp_path_factory.mktemp("bad") / "points.csv"
    lines = write_file(path, texts, rng)
    want = row_by_row_error(space, path, lines)
    assert want is not None
    with pytest.raises(DataError) as caught:
        read_points(path, space)
    assert str(caught.value) == want


@pytest.mark.parametrize("rows, row, message", [
    # The sphere part fails on row 1, the SPD part on row 2.
    (["1,0,0,1|1,0,0", "1,0,0,1|1,1,0", "1,2,2,1|1,0,0"], 1, "vector norm"),
    # The SPD part fails on row 1, the sphere part on row 2.
    (["1,0,0,1|1,0,0", "1,2,2,1|1,0,0", "1,0,0,1|1,1,0"], 1, "not positive definite"),
    # Both fail on row 1: the first component is met first.
    (["1,0,0,1|1,0,0", "1,2,2,1|1,1,0"], 1, "not positive definite"),
    # A row with one part fails before later component failures.
    (["1,0,0,1|1,0,0", "1,0,0,1", "1,2,2,1|1,1,0"], 1, "'|'-separated"),
    # A component failure before a row with the wrong part count wins.
    (["1,0,0,1|1,1,0", "1,0,0,1"], 0, "vector norm"),
])
def test_product_reports_the_first_failing_row_and_component(rows, row, message):
    space = Product((SPD(2), Sphere(2)))
    with pytest.raises(PointValidationError, match=message) as caught:
        space.decode_points(rows)
    assert caught.value.row == row


@pytest.mark.parametrize("space, raws", [
    (Euclidean(2), [[1.0, 2.0], [[3.0, 4.0]], np.array([5.0, 6.0])]),
    (SPD(2), [[2.0, 0.0, 0.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]]),
])
def test_mixed_raw_shapes_stack_like_one_point_checks(space, raws):
    # Raw points of different accepted shapes take the row-by-row stacking
    # path and still match the one-point entries.
    got = space.validate_points(raws)
    assert all(same_point(g, space.validate_point(r)) for g, r in zip(got, raws))


@pytest.mark.parametrize("spec, rows, row, message", [
    # A later check must not replace an earlier row's failure with a
    # later row's: each check sees only the rows before the first failure.
    ("sphere:2", ["1,0,0", "nan,0,1", "1,1,0"], 1, "non-finite"),
    ("sphere:2", ["1,0,0", "1,1,0", "nan,0,1"], 1, "vector norm"),
    ("spd:2", ["1,0,0,1", "1,2,3,1", "1,2,2,1"], 1, "asymmetry"),
    ("spd:2", ["1,0,0,1", "1,inf,inf,1", "1,2,3,1", "1,2,2,1"], 1, "non-finite"),
    ("spd:2", ["1,0,0,1", "1,2,2,1", "1,2,3,1"], 1, "not positive definite"),
])
def test_each_check_stops_at_the_first_failing_row(spec, rows, row, message):
    with pytest.raises(PointValidationError, match=message) as caught:
        parse_space(spec).decode_points(rows)
    assert caught.value.row == row


def test_wrong_shape_after_a_bad_value_reports_the_earlier_row():
    space = Euclidean(2)
    with pytest.raises(PointValidationError, match="non-finite") as caught:
        space.validate_points([[0.0, 1.0], [np.nan, 1.0], [1.0]])
    assert caught.value.row == 1
    with pytest.raises(PointValidationError, match="length 2") as caught:
        space.validate_points([[0.0, 1.0], [1.0], [np.nan, 1.0]])
    assert caught.value.row == 1
    # Accepted shapes that do not stack together, then a bad value.
    with pytest.raises(PointValidationError, match="non-finite") as caught:
        space.validate_points([[0.0, 1.0], [[2.0, 3.0]], [np.nan, 1.0], [1.0]])
    assert caught.value.row == 2


def test_a_failing_stack_is_checked_again_in_halves(monkeypatch):
    # A valid stack is checked once. A stack whose last row is bad is
    # checked whole, then in two halves at each level down to that row.
    calls = []
    check = Euclidean._check_stack

    def counted(self, rows):
        calls.append(len(rows))
        return check(self, rows)

    monkeypatch.setattr(Euclidean, "_check_stack", counted)
    space = Euclidean(2)
    rows = [[float(i), 1.0] for i in range(1023)] + [[np.nan, 1.0]]
    with pytest.raises(PointValidationError, match="non-finite") as caught:
        space.validate_points(rows)
    assert caught.value.row == 1023
    assert len(calls) <= 21 and sum(calls) <= 3 * 1024
    calls.clear()
    assert len(space.validate_points(rows[:-1])) == 1023
    assert calls == [1023]


@pytest.mark.parametrize("spec", SPECS)
def test_an_empty_stack_validates_to_no_points(spec):
    space = parse_space(spec)
    assert space.validate_points([]) == [] and space.decode_points([]) == []


@pytest.mark.parametrize("spec", ["euclidean:3", "sphere:2", "spd:2"])
def test_stacked_points_are_read_only(spec):
    space = parse_space(spec)
    texts, _ = valid_rows(space, 5, np.random.default_rng(3))
    for point in space.decode_points(texts):
        assert not point.flags.writeable
        with pytest.raises(ValueError):
            point.flags.writeable = True
