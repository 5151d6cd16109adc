import numpy as np
import numpy.testing as npt
import pytest

from nestfactor import (
    InvalidNestError,
    Projection,
    canonical_factor,
    channel_nest,
    exp_volterra_operator,
    explicit_nest,
    load_nest,
    op_norm,
    read_matrix_csv,
    save_nest,
    run_family,
    standard_nest,
    volterra_family,
    write_matrix_csv,
)
from nestfactor.serialize import (
    DIAGONAL_HEADER,
    FACTOR_HEADER,
    STABILITY_HEADER,
    convergence_rows,
    diagonal_rows,
    factorization_rows,
    fmt,
    write_csv,
)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, a)
    npt.assert_array_equal(read_matrix_csv(path), a)  # repr round-trips exactly


def test_matrix_csv_rejects_empty(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(path)


def test_matrix_csv_rejects_bad_dimension_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("two\n1.0,0.0\n0.0,1.0\n")
    with pytest.raises(ValueError, match="dimension"):
        read_matrix_csv(path)


def test_matrix_csv_rejects_missing_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("3\n1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="expected 3 rows"):
        read_matrix_csv(path)


def test_matrix_csv_rejects_short_row_with_line_number(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2\n1.0,0.0\n0.5\n")
    with pytest.raises(ValueError, match="line 3 has 1 values"):
        read_matrix_csv(path)


def test_matrix_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2\n1.0,inf\n0.0,1.0\n")
    with pytest.raises(ValueError, match="finite"):
        read_matrix_csv(path)


def test_fmt():
    assert fmt(3) == "3"
    assert fmt(np.int64(4)) == "4"
    assert fmt(float("nan")) == "nan"
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(0.25)) == "0.25"
    assert fmt("sup") == "sup"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 0.5], [2, float("nan")]])
    assert path.read_text() == "a,b\n1,0.5\n2,nan\n"


def test_standard_nest_round_trip(tmp_path):
    path = tmp_path / "nest.txt"
    save_nest(path, standard_nest(6), kind="standard")
    loaded = load_nest(path)
    ref = standard_nest(6)
    npt.assert_array_equal(loaded.grid, ref.grid)
    for j in range(len(ref.grid)):
        npt.assert_array_equal(loaded.x(j), ref.x(j))


def test_standard_kind_rejects_other_nests(tmp_path):
    nest = standard_nest(3)
    rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    scrambled = explicit_nest(
        1.0,
        nest.grid,
        tuple(Projection(rot @ nest.x(j) @ rot.T, k) for j, k in enumerate(nest.ranks)),
    )
    with pytest.raises(ValueError, match="standard"):
        save_nest(tmp_path / "nest.txt", scrambled, kind="standard")


def test_channel_nest_round_trip(tmp_path):
    nest = channel_nest([standard_nest(3), standard_nest(3)])
    path = tmp_path / "nest.txt"
    save_nest(path, nest, kind="channel", blocks=[3, 3])
    loaded = load_nest(path)
    assert loaded.dim == 6
    npt.assert_array_equal(loaded.grid, nest.grid)
    for j in range(len(nest.grid)):
        npt.assert_array_equal(loaded.x(j), nest.x(j))


def test_channel_kind_needs_matching_blocks(tmp_path):
    nest = channel_nest([standard_nest(3), standard_nest(3)])
    with pytest.raises(ValueError, match="block sizes"):
        save_nest(tmp_path / "nest.txt", nest, kind="channel")
    with pytest.raises(ValueError, match="block sizes"):
        save_nest(tmp_path / "nest.txt", nest, kind="channel", blocks=[2, 2])


def rotated_nest(n, seed=11):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    base = standard_nest(n)
    return explicit_nest(
        base.horizon,
        base.grid,
        tuple(Projection(q @ base.x(j) @ q.T, k) for j, k in enumerate(base.ranks)),
    )


def test_explicit_nest_round_trip(tmp_path):
    """A coordinate nest round-trips bit for bit; a rotated nest reloads its
    written matrices, from which the basis is derived again, so its X_j come
    back up to rounding."""
    path = tmp_path / "nest.txt"
    for nest, tol in ((standard_nest(4), 0.0),
                      (channel_nest([standard_nest(2)] * 2), 0.0),
                      (rotated_nest(4), 1e-14)):
        save_nest(path, nest)
        loaded = load_nest(path)
        assert loaded.horizon == nest.horizon
        npt.assert_array_equal(loaded.grid, nest.grid)
        assert loaded.ranks == nest.ranks
        for j in range(len(nest.grid)):
            assert op_norm(loaded.x(j) - nest.x(j)) <= tol
        if tol == 0.0:
            npt.assert_array_equal(loaded.basis, nest.basis)


def test_explicit_descriptor_layout(tmp_path):
    path = tmp_path / "nest.txt"
    save_nest(path, standard_nest(2))
    assert path.read_text() == (
        "kind = explicit\nT = 1.0\ngrid = 0.0, 0.5, 1.0\ndim = 2\n"
        "[projection 0] rank=0\n0.0,0.0\n0.0,0.0\n"
        "[projection 1] rank=1\n1.0,0.0\n0.0,0.0\n"
        "[projection 2] rank=2\n1.0,0.0\n0.0,1.0\n"
    )


def test_load_nest_refuses_an_explicit_descriptor_that_is_not_a_nest(tmp_path):
    path = tmp_path / "nest.txt"
    save_nest(path, standard_nest(2))
    text = path.read_text().replace("rank=1\n1.0,0.0\n0.0,0.0", "rank=1\n0.0,0.0\n0.0,1.0")
    path.write_text(text.replace("rank=0\n0.0,0.0\n0.0,0.0", "rank=0\n0.0,0.0\n0.0,0.5"))
    with pytest.raises(InvalidNestError) as refusal:
        load_nest(path)
    assert refusal.value.defects.border_start == 0.5
    assert not refusal.value.defects.ok


def test_save_nest_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        save_nest(tmp_path / "nest.txt", standard_nest(2), kind="implicit")


def test_load_nest_rejects_garbage(tmp_path):
    path = tmp_path / "nest.txt"
    path.write_text("kind = explicit\nnot a field line\n")
    with pytest.raises(ValueError, match="unrecognized line"):
        load_nest(path)


def test_report_rows_match_headers(tmp_path):
    c = exp_volterra_operator(0.3, 8)
    nest = standard_nest(8)
    rep = canonical_factor(c, nest, schedule=3, full_schedule=True)
    frows = factorization_rows(rep)
    assert len(frows) == len(rep.history)
    assert all(len(r) == len(FACTOR_HEADER) for r in frows)
    drows = diagonal_rows(rep.diag_report)
    assert all(len(r) == len(DIAGONAL_HEADER) for r in drows)
    harness = run_family(
        volterra_family(0.3, (2.0, 4.0), 8), nest, schedule=3
    ).harness
    crows = convergence_rows(harness)
    assert len(crows) == 2
    assert all(len(r) == len(STABILITY_HEADER) for r in crows)
    write_csv(tmp_path / "r.csv", FACTOR_HEADER, frows)
    first = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert first == ",".join(FACTOR_HEADER)
