import numpy as np
import numpy.testing as npt
import pytest

from nestfactor import (
    Nest,
    Projection,
    canonical_factor,
    channel_nest,
    exp_volterra_operator,
    load_nest,
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
    for p, q in zip(loaded.projections, ref.projections):
        npt.assert_array_equal(p.matrix, q.matrix)


def test_standard_kind_rejects_other_nests(tmp_path):
    nest = standard_nest(3)
    rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    scrambled = Nest(
        1.0,
        nest.grid,
        tuple(Projection(rot @ p.matrix @ rot.T, p.rank) for p in nest.projections),
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
    for p, q in zip(loaded.projections, nest.projections):
        npt.assert_array_equal(p.matrix, q.matrix)


def test_channel_kind_needs_matching_blocks(tmp_path):
    nest = channel_nest([standard_nest(3), standard_nest(3)])
    with pytest.raises(ValueError, match="block sizes"):
        save_nest(tmp_path / "nest.txt", nest, kind="channel")
    with pytest.raises(ValueError, match="block sizes"):
        save_nest(tmp_path / "nest.txt", nest, kind="channel", blocks=[2, 2])


def rotated_nest(n, seed=11):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    base = standard_nest(n)
    return Nest(
        base.horizon,
        base.grid,
        tuple(Projection(q @ p.matrix @ q.T, p.rank) for p in base.projections),
    )


def test_explicit_nest_round_trip(tmp_path):
    nest = rotated_nest(4)
    path = tmp_path / "nest.txt"
    save_nest(path, nest)
    loaded = load_nest(path)
    assert loaded.horizon == nest.horizon
    npt.assert_array_equal(loaded.grid, nest.grid)
    for p, q in zip(loaded.projections, nest.projections):
        assert p.rank == q.rank
        npt.assert_array_equal(p.matrix, q.matrix)


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
