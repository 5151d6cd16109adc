import tracemalloc
from dataclasses import astuple

import numpy as np
import numpy.testing as npt
import pytest

from nestfactor import (
    canonical_factor,
    exp_volterra_operator,
    factor_diagnostics,
    read_matrix_csv,
    run_family,
    standard_nest,
    volterra_family,
    write_matrix_csv,
)
from nestfactor.cli import (
    FACTOR_HEADER,
    STABILITY_HEADER,
    factorization_rows,
)
from nestfactor.serialize import fmt, write_csv


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, a)
    npt.assert_array_equal(read_matrix_csv(path), a)  # repr round-trips exactly


def test_matrix_csv_writes_row_by_row(tmp_path):
    """The bytes are the joined text (the dimension line, then each row's
    fmt cells joined by commas, each line ended by a newline), and writing
    a 512 x 512 matrix (about 5 MB of text) holds one row's text at a time:
    the tracemalloc peak stays under 1 MB (0.05 MB measured; joining the
    text first peaked at 15.5 MB)."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a[1, 2], a[3, 0] = 0.0, -1e-300
    path = tmp_path / "small.csv"
    write_matrix_csv(path, a)
    joined = "\n".join(["4", *(",".join(fmt(x) for x in row) for row in a)]) + "\n"
    assert path.read_bytes() == joined.encode()
    big = rng.standard_normal((512, 512))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "big.csv", big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 4_000_000
    assert peak < 1_000_000


def test_matrix_csv_reads_the_bits_float_reads(tmp_path):
    """Each row is parsed in one call, to the bits ``float`` gives each
    token: on the reprs of random finite doubles (subnormals included) and
    on tokens such as 5e-324, -0.0, 1e308, 1_0 and ' 2 '.  Tokens that parse
    to inf or nan are refused as non-finite, as ``float`` reads them."""
    rng = np.random.default_rng(11)
    values = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(float)
    special = ["5e-324", "-0.0", "1e308", "-1e308", "1_0", " 2 ", "+3", "1E-320", "0.1"]
    n = 40
    tokens = special + [repr(float(x)) for x in values[np.isfinite(values)]]
    tokens = tokens[:n * n]
    assert len(tokens) == n * n
    path = tmp_path / "m.csv"
    path.write_text("\n".join([str(n)] + [",".join(tokens[k:k + n])
                                           for k in range(0, n * n, n)]) + "\n")
    expected = np.array([float(t) for t in tokens]).reshape(n, n)
    assert read_matrix_csv(path).tobytes() == expected.tobytes()
    for bad in ("1e400", "-1e400", "nan", "inf"):
        assert not np.isfinite(float(bad))
        path.write_text(f"2\n1.0,{bad}\n0.0,1.0\n")
        with pytest.raises(ValueError, match="finite"):
            read_matrix_csv(path)
    path.write_text("2\n1.0,x\n0.0,1.0\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        read_matrix_csv(path)


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


def test_report_rows_match_headers(tmp_path):
    c = exp_volterra_operator(0.3, 8)
    nest = standard_nest(8)
    rep = canonical_factor(c, nest, schedule=3, full_schedule=True)
    frows = factorization_rows(factor_diagnostics(c, rep, rep.levels))
    assert len(frows) == len(rep.levels)
    assert all(len(r) == len(FACTOR_HEADER) for r in frows)
    harness = run_family(
        volterra_family(0.3, (2.0, 4.0), 8), nest, schedule=3
    ).harness
    # the CSV schema, pinned so that renaming a ConvergenceRow field cannot change it
    assert STABILITY_HEADER == ["alpha", "op_defect", "proj_defect", "max_pairing",
                                "term1", "term2", "term3", "term4", "bound_margin"]
    assert len(harness.rows) == 2
    assert all(len(astuple(r)) == len(STABILITY_HEADER) for r in harness.rows)
    write_csv(tmp_path / "r.csv", FACTOR_HEADER, frows)
    first = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert first == ",".join(FACTOR_HEADER)
