import builtins
import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from bestsubset.data import (
    Binary,
    Continuous,
    Dataset,
    Survival,
    destandardize_coefficients,
    load_csv,
    save_csv,
    standardize,
)
from bestsubset.datagen import GenConfig, gen_dataset
from bestsubset.families import ModelFamily, fit_active

COX = ModelFamily("cox")


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_gaussian(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n1,0,2\n")
        d = load_csv(p, "gaussian")
        assert d.n == 4 and d.p == 2
        assert d.column_names == ("x1", "x2")
        assert isinstance(d.response, Continuous)
        np.testing.assert_array_equal(d.response.y, [3, 6, 9, 2])
        np.testing.assert_array_equal(d.X[:, 0], [1, 4, 7, 1])

    def test_binary_out_of_range(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,y\n1,0\n2,1\n3,2\n")
        with pytest.raises(ValueError, match="binary response out of range"):
            load_csv(p, "binomial")

    def test_survival_no_events(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,time,status\n1,2.0,0\n2,1.5,0\n")
        with pytest.raises(ValueError, match="no events"):
            load_csv(p, "cox")

    def test_survival_nonpositive_time(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,time,status\n1,0.0,1\n2,1.5,0\n")
        with pytest.raises(ValueError, match="positive"):
            load_csv(p, "cox")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="file not found"):
            load_csv(str(tmp_path / "nope.csv"), "gaussian")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,y\n1,2\nfoo,3\n")
        with pytest.raises(ValueError, match=r"row 2, column 'x1'"):
            load_csv(p, "gaussian")

    def test_missing_value_reports_location(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,y\n1,2\n,3\n")
        with pytest.raises(ValueError, match=r"missing value at row 2"):
            load_csv(p, "gaussian")

    def test_headerless_uses_last_columns(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(p, "gaussian", header=False)
        assert d.column_names == ("X1", "X2")
        np.testing.assert_array_equal(d.response.y, [3, 6, 9])

    def test_headerless_rejects_named_response(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,3\n4,5,6\n7,8,9\n")
        for family, response in (("gaussian", "z"), ("gaussian", "y"),
                                 ("cox", ("time", "status"))):
            with pytest.raises(ValueError, match="only be named with a header"):
                load_csv(p, family, response=response, header=False)

    def test_custom_response_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "out,x1\n1,2\n2,4\n")
        d = load_csv(p, "gaussian", response="out")
        assert d.column_names == ("x1",)
        np.testing.assert_array_equal(d.response.y, [1, 2])

    def test_round_trip_is_fixed_point(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        responses = {
            "gaussian": Continuous(rng.standard_normal(6)),
            "binomial": Binary([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
            "cox": Survival(rng.uniform(0.1, 2.0, 6), [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
        }
        for family, response in responses.items():
            saved = tmp_path / f"{family}.csv"
            save_csv(Dataset(X, response), saved)
            text = saved.read_text()
            assert text.split("\n", 1)[0].split(",")[3:] == list(response.columns)
            for header in (True, False):
                source = text if header else text.split("\n", 1)[1]
                d1 = load_csv(write(tmp_path / "a.csv", source), family, header=header)
                save_csv(d1, tmp_path / "b.csv")
                assert (tmp_path / "b.csv").read_text() == text
                d2 = load_csv(str(tmp_path / "b.csv"), family)
                assert type(d1.response) is type(d2.response) is type(response)
                assert d1.column_names == d2.column_names == ("X1", "X2", "X3")
                np.testing.assert_array_equal(d1.X, X)
                np.testing.assert_array_equal(d2.X, X)
                for name in response.columns:
                    expected = getattr(response, name)
                    np.testing.assert_array_equal(getattr(d1.response, name), expected)
                    np.testing.assert_array_equal(getattr(d2.response, name), expected)

    def test_survival_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        d = Dataset(
            rng.standard_normal((5, 2)),
            Survival(rng.uniform(0.1, 2.0, 5), np.array([1, 0, 1, 1, 0.0])),
        )
        f = tmp_path / "s.csv"
        save_csv(d, f)
        d1 = load_csv(str(f), "cox")
        np.testing.assert_array_equal(d1.response.time, d.response.time)
        np.testing.assert_array_equal(d1.response.status, d.response.status)

    @pytest.mark.parametrize(
        "text, family, header, message",
        [
            ("x1,x2,y\n1,2,3\n4,5\n", "gaussian", True,
             "row 2 has 2 fields, expected 3"),
            ("x1,x2,y\n1,2,3,4\n", "gaussian", True,
             "row 1 has 4 fields, expected 3"),
            ("x1,x2,y\n1,2,3\n4\n", "gaussian", True,
             "row 2 has 1 fields, expected 3"),
            ("x1,x2,y\n1,,3\n", "gaussian", True,
             "missing value at row 1, column 'x2'"),
            ("x1,x2,y\n1,2,3\n4,  ,6\n", "gaussian", True,
             "missing value at row 2, column 'x2'"),
            ("x1,x2,y\n1,2,3\n4,5, abc \n", "gaussian", True,
             "non-numeric value 'abc' at row 2, column 'y'"),
            (" x1 ,x2,y\n1e,2,3\n", "gaussian", True,
             "non-numeric value '1e' at row 1, column 'x1'"),
            # a bad cell before a ragged row, and a ragged row before a bad cell
            ("x1,x2,y\n1,x,3\n4,5\n", "gaussian", True,
             "non-numeric value 'x' at row 1, column 'x2'"),
            ("x1,x2,y\n1,2\n4,x,6\n", "gaussian", True,
             "row 1 has 2 fields, expected 3"),
            # within a row, the field count comes first, then cells left to right
            ("x1,x2,y\nfoo,2\n", "gaussian", True, "row 1 has 2 fields, expected 3"),
            ("x1,x2,y\n,foo,3\n", "gaussian", True,
             "missing value at row 1, column 'x1'"),
            # blank lines are skipped and not counted
            ("x1,y\n\n1,2\n\n3,x\n", "gaussian", True,
             "non-numeric value 'x' at row 2, column 'y'"),
            ("1,2,3\n4,5\n", "gaussian", False, "row 2 has 2 fields, expected 3"),
            ("1,2,3\n4,5,6,7\n", "gaussian", False, "row 2 has 4 fields, expected 3"),
            ("1,2,3\n4,5,\n", "gaussian", False, "missing value at row 2, column 'y'"),
            ("1,2,1\n3, ,0\n", "cox", False, "missing value at row 2, column 'time'"),
            ("1,2,3\n4,x,6\n", "gaussian", False,
             "non-numeric value 'x' at row 2, column 'X2'"),
            ("1,x,3\n4,5\n", "gaussian", False,
             "non-numeric value 'x' at row 1, column 'X2'"),
            ("1,2\n4,x,6\n", "gaussian", False, "row 2 has 3 fields, expected 2"),
            ("x1,y\n", "gaussian", True, "need at least 2 observations"),
        ],
    )
    def test_error_corpus(self, tmp_path, text, family, header, message):
        p = write(tmp_path / "d.csv", text)
        with pytest.raises(ValueError) as excinfo:
            load_csv(p, family, header=header)
        assert str(excinfo.value) == message

    def test_cells_read_with_float(self, tmp_path):
        cells = [[" 1 ", "5e0", "8_0"], ["3", " 4.5 ", "-0.0"],
                 ["0.1", "1e-320", "1.7976931348623157e308"]]
        text = "x1,x2,y\n" + "\n".join(
            ",".join(f'"{c}"' if i == 1 else c for c in row)
            for i, row in enumerate(cells)
        )
        d = load_csv(write(tmp_path / "d.csv", text + "\n"), "gaussian")
        expected = np.array([[float(c) for c in row] for row in cells])
        assert d.X.tobytes() == expected[:, :2].tobytes()
        assert d.response.y.tobytes() == expected[:, 2].tobytes()

    def test_peak_memory_is_a_few_arrays(self, tmp_path):
        # rows are converted as they are read, so no n x p list of cell
        # strings is ever held
        d, _, _ = gen_dataset(GenConfig(n=200, p=2000, q=5, seed=0))
        save_csv(d, tmp_path / "wide.csv")
        tracemalloc.start()
        try:
            loaded = load_csv(str(tmp_path / "wide.csv"), "gaussian")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.X.tobytes() == d.X.tobytes()
        assert peak <= 5 * loaded.X.nbytes

    def test_non_utf8_file_raises_the_decode_error(self, tmp_path):
        (tmp_path / "d.csv").write_bytes(b"x1,y\n1,2\n3,\xff\n")
        path = str(tmp_path / "d.csv")
        message = (
            f"'utf-8' codec can't decode byte 0xff at line 3, byte offset 11 of {path}: "
            "invalid start byte"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(path, "gaussian")

    def test_decode_error_names_the_file_line_and_byte_past_the_first_chunk(self, tmp_path):
        # the reader decodes in 8 KiB chunks; the offset named is the file's
        body = bytearray(b"x1,y\r\n" + b"1.5,2.5\r\n" * 5000)
        bad = 40000
        body[bad] = 0xFF
        line = body.count(b"\n", 0, bad) + 1
        (tmp_path / "d.csv").write_bytes(bytes(body))
        with pytest.raises(ValueError) as caught:
            load_csv(str(tmp_path / "d.csv"), "gaussian")
        assert f"byte 0xff at line {line}, byte offset {bad} of " in str(caught.value)

    def test_cell_that_float_rejects_is_refused(self, tmp_path):
        # str.strip removes the separators U+001C..U+001F but float() does not
        p = write(tmp_path / "d.csv", "x1,y\n1\x1c,2\n3,4\n")
        with pytest.raises(ValueError, match=r"^non-numeric value .* at row 1, column 'x1'$"):
            load_csv(p, "gaussian")

    def test_decode_error_kept_when_the_file_cannot_be_read_again(self, tmp_path, monkeypatch):
        # a consumed stdin cannot be reread: the reader's chunk-relative error stands
        body = bytearray(b"x1,y\r\n" + b"1.5,2.5\r\n" * 5000)
        body[40000] = 0xFF
        (tmp_path / "d.csv").write_bytes(bytes(body))

        def open_text_only(path, mode="r", *args, **kwargs):
            if "b" in mode:
                raise OSError("cannot read the file again")
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr("bestsubset.data.open", open_text_only, raising=False)
        with pytest.raises(UnicodeDecodeError) as caught:
            load_csv(str(tmp_path / "d.csv"), "gaussian")
        assert caught.value.object[caught.value.start] == 0xFF
        assert caught.value.start < 40000

    @pytest.mark.parametrize("text", ["y,x1,x2\n3,1,2\n6,4,5\n9,7,8\n",
                                      "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        d = load_csv(str(tmp_path / "bom.csv"), "gaussian")
        assert d.column_names == ("x1", "x2")
        np.testing.assert_array_equal(d.response.y, [3, 6, 9])
        np.testing.assert_array_equal(d.X, [[1, 2], [4, 5], [7, 8]])

    @pytest.mark.parametrize("text, name", [("y,a,y\n1,2,3\n", "y"),
                                            ("a, b,y,b \n1,2,3,4\n", "b")])
    def test_repeated_header_name_is_refused(self, tmp_path, text, name):
        p = write(tmp_path / "d.csv", text)
        message = f"column {name!r} appears more than once in the header"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(p, "gaussian")


def save_csv_per_cell(d, path):
    """The per-cell writer ``save_csv`` replaced, kept as its byte reference."""
    resp_cols = [getattr(d.response, name) for name in d.response.columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.names()) + list(d.response.columns))
        for i in range(d.n):
            row = [repr(float(v)) for v in d.X[i]]
            row += [repr(float(col[i])) for col in resp_cols]
            writer.writerow(row)


class TestSaveCsv:
    @pytest.mark.parametrize(
        "family, n, p",
        [("gaussian", 40, 6), ("binomial", 40, 6), ("cox", 40, 6), ("gaussian", 50, 3000)],
    )
    def test_bytes_equal_per_cell_writer_and_reload_exactly(self, tmp_path, family, n, p):
        config = GenConfig(n=n, p=p, q=3, family=family, seed=11,
                           censor_rate=0.3 if family == "cox" else 0.0)
        d, _, _ = gen_dataset(config)
        self.check(tmp_path, d, family)

    def test_extreme_values(self, tmp_path):
        X = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                      [0.1, -2.2250738585072014e-308, 1e22]])
        self.check(tmp_path, Dataset(X, Continuous([-0.0, 1e-300])), "gaussian")

    @staticmethod
    def check(tmp_path, d, family):
        save_csv(d, tmp_path / "new.csv")
        save_csv_per_cell(d, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        d1 = load_csv(str(tmp_path / "new.csv"), family)
        assert d1.column_names == d.names()
        assert d1.X.tobytes() == d.X.tobytes()
        for name in d.response.columns:
            assert getattr(d1.response, name).tobytes() == getattr(d.response, name).tobytes()


class TestValidation:
    def test_nonfinite_rejected(self):
        X = np.array([[1.0, 2.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X, Continuous([1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match n"):
            Dataset(np.eye(3), Continuous([1.0, 2.0]))

    def test_min_sizes(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((1, 2)), Continuous([1.0]))

    def test_arrays_read_only(self):
        d = Dataset(np.eye(3), Continuous([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            d.X[0, 0] = 5.0

    def test_copies_the_callers_design(self):
        X = np.eye(3)
        d = Dataset(X, Continuous([1.0, 2.0, 3.0]))
        assert not np.shares_memory(d.X, X)
        X[0, 0] = 5.0
        assert d.X[0, 0] == 1.0
        assert X.flags.writeable

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda tmp: Continuous(np.zeros((2, 2))), "continuous response must be a 1-D vector"),
            (lambda tmp: Continuous([1.0, np.inf]), "continuous response contains non-finite values"),
            (lambda tmp: Binary(np.zeros((2, 2))), "binary response must be a 1-D vector"),
            (lambda tmp: Survival([1.0, 2.0], [1.0]),
             "time and status must be 1-D vectors of equal length"),
            (lambda tmp: Survival([1.0, 2.0], [1.0, 0.5]), "status must be 0 (censored) or 1 (event)"),
            (lambda tmp: Dataset(np.ones(3), Continuous([1.0, 2.0, 3.0])), "X must be a 2-D matrix"),
            (lambda tmp: Dataset(np.ones((3, 0)), Continuous([1.0, 2.0, 3.0])),
             "need at least 1 predictor"),
            (lambda tmp: Dataset(np.eye(3), Continuous([1.0, 2.0, 3.0]), ("a", "b")),
             "column_names length does not match p"),
            (lambda tmp: load_csv(write(tmp / "d.csv", "\n\n"), "gaussian"), "empty file: {tmp}/d.csv"),
            (lambda tmp: load_csv(write(tmp / "d.csv", "x1,y\n1,2\n"), "gaussian", "z"),
             "response column 'z' not found in header"),
            (lambda tmp: load_csv(write(tmp / "d.csv", "1\n2\n"), "gaussian", header=False),
             "too few columns for predictors plus response"),
            (lambda tmp: load_csv(write(tmp / "d.csv", "x1,y\n1,2\n"), "poisson"),
             "unknown family 'poisson'"),
            (lambda tmp: load_csv(write(tmp / "d.csv", "x1,time,status\n1,2,1\n"), "cox", ("time",)),
             "family 'cox' needs 2 response column(s), got 1"),
            (lambda tmp: load_csv(write(tmp / "d.csv", "y\n1\n2\n"), "gaussian"),
             "no predictor columns left after removing the response"),
        ],
        ids=["continuous-2d", "continuous-inf", "binary-2d", "survival-lengths", "status-value",
             "x-1d", "no-predictor", "column-names", "csv-empty", "csv-missing-response",
             "csv-too-few-columns", "csv-unknown-family", "csv-response-count",
             "csv-no-predictors-left"],
    )
    def test_input_check_messages(self, tmp_path, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(tmp=tmp_path))}$"):
            make(tmp_path)


class TestStandardize:
    def test_known_column(self):
        X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [-1.0, 4.0]])
        d = Dataset(X, Continuous([0.0, 0.0, 0.0, 0.0]))
        sd = standardize(d)
        col = sd.dataset.X[:, 0]
        centered = np.array([0.5, 0.5, 0.5, -1.5])
        np.testing.assert_allclose(col, centered / (np.linalg.norm(centered) / 2.0))
        assert abs(np.linalg.norm(col) - 2.0) < 1e-10

    def test_all_columns_sqrt_n_norm(self, rng):
        X = rng.standard_normal((17, 5)) * 3 + 1
        d = Dataset(X, Continuous(rng.standard_normal(17)))
        sd = standardize(d)
        norms = np.linalg.norm(sd.dataset.X, axis=0)
        np.testing.assert_allclose(norms, math.sqrt(17), rtol=1e-10)

    def test_gaussian_response_centered(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), Continuous([1.0, 2.0, 3.0]))
        sd = standardize(d)
        assert sd.response_center == 2.0
        np.testing.assert_allclose(sd.dataset.response.y, [-1.0, 0.0, 1.0])

    def test_idempotent_on_own_output(self, rng):
        X = rng.standard_normal((12, 4))
        d = Dataset(X, Continuous(rng.standard_normal(12)))
        once = standardize(d)
        twice = standardize(once.dataset)
        np.testing.assert_allclose(twice.dataset.X, once.dataset.X, atol=1e-10)
        np.testing.assert_allclose(
            twice.dataset.response.y, once.dataset.response.y, atol=1e-10
        )
        np.testing.assert_allclose(twice.column_scales, 1.0, atol=1e-10)
        np.testing.assert_allclose(twice.column_centers, 0.0, atol=1e-10)

    def test_binary_response_untouched(self, rng):
        X = rng.standard_normal((10, 2))
        y = (rng.uniform(size=10) < 0.5).astype(float)
        sd = standardize(Dataset(X, Binary(y)))
        np.testing.assert_array_equal(sd.dataset.response.y, y)
        assert sd.response_center == 0.0

    def test_equals_centred_over_scales_and_keeps_the_input(self, rng):
        X = rng.standard_normal((15, 6)) * 3 + 1
        d = Dataset(X, Continuous(rng.standard_normal(15)))
        before = d.X.copy()
        sd = standardize(d)
        scales = np.sqrt(((X - X.mean(0)) ** 2).sum(axis=0)) / math.sqrt(15)
        assert np.array_equal(sd.column_scales, scales)
        assert np.array_equal(sd.dataset.X, (X - X.mean(0)) / scales)
        assert np.array_equal(d.X, before)

    def test_peak_memory_is_one_design_copy(self):
        # the standardized dataset's own copy of X is the only n x p array;
        # the rest is np.isfinite's n x p booleans and 512-column blocks
        n, p = 200, 5000
        rng = np.random.default_rng(5)
        d = Dataset(rng.standard_normal((n, p)), Continuous(rng.standard_normal(n)))
        tracemalloc.start()
        try:
            sd = standardize(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * n * p
        assert not np.shares_memory(sd.dataset.X, d.X)
        assert not sd.dataset.X.flags.writeable

    def test_fortran_ordered_design_gives_the_c_ordered_bits(self, tmp_path):
        d = gen_dataset(GenConfig(n=150, p=15, q=3, family="cox", censor_rate=0.2, seed=3))[0]
        save_csv(d, tmp_path / "cox.csv")
        want = fit_active(COX, standardize(d), (1, 4, 9))
        # load_csv's column gather is Fortran-ordered too
        fortran = Dataset(np.asfortranarray(d.X), d.response)
        for other in (fortran, load_csv(tmp_path / "cox.csv", "cox")):
            got = fit_active(COX, standardize(other), (1, 4, 9))
            assert got.loss == want.loss
            assert np.array_equal(got.beta, want.beta)

    @pytest.mark.parametrize("p", [1, 511, 512, 1300])
    def test_blocked_norms_equal_the_squared_copy_sum(self, p):
        # wide design, column scales over twelve decades, ragged last block
        rng = np.random.default_rng(p)
        X = rng.standard_normal((40, p)) * 10.0 ** rng.uniform(-6, 6, size=p)
        X += rng.uniform(-5.0, 5.0, size=p)
        sd = standardize(Dataset(X, Continuous(rng.standard_normal(40))))
        Xc = X - X.mean(axis=0)
        assert np.array_equal(
            sd.column_scales, np.sqrt((Xc**2).sum(axis=0)) / math.sqrt(40)
        )

    def test_overflow_in_centring_rejected(self):
        # finite entries whose centred values overflow to inf
        X = np.array([[1.7e308, 1.0], [-1.7e308, 2.0], [-1.7e308, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                standardize(Dataset(X, Continuous([1.0, 2.0, 3.0])))

    def test_constant_column_rejected(self):
        X = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        d = Dataset(X, Continuous([0.0, 1.0, 2.0]), column_names=("c0", "c1"))
        with pytest.raises(ValueError, match="constant column 'c0' \\(index 0\\)"):
            standardize(d)


class TestDestandardize:
    def test_zero_vector(self, rng):
        X = rng.standard_normal((8, 3))
        sd = standardize(Dataset(X, Continuous(rng.standard_normal(8) + 5)))
        intercept, beta = destandardize_coefficients(np.zeros(3), sd)
        assert intercept == sd.response_center
        np.testing.assert_array_equal(beta, 0.0)

    def test_identity_standardization(self):
        # build an identity-standardization by hand
        from bestsubset.data import StandardizedDataset

        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        d = Dataset(X, Continuous([0.0, 0.0, 0.0, 0.0]))
        meta = StandardizedDataset(d, np.zeros(2), np.ones(2), 0.0)
        intercept, beta = destandardize_coefficients(np.array([1.5, -2.0]), meta)
        assert intercept == 0.0
        np.testing.assert_array_equal(beta, [1.5, -2.0])

    def test_prediction_equality_random_instance(self):
        # oracle: evaluate both parameterizations directly on fresh rows
        rng = np.random.default_rng(99)
        X = rng.standard_normal((5, 3)) * rng.uniform(0.5, 4.0, 3) + rng.uniform(
            -2, 2, 3
        )
        y = rng.standard_normal(5)
        sd = standardize(Dataset(X, Continuous(y)))
        beta_std = rng.standard_normal(3)
        intercept, beta = destandardize_coefficients(beta_std, sd)
        pred_std = sd.response_center + sd.dataset.X @ beta_std
        pred_orig = intercept + X @ beta
        np.testing.assert_allclose(pred_orig, pred_std, rtol=1e-10)

    def test_round_trip_fitted_values_any_coefficients(self, rng):
        for trial in range(5):
            X = rng.standard_normal((9, 4)) * rng.uniform(0.5, 3.0, 4)
            y = rng.standard_normal(9)
            sd = standardize(Dataset(X, Continuous(y)))
            beta_std = rng.standard_normal(4) * 10
            intercept, beta = destandardize_coefficients(beta_std, sd)
            np.testing.assert_allclose(
                intercept + X @ beta,
                sd.response_center + sd.dataset.X @ beta_std,
                rtol=1e-10,
            )

    def test_length_check(self, rng):
        sd = standardize(
            Dataset(rng.standard_normal((5, 3)), Continuous(rng.standard_normal(5)))
        )
        with pytest.raises(ValueError, match="length"):
            destandardize_coefficients(np.zeros(2), sd)
