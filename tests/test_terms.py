import csv
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from implicitreg import (
    Dataset,
    LhsKind,
    ModelSpec,
    Term,
    design_matrix,
    load_csv,
    load_multi_csv,
    parse_terms,
)
from implicitreg.terms import save_csv
from implicitreg.errors import (
    DomainError,
    DuplicateTerm,
    EmptyDataset,
    InputError,
    InvalidSpec,
    NamedColumnMissing,
    ParseError,
    TermSyntaxError,
    Underdetermined,
)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_direct_echo(self, tmp_path):
        d = load_csv(write(tmp_path, "x,y\n1,2\n3,4\n"))
        assert d.n == 2
        np.testing.assert_array_equal(d.x, [1, 3])
        np.testing.assert_array_equal(d.y, [2, 4])

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_csv(write(tmp_path, "x,y\n"))

    def test_bad_cell_row_index(self, tmp_path):
        rows = "x,y\n" + "1,1\n" * 4 + "abc,1\n"
        with pytest.raises(ParseError) as exc:
            load_csv(write(tmp_path, rows))
        assert exc.value.row == 5

    def test_missing_column(self, tmp_path):
        with pytest.raises(NamedColumnMissing):
            load_csv(write(tmp_path, "a,y\n1,2\n"))

    def test_non_finite_cell(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "x,y\ninf,2\n"))

    def test_named_columns(self, tmp_path):
        d = load_csv(write(tmp_path, "t,u,v\n9,1,2\n"), x_col="u", y_col="v")
        assert d.x[0] == 1 and d.y[0] == 2


    def test_bad_cell_past_first_loadtxt_chunk(self, tmp_path):
        rows = "x,y\n" + "1,2\n" * 70000 + "3,oops\n" + "4,5\n" * 10
        with pytest.raises(ParseError) as exc:
            load_csv(write(tmp_path, rows))
        assert (exc.value.row, exc.value.column) == (70001, "y")

    def test_header_only_warns_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyDataset):
                load_csv(write(tmp_path, "x,y\n\n\r\n"))

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"x,y\n1,2\n5,\xe96\n")
        for load in (load_csv, lambda path: load_multi_csv(path, "y")):
            with pytest.raises(InputError, match="not UTF-8"):
                load(p)

    def test_repeats_among_unread_columns(self, tmp_path):
        p = write(tmp_path, "x,y,,\n1,2,,\n3,4\n")
        np.testing.assert_array_equal(load_csv(p).y, [2, 4])
        with pytest.raises(InvalidSpec, match="duplicate column ''"):
            load_multi_csv(p, "y")

    def test_cell_over_csv_field_limit(self, tmp_path):
        # A non-numeric cell longer than csv's field size limit: the row loop
        # stops with csv.Error, reported as an input error naming the row.
        long_cell = "a" * (csv.field_size_limit() + 1)
        p = write(tmp_path, f"x,y\n1,2\n\n3,4\n{long_cell},5\n")
        for load in (load_csv, lambda path: load_multi_csv(path, "y")):
            with pytest.raises(InputError, match=r"data row 3: field larger than field limit"):
                load(p)
        p = write(tmp_path, f"x,y,{long_cell}\n1,2,3\n", name="header.csv")
        with pytest.raises(InputError, match=r"header: field larger than field limit"):
            load_csv(p)


def reference_columns(path, names):
    """The row loop the vectorised reader must agree with: DictReader plus
    float() on every named cell, data rows numbered from 1."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = []
        for i, record in enumerate(csv.DictReader(fh), start=1):
            row = []
            for c in names:
                try:
                    v = float(record[c])
                except (TypeError, ValueError):
                    raise ParseError(i, record[c], c) from None
                if not math.isfinite(v):
                    raise ParseError(i, record[c], c)
                row.append(v)
            rows.append(row)
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    return np.array(rows)


NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**25, 10**25).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.25e}"))
ODD = st.sampled_from([
    "nan", "inf", "-Infinity", "1e999", "1e-400", "4.9e-324", "1_0", "#1", "# 2",
    "\u0661\u0662", "\u0663.\u0665", " 1.5 ", "\t2", "3\xa0", "", " ", "abc", "+.5",
    "5.", "-0", "0x10", "1e", '"7"', '" 8 "', '"1,5"', '"9\n"', '""', ' "1"', '"1"2'])
CELLS = st.one_of(NUMBERS, NUMBERS, ODD)


@st.composite
def csv_bodies(draw, header):
    """Header plus rows: padded, quoted, short and long rows, blank lines,
    CRLF or CR line ends and an optional BOM."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.one_of(st.just(len(header)), st.integers(0, len(header) + 2)))
        cells = draw(st.lists(CELLS, min_size=width, max_size=width))
        lines.append(",".join(cells))
        lines.extend([""] * draw(st.integers(0, 1)))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def same_outcome(load, reference):
    """Both sides give bitwise-equal arrays, or the same error and message."""
    try:
        want = reference()
    except (ParseError, EmptyDataset) as exc:
        with pytest.raises(type(exc)) as got:
            load()
        assert str(got.value) == str(exc)
        return
    got = load()
    assert len(got) == want.shape[1]
    for g, w in zip(got, want.T):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


CSV_HEADERS = st.lists(st.sampled_from(["z", ""]), max_size=3).flatmap(
    lambda extra: st.permutations(["x", "y", *extra]))
MULTI_HEADERS = st.lists(st.sampled_from(["x", "z", "w"]), min_size=1, max_size=3,
                         unique=True).flatmap(lambda extra: st.permutations(["y", *extra]))


@given(CSV_HEADERS, st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_csv_matches_row_loop(tmp_path, header, data):
    p = tmp_path / "d.csv"
    p.write_bytes(data.draw(csv_bodies(header)).encode("utf-8"))

    def load():
        d = load_csv(p)
        assert d.x.flags.c_contiguous and d.y.flags.c_contiguous
        return d.x, d.y
    same_outcome(load, lambda: reference_columns(p, ["x", "y"]))


@given(MULTI_HEADERS, st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_multi_csv_matches_row_loop(tmp_path, header, data):
    p = tmp_path / "d.csv"
    p.write_bytes(data.draw(csv_bodies(header)).encode("utf-8"))
    names = ["y", *(c for c in header if c != "y")]

    def load():
        md = load_multi_csv(p, "y")
        assert md.column_names == tuple(names[1:])
        assert md.explanatory.flags.c_contiguous
        return (md.response, *md.explanatory.T)
    same_outcome(load, lambda: reference_columns(p, names))


class TestParseTerms:
    def test_basic(self):
        assert parse_terms("x,y,xy") == [Term(1, 0), Term(0, 1), Term(1, 1)]

    def test_conic_set(self):
        assert parse_terms("x,y,xy,x2,y2") == [
            Term(1, 0), Term(0, 1), Term(1, 1), Term(2, 0), Term(0, 2)]

    def test_fractional_product(self):
        assert parse_terms("x^0.5*y^-1") == [Term(0.5, -1)]

    def test_carets(self):
        assert parse_terms("x^2,y^2") == [Term(2, 0), Term(0, 2)]

    def test_duplicate(self):
        with pytest.raises(DuplicateTerm):
            parse_terms("x,x^1")

    def test_garbage(self):
        with pytest.raises(TermSyntaxError):
            parse_terms("x,z^2")


class TestTermEvaluate:
    def test_intercept_term_is_one_everywhere(self):
        x = np.array([0.0, -3.0, 2.5])
        np.testing.assert_array_equal(Term(0, 0).evaluate(x, x), [1, 1, 1])

    def test_monomial(self):
        x = np.array([2.0, 3.0])
        y = np.array([4.0, 5.0])
        np.testing.assert_allclose(Term(2, 1).evaluate(x, y), [16, 45])

    def test_negative_base_integer_exponent_ok(self):
        np.testing.assert_allclose(Term(3, 0).evaluate(np.array([-2.0]), np.array([1.0])), [-8])

    def test_fractional_exponent_negative_base(self):
        with pytest.raises(DomainError):
            Term(0.5, 0).evaluate(np.array([1.0, -1.0]), np.array([0.0, 0.0]))

    def test_negative_exponent_at_zero(self):
        with pytest.raises(DomainError):
            Term(0, -1).evaluate(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("exp", [-3, -2, -1, 1, 2, 3, 4, 5])
    def test_integral_power_within_one_ulp_of_exact(self, exp):
        # Integral powers are taken of |base| with the sign put back for odd
        # exponents; the result must stay within 1 ulp of the exact power.
        rng = np.random.default_rng(97)
        v = rng.uniform(1e-3, 1e3, size=300) * np.repeat([-1.0, 1.0], 150)
        for term, got in ((Term(exp, 0), Term(exp, 0).evaluate(v, np.ones_like(v))),
                          (Term(0, exp), Term(0, exp).evaluate(np.ones_like(v), v))):
            for base, value in zip(v.tolist(), got.tolist()):
                exact = Fraction(base) ** exp
                assert abs(Fraction(value) - exact) <= Fraction(math.ulp(float(exact))), term
                assert (value < 0) == (base < 0 and exp % 2 == 1), term

    def test_integral_power_of_signed_zero(self):
        z = np.array([-0.0, 0.0])
        for exp in (1, 2, 3, 4):
            got = Term(exp, 0).evaluate(z, np.ones(2))
            want = [(-0.0) ** exp, 0.0 ** exp]
            assert [math.copysign(1.0, g) for g in got] == [math.copysign(1.0, w) for w in want]
            np.testing.assert_array_equal(got, want)

    def test_mixed_term_sign(self):
        x = np.array([-2.0, -2.0, 2.0])
        y = np.array([-3.0, 3.0, -3.0])
        np.testing.assert_array_equal(Term(1, 2).evaluate(x, y), [-18, -18, 18])
        np.testing.assert_array_equal(Term(3, 3).evaluate(x, y), [216, -216, -216])

    def test_overflowing_product_is_a_domain_error(self):
        # Each power is finite; only the product overflows.
        x = np.array([1.0, 1e200, 1e200])
        with pytest.raises(DomainError, match="term xy undefined at data row 2"):
            Term(1, 1).evaluate(x, x)


class TestModelSpec:
    def test_unity_rejects_intercept(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(LhsKind.UNITY, (Term(1, 0),), intercept=True)

    def test_pivot_excluded_from_rhs(self):
        spec = ModelSpec.rotation([Term(1, 0), Term(0, 1)], pivot=1)
        assert spec.lhs_term == Term(0, 1)
        assert spec.rhs_terms == (Term(1, 0),)
        assert spec.intercept

    def test_duplicate_rhs(self):
        with pytest.raises(DuplicateTerm):
            ModelSpec.nonresponse([Term(1, 0), Term(1, 0)])


class TestDesignMatrix:
    def test_unity_target(self, tri_dataset):
        W, t = design_matrix(tri_dataset, ModelSpec.nonresponse(parse_terms("x,y")))
        np.testing.assert_array_equal(W, [[1, 0], [0, 1], [0.5, 0.5]])
        np.testing.assert_array_equal(t, [1, 1, 1])

    def test_slr_layout(self):
        d = Dataset([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        W, t = design_matrix(d, ModelSpec.rotation(parse_terms("x,y"), pivot=1))
        np.testing.assert_array_equal(W[:, 0], [1, 1, 1])
        np.testing.assert_array_equal(W[:, 1], d.x)
        np.testing.assert_array_equal(t, d.y)

    def test_domain_error_propagates(self):
        d = Dataset([-1.0, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            design_matrix(d, ModelSpec.nonresponse([Term(0.5, 0)]))

    def test_underdetermined(self):
        d = Dataset([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(Underdetermined):
            design_matrix(d, ModelSpec.nonresponse(parse_terms("x,y,xy")))

    def test_three_term_gram_matches_printed_sums(self, tri_dataset):
        # W'W and W'1 for {x, y, xy} with unity target must consist of the
        # raw sums the 3-equation system is written in.
        d = tri_dataset
        x, y = d.x, d.y
        W, t = design_matrix(d, ModelSpec.nonresponse(parse_terms("x,y,xy")))
        G = W.T @ W
        rhs = W.T @ t
        expect_G = np.array([
            [np.sum(x**2), np.sum(x*y), np.sum(x**2*y)],
            [np.sum(x*y), np.sum(y**2), np.sum(x*y**2)],
            [np.sum(x**2*y), np.sum(x*y**2), np.sum(x**2*y**2)],
        ])
        np.testing.assert_allclose(G, expect_G, rtol=0, atol=0)
        np.testing.assert_allclose(rhs, [np.sum(x), np.sum(y), np.sum(x*y)], atol=0)


class TestSaveCsv:
    @pytest.mark.parametrize("columns", [("x", "y"), ("a,b", 'say "y"')])
    def test_bytes_match_csv_writer(self, tmp_path, columns):
        x = np.array([-0.0, 5e-324, 1e300, -2.5e-310, 0.1, -1e-300, 123456789.0])
        y = np.array([1e300, -0.0, 5e-324, 3.0, -7.25, 2.2250738585072014e-308, -1e300])
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(columns))
            for xi, yi in zip(x, y):
                writer.writerow([repr(float(xi)), repr(float(yi))])
        out = tmp_path / "out.csv"
        save_csv(out, Dataset(x, y), *columns)
        assert out.read_bytes() == ref.read_bytes()

    def test_round_trip_is_bitwise(self, tmp_path):
        x = np.array([-0.0, 5e-324, 1e300, 0.1])
        y = np.array([1e-300, -0.0, -5e-324, -1e300])
        out = tmp_path / "out.csv"
        save_csv(out, Dataset(x, y))
        back = load_csv(out)
        assert back.x.tobytes() == x.tobytes() and back.y.tobytes() == y.tobytes()
