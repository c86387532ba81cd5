import csv
import math
import os
import tracemalloc
import urllib.request
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
    fit_nonresponse,
    load_csv,
    load_multi_csv,
    parse_terms,
)
from implicitreg import terms
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

    def test_not_utf8_past_the_first_text_buffer(self, tmp_path, monkeypatch):
        # The header's text handle reads one buffer; a bad byte at data row
        # 70001 is past it, so np.loadtxt is the reader that meets it.
        p = tmp_path / "late.csv"
        p.write_bytes(b"x,y\n" + b"1,2\n" * 70000 + b"5,\xe96\n" + b"4,5\n" * 10)
        met = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            try:
                return loadtxt(*args, **kwargs)
            except UnicodeDecodeError:
                met.append("loadtxt")
                raise
        monkeypatch.setattr(terms.np, "loadtxt", spy)
        for load in (load_csv, lambda path: load_multi_csv(path, "y")):
            with pytest.raises(InputError, match="not UTF-8"):
                load(p)
        assert met == ["loadtxt", "loadtxt"]

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


class TestLoadCsvMemory:
    """load_csv holds each value once: x and y are views of the one (n, 2)
    parse, 16 bytes a row."""

    @pytest.mark.parametrize("n", [65536, 131072])
    def test_load_csv_peaks_at_the_parse(self, tmp_path, n):
        # loadtxt grows its array by a quarter at a time, so it may hold up
        # to 20 bytes a row before it trims to 16; a contiguous copy of each
        # column would add 16 more.
        rng = np.random.default_rng(n)
        p = tmp_path / "d.csv"
        with open(p, "w") as fh:
            fh.write("x,y\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in rng.normal(size=(n, 2)).tolist())
        load_csv(p)                             # first-call allocations stay out
        tracemalloc.start()
        try:
            d = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * n + 256 * 1024, peak / n
        assert d.n == n and views_of_one_parse(d.x, d.y)


class TestLoadCsvByPath:
    """np.loadtxt reads a regular file's body by path.  Names numpy's path
    reader would take for a compressed file or a URL, and pipes, still read
    as plain text."""

    BODY = "x,z,y\n" + "".join(f"{i * 0.37!r},{-i!r},{i * i * 1e-3!r}\n" for i in range(50))

    @staticmethod
    def loads(p):
        d = load_csv(p)
        md = load_multi_csv(p, "y")
        return [d.x, d.y, md.response, md.explanatory]

    @staticmethod
    def no_row_loop(*args, **kwargs):
        raise AssertionError("row loop entered")

    @pytest.mark.parametrize("name", ["d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.CSV.GZ",
                                      "d.csv.lzma"])
    def test_compression_suffix_reads_as_text(self, tmp_path, name):
        want = self.loads(write(tmp_path, self.BODY))
        got = self.loads(write(tmp_path, self.BODY, name=name))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_relative_url_like_name_is_a_local_file(self, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("network access")
        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        (tmp_path / "http:" / "h").mkdir(parents=True)
        write(tmp_path / "http:" / "h", self.BODY, name="x.csv")
        monkeypatch.chdir(tmp_path)
        want = self.loads(tmp_path / "http:" / "h" / "x.csv")
        for g, w in zip(self.loads("http://h/x.csv"), want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_header_with_quoted_newline(self, tmp_path, monkeypatch, eol):
        # The header spans four physical lines; loadtxt must skip all of them
        # and no more, without help from the row loop.
        p = tmp_path / "d.csv"
        p.write_bytes(f'x,"note{eol}{eol}more{eol}",y{eol}1,2,3{eol}{eol}4,5,6{eol}'.encode())
        want = reference_columns(p, ["x", "y"])
        monkeypatch.setattr(csv, "DictReader", self.no_row_loop)
        d = load_csv(p)
        assert d.x.tobytes() == want[:, 0].copy().tobytes()
        assert d.y.tobytes() == want[:, 1].copy().tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self, tmp_path):
        # A pipe's body cannot be read again by path: it is fed on from the
        # handle that read the header.  The body is longer than one read
        # buffer and fits in the pipe's.
        text = "x,y\n" + "".join(f"{i * 0.37!r},{i * i * 1e-3!r}\n" for i in range(500))
        r, w = os.pipe()
        try:
            os.write(w, text.encode())
            os.close(w)
            d = load_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)
        want = load_csv(write(tmp_path, text))
        assert d.x.tobytes() == want.x.tobytes() and d.y.tobytes() == want.y.tobytes()

    @staticmethod
    def piped(load, text):
        r, w = os.pipe()
        try:
            os.write(w, text.encode())
            os.close(w)
            return load(f"/dev/fd/{r}")
        finally:
            os.close(r)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_through_row_loop(self, tmp_path):
        # loadtxt cannot read the Arabic-Indic "12", so the row loop reads the
        # piped body from the text loadtxt was given.
        text = ("x,y\n" + "".join(f"{i * 0.37!r},{i * i * 1e-3!r}\n" for i in range(599))
                + "١٢,2.5\n")
        want = self.loads(write(tmp_path, text))
        d = self.piped(load_csv, text)
        md = self.piped(lambda p: load_multi_csv(p, "y"), text)
        for g, w in zip([d.x, d.y, md.response, md.explanatory], want):
            assert g.tobytes() == w.tobytes()
        assert d.x[-1] == 12.0

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_piped_bad_cell_names_its_row(self):
        text = "x,y\n1,2\n\n3,4\nabc,5\n"
        for load in (load_csv, lambda p: load_multi_csv(p, "y")):
            with pytest.raises(ParseError, match=r"'abc' at data row 3 in column 'x'"):
                self.piped(load, text)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_clean_body_skips_row_loop(self, tmp_path, monkeypatch):
        want = self.loads(write(tmp_path, self.BODY))
        monkeypatch.setattr(terms, "_parse_cell", self.no_row_loop)
        for got in (self.loads(write(tmp_path, self.BODY)),
                    self.loads(write(tmp_path, self.BODY, name="d.csv.gz")),
                    [self.piped(load_csv, self.BODY).x,
                     self.piped(lambda p: load_multi_csv(p, "y"), self.BODY).explanatory]):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[-1].tobytes() == want[-1].tobytes()

    def test_row_loop_reads_on_from_one_open(self, tmp_path, monkeypatch):
        p = write(tmp_path, self.BODY + "\n١٢,0,1\n")
        want = reference_columns(p, ["x", "y"])
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(terms, "open", counting_open, raising=False)
        d = load_csv(p)
        assert d.x.tobytes() == want[:, 0].copy().tobytes()
        assert d.y.tobytes() == want[:, 1].copy().tobytes()
        assert opened == [p]

    def test_clean_file_skips_row_loop(self, tmp_path, monkeypatch):
        n = 200_000
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=n), rng.normal(size=n))
        p = tmp_path / "big.csv"
        save_csv(p, d)
        paths = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            paths.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(csv, "DictReader", self.no_row_loop)
        got = load_csv(p)
        md = load_multi_csv(p, "y")
        assert got.x.tobytes() == d.x.tobytes() and got.y.tobytes() == d.y.tobytes()
        assert md.response.tobytes() == d.y.tobytes()
        assert len(paths) == 2 and all(type(f) is str for f in paths)


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


def views_of_one_parse(*columns):
    """Whether the columns are views of one (n, k) array, one column each."""
    base = columns[0].base
    return (base is not None and base.shape == (len(columns[0]), len(columns))
            and all(c.base is base and np.shares_memory(c, base) for c in columns))


@given(CSV_HEADERS, st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_csv_matches_row_loop(tmp_path, header, data):
    p = tmp_path / "d.csv"
    p.write_bytes(data.draw(csv_bodies(header)).encode("utf-8"))

    def load():
        d = load_csv(p)
        assert views_of_one_parse(d.x, d.y)
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
        assert views_of_one_parse(md.response, *md.explanatory.T)
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

    @pytest.mark.parametrize("token", ["x^1e400", "x^1e308*x^1e308", "y^-1e400*x",
                                       "x^1e400*x^-1e400"])
    def test_non_finite_exponent_is_refused(self, token):
        # Term(inf, 0) would be labelled x^inf, which does not parse back.
        with pytest.raises(TermSyntaxError) as exc:
            parse_terms(f"y,{token}")
        assert str(exc.value) == f"cannot parse term {token!r}"

    @pytest.mark.parametrize("spec, term", [
        ("x^1e-05,y", Term(1e-05, 0)), ("y^2.5e-07", Term(0, 2.5e-07)),
        ("x^-1e-05*y", Term(-1e-05, 1)),
    ])
    def test_exponent_notation(self, spec, term):
        assert parse_terms(spec)[0] == term
        assert term.label() == spec.split(",")[0]

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_every_label_parses_back(self, x_exp, y_exp):
        t = Term(x_exp, y_exp)
        assert parse_terms(t.label()) == [t]


class TestTermExponents:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", ["x", "y"])
    def test_non_finite_exponent_is_a_bad_spec(self, bad, slot):
        # Term(inf, 0) would be labelled x^inf, which does not parse back.
        with pytest.raises(InvalidSpec, match="finite real numbers"):
            Term(bad, 0) if slot == "x" else Term(0, bad)

    @pytest.mark.parametrize("bad", ["2", 1j, None, 10**400])
    def test_non_real_exponent_is_a_bad_spec(self, bad):
        with pytest.raises(InvalidSpec):
            Term(bad, 1)

    def test_fit_on_a_non_finite_term_is_refused_before_the_data(self):
        # Once x^inf was built, the fit raised DomainError at data row 2.
        with pytest.raises(InvalidSpec):
            fit_nonresponse(Dataset([1, 2, 3], [1, 3, 2]), [Term(math.inf, 0), Term(0, 1)])

    def test_finite_exponents_of_any_real_type(self):
        assert Term(np.float64(2.0), np.int64(1)) == Term(2, 1)

    @pytest.mark.parametrize("t", [Term(np.float64(0.5), 0), Term(np.float32(0.25), np.int64(3)),
                                   Term(Fraction(3, 2), True)])
    def test_a_label_parses_back_whatever_the_exponents_type(self, t):
        # Term(np.float64(0.5), 0) was labelled x^np.float64(0.5).
        assert type(t.x_exp) is float and type(t.y_exp) is float
        assert parse_terms(t.label()) == [t]


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
        # Integer arrays and lists evaluate in float: the float values, bit
        # for bit (3037000500 squared wraps around in int64).
        ints = [3_037_000_500, -7, 2, 1]
        ones = [1, 1, 1, 1]
        want = Term(exp, 0).evaluate(np.array(ints, dtype=float), np.ones(4)).view(np.uint64)
        for v in (np.array(ints), ints):
            for got in (Term(exp, 0).evaluate(v, ones), Term(0, exp).evaluate(ones, v)):
                assert got.dtype == float
                np.testing.assert_array_equal(got.view(np.uint64), want)

    @pytest.mark.parametrize("exp", [1, 2])
    def test_copy_and_square_equal_pow(self, exp):
        # Powers 1 and 2 skip pow; the values must be the ones pow gives.
        v = np.random.default_rng(101).normal(0.0, 1e3, size=1000)
        pow_values = np.power(np.abs(v), float(exp))
        if exp % 2:
            np.copysign(pow_values, v, out=pow_values)
        np.testing.assert_array_equal(Term(exp, 0).evaluate(v, np.ones_like(v)), pow_values)

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


class TestMultiDataset:
    """MultiDataset checks its columns as Dataset does, through _observations."""

    @pytest.mark.parametrize("response, explanatory, names, error", [
        ([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1.0, 2.0, 3.0], ("x",), InvalidSpec),
        ([1.0, 2.0, 3.0], np.ones((3, 1, 1)), ("x",), InvalidSpec),
        ([1.0, 2.0, 3.0], [[1.0], [2.0]], ("x",), InvalidSpec),
        ([1.0, 2.0, 3.0], [[1.0, 2.0], [2.0, 3.0], [3.0, 1.0]], ("x",), InvalidSpec),
        ([], np.empty((0, 1)), ("x",), EmptyDataset),
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], ("x",), InvalidSpec),
        ([1.0, 2.0, 3.0], [[1.0, 2.0], [math.inf, 3.0], [3.0, 1.0]], ("x", "z"), InvalidSpec),
    ], ids=["2-D-response", "3-D-explanatory", "unequal-rows", "wrong-name-count", "no-rows",
            "nan-response", "inf-explanatory"])
    def test_bad_columns_are_refused(self, response, explanatory, names, error):
        with pytest.raises(error):
            terms.MultiDataset(response, explanatory, names)

    def test_vector_explanatory_is_one_column(self):
        md = terms.MultiDataset([1.0, 3.0, 4.0], [0.0, 1.0, 2.0], ["x"])
        assert md.explanatory.shape == (3, 1) and (md.n, md.p) == (3, 1)
        assert md.column_names == ("x",)
        np.testing.assert_array_equal(md.explanatory[:, 0], [0.0, 1.0, 2.0])


class TestModelSpec:
    def test_unity_rejects_intercept(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(LhsKind.UNITY, (Term(1, 0),), intercept=True)

    def test_pivot_excluded_from_rhs(self):
        spec = ModelSpec.rotation([Term(1, 0), Term(0, 1)], pivot=1)
        assert spec.lhs_term == Term(0, 1)
        assert spec.rhs_terms == (Term(1, 0),)
        assert spec.intercept

    @pytest.mark.parametrize("pivot", [-1, 2])
    def test_rotation_pivot_out_of_range(self, pivot):
        with pytest.raises(InvalidSpec, match=f"^pivot {pivot} out of range$"):
            ModelSpec.rotation([Term(1, 0), Term(0, 1)], pivot)

    def test_no_terms(self):
        with pytest.raises(InvalidSpec, match="^rhs_terms must be non-empty$"):
            ModelSpec.nonresponse([])

    def test_duplicate_rhs(self):
        with pytest.raises(DuplicateTerm):
            ModelSpec.nonresponse([Term(1, 0), Term(1, 0)])
        with pytest.raises(DuplicateTerm) as exc:       # the first term seen twice
            ModelSpec.nonresponse([Term(1, 0), Term(0, 1), Term(0, 1), Term(1, 0)])
        assert exc.value.term == Term(0, 1)


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

    def test_memory_flat_in_rows(self, tmp_path):
        # The body is written a row block at a time, so doubling the rows
        # leaves the peak where it was; one body string would grow with them.
        rng = np.random.default_rng(8)

        def peak(n):
            d = Dataset(rng.normal(size=n), rng.normal(size=n))
            save_csv(tmp_path / "warm.csv", d)      # first-call allocations stay out
            tracemalloc.start()
            try:
                save_csv(tmp_path / "out.csv", d)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(3 * terms.ROW_BLOCK + 5), peak(6 * terms.ROW_BLOCK + 5)
        assert large - small < 8192, (small, large)

    def test_round_trip_is_bitwise(self, tmp_path):
        x = np.array([-0.0, 5e-324, 1e300, 0.1])
        y = np.array([1e-300, -0.0, -5e-324, -1e300])
        out = tmp_path / "out.csv"
        save_csv(out, Dataset(x, y))
        back = load_csv(out)
        assert back.x.tobytes() == x.tobytes() and back.y.tobytes() == y.tobytes()
