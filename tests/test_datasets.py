"""Synthetic generator, ratings-file loaders, iterative SVD completion."""

import math
import warnings

import numpy as np
import pytest

from noisycur.baselines import PartialMatrix
from noisycur.datasets import (
    JESTER_MISSING,
    JESTER_N_JOKES,
    DatasetSpec,
    ParseError,
    iterative_svd_complete,
    load_jester,
    load_movielens_100k,
    synthetic_lowrank,
    truncated_svd_approx,
)


def jester_row(ratings, declared=None):
    n = sum(1 for r in ratings if r != 99)
    declared = n if declared is None else declared
    return " ".join([str(declared)] + [f"{r:.2f}" for r in ratings])


def rank1_missing_cell_oracle(a, i, j):
    """Closed-form hole fill for a rank-1 matrix: a_ij = a_ik a_lj / a_lk."""
    m, n = a.shape
    k = (j + 1) % n
    l = (i + 1) % m
    return a[i, k] * a[l, j] / a[l, k]


class TestSyntheticLowrank:
    def test_paper_configuration_shape(self):
        a = synthetic_lowrank(80, 60, 4, mean=5.0, std=1.0,
                              rng=np.random.default_rng(0))
        assert a.shape == (80, 60)
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[4] < 1e-10 * sv[0]
        # mean-5 entries dominate: the matrix is far from centered
        assert a.mean() == pytest.approx(5.0, abs=0.5)

    def test_full_rank_is_identity_operation(self):
        rng = np.random.default_rng(1)
        raw = 5.0 + rng.standard_normal((6, 4))
        a = synthetic_lowrank(6, 4, 4, rng=np.random.default_rng(1))
        np.testing.assert_allclose(a, raw, atol=1e-10)

    def test_reproducible(self):
        a = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(7))
        b = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthetic_lowrank(4, 4, 5, rng=rng)
        with pytest.raises(ValueError):
            synthetic_lowrank(0, 4, 1, rng=rng)
        with pytest.raises(ValueError):
            synthetic_lowrank(4, 4, 2, std=-1.0, rng=rng)


class TestTruncatedSvd:
    def test_best_approximation_error(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 5))
        sv = np.linalg.svd(a, compute_uv=False)
        approx = truncated_svd_approx(a, 2)
        err = np.linalg.norm(a - approx)
        assert err == pytest.approx(np.sqrt(np.sum(sv[2:] ** 2)), rel=1e-10)


class TestDatasetSpec:
    def test_fields(self):
        ds = DatasetSpec(name="synthetic", n_rows=80, n_cols=60, rank=4)
        assert ds.rank <= min(ds.n_rows, ds.n_cols)


class TestLoadJester:
    def test_complete_users_kept(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(5):  # complete
            lines.append(jester_row(rng.uniform(-10, 10, JESTER_N_JOKES)))
        for _ in range(3):  # incomplete
            r = rng.uniform(-10, 10, JESTER_N_JOKES)
            r[rng.integers(0, JESTER_N_JOKES)] = 99
            lines.append(jester_row(r))
        p = tmp_path / "jester.csv"
        p.write_text("\n".join(lines) + "\n")
        out = load_jester(p)
        assert out.shape == (5, JESTER_N_JOKES)
        assert (np.abs(out) <= 10).all()

    def test_comma_separated_accepted(self, tmp_path):
        ratings = [1.0] * JESTER_N_JOKES
        p = tmp_path / "jester.csv"
        p.write_text(",".join(["100"] + [f"{r:.2f}" for r in ratings]) + "\n")
        out = load_jester(p)
        assert out.shape == (1, JESTER_N_JOKES)

    def test_expected_users_enforced(self, tmp_path):
        p = tmp_path / "jester.csv"
        p.write_text(jester_row([1.0] * JESTER_N_JOKES) + "\n")
        with pytest.raises(ValueError, match="found 1"):
            load_jester(p, expected_users=7200)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "jester.csv"
        p.write_text("3 1.0 2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_jester(p)

    def test_out_of_range_rating(self, tmp_path):
        ratings = [0.0] * JESTER_N_JOKES
        ratings[10] = 11.0
        p = tmp_path / "jester.csv"
        p.write_text(jester_row(ratings) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            load_jester(p)

    def test_non_numeric_field(self, tmp_path):
        fields = ["100"] + ["1.0"] * JESTER_N_JOKES
        fields[5] = "abc"
        p = tmp_path / "jester.csv"
        p.write_text(" ".join(fields) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            load_jester(p)

    def test_declared_count_mismatch_warns(self, tmp_path):
        p = tmp_path / "jester.csv"
        p.write_text(jester_row([1.0] * JESTER_N_JOKES, declared=50) + "\n")
        with pytest.warns(UserWarning, match="declared"):
            out = load_jester(p)
        assert out.shape == (1, JESTER_N_JOKES)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "jester.csv"
        p.write_text("")
        out = load_jester(p)
        assert out.shape == (0, JESTER_N_JOKES)

    def test_pure_loader(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = [jester_row(rng.uniform(-10, 10, JESTER_N_JOKES))
                 for _ in range(4)]
        p = tmp_path / "jester.csv"
        p.write_text("\n".join(lines) + "\n")
        np.testing.assert_array_equal(load_jester(p), load_jester(p))


def reference_load_jester(path, expected_users=None):
    """The line-by-line joke-ratings parser that load_jester must match."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if "," in line:
                fields = [f.strip() for f in line.split(",")]
            else:
                fields = line.split()
            if len(fields) != JESTER_N_JOKES + 1:
                raise ParseError(
                    f"line {lineno}: expected {JESTER_N_JOKES + 1} fields, "
                    f"got {len(fields)}"
                )
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            declared = values[0]
            ratings = np.asarray(values[1:])
            missing = ratings == JESTER_MISSING
            bad = ~missing & (~np.isfinite(ratings)
                              | (ratings < -10.0) | (ratings > 10.0))
            if bad.any():
                raise ParseError(
                    f"line {lineno}: rating {ratings[bad][0]} outside [-10, 10]"
                )
            if not math.isfinite(declared):
                raise ParseError(f"line {lineno}: bad rated-count {declared}")
            n_rated = int((~missing).sum())
            if int(declared) != n_rated:
                warnings.warn(
                    f"line {lineno}: declared count {int(declared)} != "
                    f"observed {n_rated}",
                    stacklevel=2,
                )
            if n_rated == JESTER_N_JOKES:
                rows.append(ratings)
    if expected_users is not None and len(rows) < expected_users:
        raise ValueError(
            f"expected {expected_users} complete users, found {len(rows)}"
        )
    if not rows:
        return np.empty((0, JESTER_N_JOKES))
    return np.vstack(rows)


def _outcome(loader, path, **kwargs):
    """(result or (exception type, message), [(category, message), ...])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loader(path, **kwargs)
        except Exception as exc:  # the outcome under test
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _jester_cases():
    rng = np.random.default_rng(21)

    def ratings(gaps=0):
        r = [f"{v:.2f}" for v in rng.uniform(-10, 10, JESTER_N_JOKES)]
        for j in rng.choice(JESTER_N_JOKES, size=gaps, replace=False):
            r[j] = "99"
        return r

    def row(r, declared=None, sep=" "):
        if declared is None:
            declared = sum(1 for v in r if v != "99")
        return sep.join([str(declared)] + list(r))

    def with_rating(value, at=7, declared=None):
        r = ratings()
        r[at] = value
        return row(r, declared)

    good = [row(ratings(gaps=g)) for g in (0, 0, 3, 0, 100, 0)]
    spaced_commas = ", ".join(["100"] + ratings())
    missing_spelled = ratings()
    missing_spelled[:3] = ["99", "99.0", "9.9e1"]
    short = "3 1.0 2.0"
    not_a_number = row(ratings()[:-1] + ["abc"])
    empty_field = ",".join(["100"] + ratings()[:-1] + [""])
    mismatch = row(ratings(), declared=50)
    # str.strip also drops the \x1c-\x1f separators, which float() keeps
    odd_spaces = ["100"] + ratings()
    odd_spaces[1:4] = [" 1.5\t", "\x1c-2", "\u30002.25\u2003"]
    separator_only = ["100"] + ratings()
    separator_only[5] = "\x1f3.5"
    spaced_bad = ["100"] + ratings()
    spaced_bad[9] = "  abc "
    return {
        "valid": "\n".join(good) + "\n",
        "valid_no_final_newline": "\n".join(good),
        "crlf": "\r\n".join(good) + "\r\n",
        "blank_lines": "\n\n" + "\n  \n\t\n".join(good) + "\n\n",
        "empty": "",
        "only_blank": "\n \n\r\n",
        "mixed_separators": "\n".join([good[0], row(ratings(), sep=","),
                                       spaced_commas, good[2]]) + "\n",
        "spaces_round_comma_fields": ",".join(odd_spaces) + "\n",
        "separator_round_a_comma_field": ",".join(separator_only) + "\n",
        "spaced_not_a_number": "\n".join([good[0], ",".join(spaced_bad),
                                          good[1]]) + "\n",
        "holds_99": "\n".join([row(missing_spelled), row(ratings(gaps=99)),
                               good[1]]) + "\n",
        "mismatches": "\n".join([mismatch, good[0], row(ratings(3), 98.7),
                                 row(ratings(), -0.5),
                                 row(ratings(), "1e300")]) + "\n",
        "nan_declared": "\n".join([mismatch, row(ratings(), "nan")]) + "\n",
        "inf_declared": "\n".join([good[0], row(ratings(), "-inf")]) + "\n",
        "huge_declared": "\n".join([row(ratings(), "1.7e308"),
                                    row(ratings(), "-1e300")]) + "\n",
        "nan_rating": "\n".join([good[0], with_rating("nan")]) + "\n",
        "inf_rating": "\n".join([good[0], with_rating("inf")]) + "\n",
        "out_of_range": "\n".join([good[0], with_rating("-10.01")]) + "\n",
        "range_beats_bad_count_on_one_line":
            with_rating("11", declared="nan") + "\n",
        "mismatch_then_short": "\n".join([mismatch, good[0], short]) + "\n",
        "mismatch_then_not_a_number":
            "\n".join([mismatch, mismatch, not_a_number, good[0]]) + "\n",
        "mismatch_then_empty_field":
            "\n".join([mismatch, empty_field]) + "\n",
        "range_beats_later_short":
            "\n".join([mismatch, with_rating("12"), short]) + "\n",
        "short_beats_later_range":
            "\n".join([mismatch, short, with_rating("12")]) + "\n",
        "bad_count_beats_later_range":
            "\n".join([row(ratings(), "nan"), with_rating("12")]) + "\n",
        "range_beats_later_bad_count":
            "\n".join([good[1], with_rating("-11"),
                       row(ratings(), "inf")]) + "\n",
        "not_a_number_beats_later_range":
            "\n".join([not_a_number, with_rating("12")]) + "\n",
    }


class TestLoadJesterAgainstReference:
    """load_jester against the line-by-line parser on every kind of file."""

    @staticmethod
    def assert_same(path, **kwargs):
        got, got_warnings = _outcome(load_jester, path, **kwargs)
        want, want_warnings = _outcome(reference_load_jester, path, **kwargs)
        assert got_warnings == want_warnings
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable
        else:
            assert got == want
        return got

    @pytest.mark.parametrize("name", sorted(_jester_cases()))
    def test_same_outcome(self, tmp_path, name):
        p = tmp_path / "jokes.csv"
        p.write_bytes(_jester_cases()[name].encode("utf-8"))
        self.assert_same(p)

    @pytest.mark.parametrize("name", ["valid", "mismatches", "empty",
                                      "mismatch_then_short"])
    @pytest.mark.parametrize("expected", [0, 4, 5])
    def test_expected_users(self, tmp_path, name, expected):
        p = tmp_path / "jokes.csv"
        p.write_bytes(_jester_cases()[name].encode("utf-8"))
        self.assert_same(p, expected_users=expected)

    def test_read_error_after_an_earlier_bad_row(self, tmp_path):
        # The undecodable byte sits chunks past line 2, so a line-by-line
        # parser reports line 2's range error before it reads that far.
        cases = _jester_cases()
        body = cases["out_of_range"] + cases["valid"] * 20
        p = tmp_path / "jokes.csv"
        p.write_bytes(body.encode("utf-8") + b"\xff\n")
        kind, message = self.assert_same(p)
        assert kind is ParseError
        assert message.startswith("line 2: rating -10.01")


class TestLoadMovielens:
    def test_four_line_fixture(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t10\t3\t881250949\n"
                     "2\t10\t5\t881250950\n"
                     "1\t20\t1\t881250951\n"
                     "943\t1682\t4\t881250952\n")
        pm = load_movielens_100k(p)
        assert pm.shape == (1682, 943)
        assert pm.n_cells == 4
        filled = pm.dense_fill(np.nan)
        assert filled[9, 0] == 3.0    # item 10, user 1
        assert filled[9, 1] == 5.0
        assert filled[19, 0] == 1.0
        assert filled[1681, 942] == 4.0

    def test_empty_file_warns(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("")
        with pytest.warns(UserWarning, match="no ratings"):
            pm = load_movielens_100k(p)
        assert pm.n_cells == 0

    def test_duplicate_keeps_last(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t10\t3\t0\n1\t10\t5\t1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            pm = load_movielens_100k(p)
        assert pm.n_cells == 1
        assert pm.dense_fill()[9, 0] == 5.0

    def test_out_of_range_ids(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("944\t10\t3\t0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_movielens_100k(p)
        p.write_text("1\t1683\t3\t0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_movielens_100k(p)
        p.write_text("1\t10\t6\t0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_movielens_100k(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t10\t3\n")
        with pytest.raises(ParseError, match="expected 4 fields"):
            load_movielens_100k(p)


def observed(a, mask):
    """PartialMatrix of the cells of ``a`` where ``mask`` holds."""
    rows, cols = np.nonzero(mask)
    return PartialMatrix(a.shape, rows, cols, a[rows, cols])


class TestIterativeSvdComplete:
    def test_fully_observed_single_pass(self):
        a = synthetic_lowrank(8, 6, 2, rng=np.random.default_rng(0))
        approx, info = iterative_svd_complete(observed(a, np.ones(a.shape)), 2)
        np.testing.assert_allclose(approx, truncated_svd_approx(a, 2),
                                   atol=1e-10)
        assert info["iterations"] == 1
        assert info["converged"]

    def test_rank1_single_missing_cell(self):
        rng = np.random.default_rng(3)
        a = np.outer(1 + rng.random(7), 1 + rng.random(5))
        hole = (2, 3)
        mask = np.ones(a.shape, dtype=bool)
        mask[hole] = False
        approx, info = iterative_svd_complete(observed(a, mask), 1,
                                              max_iters=500, tol=1e-10)
        expected = rank1_missing_cell_oracle(a, *hole)
        assert expected == pytest.approx(a[hole], rel=1e-10)  # oracle sanity
        assert approx[hole] == pytest.approx(expected, abs=1e-6)

    def test_monotone_observed_residual(self):
        rng = np.random.default_rng(4)
        a = synthetic_lowrank(20, 15, 3, rng=rng)
        pm = observed(a, rng.random(a.shape) < 0.6)
        _, info = iterative_svd_complete(pm, 3, max_iters=100, tol=1e-8)
        trace = info["trace"]
        assert len(trace) >= 2
        assert all(t1 >= t2 - 1e-9 for t1, t2 in zip(trace, trace[1:]))

    def test_output_rank_bounded(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((10, 9))
        approx, _ = iterative_svd_complete(
            observed(a, rng.random(a.shape) < 0.8), 3)
        sv = np.linalg.svd(approx, compute_uv=False)
        assert sv[3] < 1e-8 * max(sv[0], 1e-30)

    def test_empty_column_warns(self):
        a = np.tile([1.0, 2.0, 0.0], (4, 1))
        pm = observed(a, a > 0)
        with pytest.warns(UserWarning, match="no observations"):
            approx, _ = iterative_svd_complete(pm, 1, max_iters=50)
        assert np.isfinite(approx).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            iterative_svd_complete(PartialMatrix((3, 3)), 1)  # empty
        pm = PartialMatrix((3, 3), [0], [0], [1.0])
        with pytest.raises(ValueError):
            iterative_svd_complete(pm, 0)
        with pytest.raises(ValueError):
            iterative_svd_complete(pm, 1, tol=0.0)
