import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permprob import Family, matrices, output, probability, validation
from permprob.output import make_compare_doc, make_dist_doc, make_exact_doc
from permprob.probability import exact_counts
from permprob.sequences import SequenceCheck
from permprob.termdist import TermDistribution, e_table
from permprob.validation import CheckResult, run_offline_checks, verify_artifact

from oracles import parse_artifact
from strategies import HUGE, number_text

# valid letters three times over, so most lists of families are all valid
_FAMILY_TEXT = st.sampled_from(["A", "B", "C"] * 3 + ["", "a", "D", "AB"])
_HEADER_VALUES = {
    "family": _FAMILY_TEXT,
    "families": st.lists(_FAMILY_TEXT, max_size=4).map(",".join),
    "n": number_text(st.one_of(st.integers(-3, 6), HUGE)),
    # a grid inside the ceiling stays small, so each example runs in milliseconds
    "grid": number_text(st.one_of(
        st.integers(-3, 50),
        st.integers(probability.MAX_GRID + 1, 10**40))),
}
# ``# permprob <kind> key=value ...`` with every key but at most one
_HEADERS = st.builds(
    lambda kind, values, missing: " ".join(
        ["# permprob", kind]
        + [f"{key}={value}" for key, value in values.items() if key != missing]
    ),
    st.sampled_from(["dist", "exact", "compare", "junk"]),
    st.fixed_dictionaries(_HEADER_VALUES),
    st.sampled_from([None, *_HEADER_VALUES]),
)


class TestOfflineChecks:
    def test_all_pass(self):
        results = run_offline_checks(bruteforce_n=5)
        assert results
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed

    def test_check_names_are_stable(self):
        names = {r.name for r in run_offline_checks(bruteforce_n=2)}
        assert {
            "w-triangle-reference",
            "v-triangle-reference",
            "w-closed-vs-recurrence-vs-cycles",
            "v-closed-vs-identity",
            "e-table-vs-bruteforce",
            "term-count-totals",
            "w-diagonal-vs-permanent",
            "v-diagonal-vs-permanent",
            "exact-counts-n3-reference",
            "n2-exactness",
            "probability-endpoints-n3",
            "sequence-references",
        } <= names

    def test_bruteforce_mismatch_reported_in_family_then_n_order(self, monkeypatch):
        def corrupted(family, n):
            dist = e_table(family, n)
            if (family, n) in ((Family.B, 4), (Family.A, 6)):
                return TermDistribution(family, n, (1,) + dist.counts[1:])
            return dist

        monkeypatch.setattr(validation, "e_table", corrupted)
        results = {r.name: r for r in run_offline_checks(bruteforce_n=6)}
        check = results["e-table-vs-bruteforce"]
        assert not check.passed
        assert check.detail == "first mismatch at [('A', 6)]"

    @pytest.mark.parametrize("route, family", [
        ("exact_counts", Family.C),
        ("_counts_transfer", Family.A),
        ("_counts_transfer", Family.B),
        ("exact_counts_direct", Family.A),
    ])
    def test_a_wrong_exact_counts_route_is_named(self, monkeypatch, route, family):
        # one family's counts come back with N_0 = 2 from one route only
        def wrong(counts, f):
            return ((2,) + tuple(counts)[1:]) if f is family else counts

        if route == "exact_counts":
            def corrupted(f, n, force=False):
                got = probability.exact_counts(f, n, force)
                return probability.ExactCounts(f, n, wrong(got.counts, f))
        elif route == "_counts_transfer":
            def corrupted(f, n):
                return list(wrong(matrices._counts_transfer(f, n), f))
        else:
            def corrupted(f, n):
                return wrong(matrices.exact_counts_direct(f, n), f)
        monkeypatch.setattr(validation, route, corrupted)
        results = {r.name: r for r in run_offline_checks(bruteforce_n=2)}
        check = results["exact-counts-n3-reference"]
        assert not check.passed
        expected = [2] + list(validation.REFERENCE_EXACT_COUNTS_N3[family][1:])
        assert check.detail == f"mismatch: [({family.value!r}, {route!r}, {expected})]"

    @pytest.mark.parametrize("r, off, detail", [
        (0.0, -2.0**-53, "C: r=0 endpoint"),
        (1.0, 2.0**-1074, "B: r=1 endpoint"),
    ])
    def test_an_endpoint_one_ulp_off_fails(self, monkeypatch, r, off, detail):
        # P is exact at both endpoints, so the check allows no tolerance
        def nudged(counts, at):
            return probability.p_eval(counts, at) + off * (at == r)

        monkeypatch.setattr(validation, "p_eval", nudged)
        results = {res.name: res for res in run_offline_checks(bruteforce_n=2)}
        check = results["probability-endpoints-n3"]
        assert (check.passed, check.detail) == (False, detail)

    @pytest.mark.parametrize("bad_n", [1, 7, 12])
    @pytest.mark.parametrize("name, closed_form", [
        ("w-diagonal-vs-permanent", "w_closed_form"),
        ("v-diagonal-vs-permanent", "v_closed_form"),
    ])
    def test_a_wrong_diagonal_is_named(self, monkeypatch, bad_n, name, closed_form):
        # The closed form is off by one on the diagonal at n = bad_n only.
        right = getattr(validation, closed_form)

        def wrong(n, m):
            return right(n, m) + (n == m == bad_n)

        monkeypatch.setattr(validation, closed_form, wrong)
        results = {r.name: r for r in run_offline_checks(bruteforce_n=2)}
        assert not results[name].passed
        assert results[name].detail == f"mismatch at n=[{bad_n}]"

    @pytest.mark.parametrize("name, route, broken, detail", [
        ("w-triangle-reference", "REFERENCE_W_TRIANGLE",
         lambda right: {**right, 4: (1, 0, 6, 8, 8)},
         "mismatch at [(4, [1, 0, 6, 8, 9])]"),
        ("v-triangle-reference", "REFERENCE_V_TRIANGLE",
         lambda right: {**right, 7: (0, 1, 6, 45, 220, 795, 1854, 2120)},
         "mismatch at [(7, [0, 1, 6, 45, 220, 795, 1854, 2119])]"),
        ("w-closed-vs-recurrence-vs-cycles", "w_recurrence_table",
         lambda right: lambda n_max: [row if n != 5 else row[:2] + [row[2] + 1] + row[3:]
                                      for n, row in enumerate(right(n_max))],
         "first mismatch at [(5, 2)]"),
        ("v-closed-vs-identity", "v_via_w",
         lambda right: lambda n, m: right(n, m) - ((n, m) in ((6, 3), (9, 1))),
         "first mismatch at [(6, 3)]"),
        ("term-count-totals", "e_table",
         lambda right: lambda family, n: (
             TermDistribution(family, n, right(family, n).counts[:-1] + (0,))
             if (family, n) in ((Family.B, 10), (Family.C, 3)) else right(family, n)),
         "mismatch at [('B', 10)]"),
        ("n2-exactness", "compare_grid",
         lambda right: lambda family, n: [row[:3] + (row[3] + 2e-9 * (family is Family.C),)
                                          for row in right(family, n)],
         "max |Q-P| = 2e-09"),
        ("sequence-references", "builtin_checks",
         lambda right: lambda: [
             SequenceCheck(c.oeis_id, c.slice_name, c.first_n, c.expected, c.generated[::-1])
             if c.oeis_id in ("A000217", "A045943") else c for c in right()],
         "failed: ['A000217', 'A045943']"),
    ], ids=["w-triangle", "v-triangle", "w-closed", "v-closed", "totals", "n2", "sequences"])
    def test_a_broken_route_fails_its_row(self, monkeypatch, name, route, broken, detail):
        # each row, with one of the routes it compares broken through this module
        monkeypatch.setattr(validation, route, broken(getattr(validation, route)))
        results = {r.name: r for r in run_offline_checks(bruteforce_n=2)}
        assert (results[name].passed, results[name].detail) == (False, detail)


class TestArtifactVerification:
    def test_dist_artifact_roundtrip(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text(make_dist_doc(Family.C, 4).render())
        result = verify_artifact(str(path))
        assert result.passed, result.detail

    def test_exact_artifact_roundtrip(self, tmp_path):
        path = tmp_path / "exact.csv"
        path.write_text(make_exact_doc(exact_counts(Family.A, 3)).render())
        assert verify_artifact(str(path)).passed

    def test_tampered_value_detected(self, tmp_path):
        path = tmp_path / "dist.csv"
        text = make_dist_doc(Family.C, 4).render()
        path.write_text(text.replace("4,4,9", "4,4,8"))
        result = verify_artifact(str(path))
        assert not result.passed
        assert "differs" in result.detail

    def test_crlf_copy_fails(self, tmp_path):
        text = make_exact_doc(exact_counts(Family.C, 3)).render()
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        assert verify_artifact(str(path)).passed
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        result = verify_artifact(str(crlf))
        assert not result.passed
        assert result.detail == (
            "10 lines differ from regenerated values, first line 1: "
            "'# permprob exact family=C n=3 variables=6 target=1\\r\\n' -> "
            "'# permprob exact family=C n=3 variables=6 target=1\\n'")

    def test_a_changed_row_is_quoted(self, tmp_path):
        # the float sum that P once took wrote ...505 here; the exact value rounds to ...506
        old = "0.046,0.947080056916,0.947431585505"
        text = make_compare_doc([Family.B], 4, 1001).render()
        assert text.count(old[:-1] + "6\n") == 1
        path = tmp_path / "compare.csv"
        path.write_text(text.replace(old[:-1] + "6", old))
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.detail == (f"1 line differs from regenerated values, first line 49: "
                                 f"'{old}\\n' -> '{old[:-1]}6\\n'")

    def test_missing_and_extra_lines_are_counted(self, tmp_path):
        text = make_exact_doc(exact_counts(Family.C, 3)).render()
        path = tmp_path / "e.csv"
        path.write_text(text + "x\ny\n")
        assert verify_artifact(str(path)).detail == (
            "2 lines differ from regenerated values, first line 11: 'x\\n' -> (none)")
        path.write_text(text[:-6])
        assert verify_artifact(str(path)).detail == (
            "2 lines differ from regenerated values, first line 9: '5,' -> '5,0\\n'")
        path.write_text(text[:-4])
        assert verify_artifact(str(path)).detail == (
            "1 line differs from regenerated values, first line 10: (none) -> '6,0\\n'")
        # a long line is quoted only up to its 80th character
        path.write_text(text + "z" * 100)
        assert verify_artifact(str(path)).detail == (
            f"1 line differs from regenerated values, first line 11: '{'z' * 80}'... -> (none)")

    def test_length_guard(self, tmp_path, monkeypatch):
        # shrink the limit first, so /dev/zero is never read without a bound
        monkeypatch.setattr(validation, "MAX_ARTIFACT_CHARS", 64)
        guard = ("guard violation: artifact longer than its ceiling of 64 characters, "
                 "which no --force lifts")
        assert verify_artifact("/dev/zero").detail == guard
        text = make_dist_doc(Family.C, 4).render()
        path = tmp_path / "dist.csv"
        path.write_text(text)
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.detail == guard
        # one character past the limit fails; at the limit the file is read whole
        path.write_text(text[:65])
        assert verify_artifact(str(path)).detail == guard
        path.write_text(text[:64])
        assert "differ" in verify_artifact(str(path)).detail

    def test_memory_stays_near_the_file_size(self, tmp_path):
        # a valid header, then 200,000 short rows: a list of every line, or of
        # every row's cells, takes more than 20 times the file's size
        path = tmp_path / "rows.csv"
        path.write_text("# permprob dist family=C n=2\nn,m,count\n" + ",,,,,,,,,\n" * 200_000)
        size = path.stat().st_size
        assert size == 2_000_039
        tracemalloc.start()
        try:
            result = verify_artifact(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.detail == ("200000 lines differ from regenerated values, first line 3: "
                                 "',,,,,,,,,\\n' -> '1,0,1\\n'")
        assert peak < 20 * size

    def test_small_artifact_reads_small(self, tmp_path):
        # a read of the whole length limit at once allocates 16 MiB for any file
        path = tmp_path / "exact_C_4.csv"
        path.write_text(make_exact_doc(exact_counts(Family.C, 4)).render())
        assert verify_artifact(str(path)).passed  # counts and imports come first
        tracemalloc.start()
        try:
            result = verify_artifact(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 256 * 1024

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["a", "#", ",", "\n", "\r", "\r\n", "\x0c", "\x1e",
                                     "\x85", "\u2028", "a" * 65_530])).map("".join))
    def test_lines_are_splitlines(self, text):
        assert list(validation._lines(text)) == text.splitlines(True)

    def test_missing_file(self, tmp_path):
        result = verify_artifact(str(tmp_path / "nope.csv"))
        assert not result.passed

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe# permprob dist family=C n=2\n")
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.name == f"artifact:{path}"
        assert result.detail.startswith("cannot read: ")
        assert "can't decode" in result.detail

    @pytest.mark.parametrize(
        "header, guard",
        [
            ("# permprob dist family=C n=400\nn,m,count\n",
             "dist n 400 exceeds its ceiling of 200"),
            ("# permprob compare n=2 grid=5000000 families=A\nr,Q_A,P_A\n",
             "compare grid point count 5000000 exceeds its ceiling of 20001"),
            # B at n=40 counts in milliseconds, but the exact ceiling holds for every family
            ("# permprob exact family=B n=40\ni,count\n",
             "exact n 40 exceeds its ceiling of 16"),
        ],
    )
    def test_metadata_beyond_guards_fails_fast(self, tmp_path, header, guard):
        path = tmp_path / "big.csv"
        path.write_text(header)
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.detail == f"guard violation: {guard}, which no --force lifts"

    @pytest.mark.parametrize("n", [-3, 0])
    def test_dist_dimension_below_one_is_malformed(self, tmp_path, n):
        path = tmp_path / "dist.csv"
        path.write_text(f"# permprob dist family=C n={n}\nn,m,count\n")
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.detail == f"malformed artifact: dimension must be >= 1, got {n}"

    @pytest.mark.parametrize("header, length", [
        ("# permprob exact family=C n=" + "1" * 21, 21),
        ("# permprob compare n=2 grid=" + "9" * 5000 + " families=A", 5000),
    ], ids=["exact-n", "compare-grid"])
    @pytest.mark.parametrize("beside_valid", [False, True])
    def test_integer_too_long_is_malformed(self, tmp_path, capsys, header, length,
                                           beside_valid):
        path = tmp_path / "long.csv"
        path.write_text(header + "\ni,count\n")
        result = verify_artifact(str(path))
        assert not result.passed
        detail = ("malformed artifact: an integer may have at most 20 "
                  f"characters, got {length}")
        assert result.detail == detail
        # validate's report carries the same line, and a valid artifact checked
        # in the same run still passes
        valid = tmp_path / "dist.csv"
        valid.write_text(make_dist_doc(Family.C, 3).render())
        paths = [str(valid), str(path)] if beside_valid else [str(path)]
        assert validation.report(1, paths) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"FAIL  artifact:{path}  ({detail})" in out
        passed = f"PASS  artifact:{valid}  (dist artifact matches regenerated values)"
        assert (passed in out) == beside_valid

    # The dist ceiling is tested through the command line, in a fresh
    # interpreter under a timeout: past it, a forced run would not end.
    @pytest.mark.parametrize("header, refused", [
        ("# permprob exact family=A n=17\ni,count\n",
         "exact n 17 exceeds its ceiling of 16"),
        ("# permprob compare n=13 grid=5 families=A\nr,Q_A,P_A\n",
         "compare n 13 exceeds its ceiling of 12"),
        ("# permprob compare n=2 grid=20002 families=A\nr,Q_A,P_A\n",
         "compare grid point count 20002 exceeds its ceiling of 20001"),
        ("# permprob compare n=2 grid=5 families=" + ",".join(["A"] * 13) + "\nr\n",
         "compare families 13 exceeds its ceiling of 12"),
    ], ids=["exact-n", "compare-n", "compare-grid", "compare-families"])
    def test_forced_header_past_its_ceiling_fails_fast(self, tmp_path, header, refused):
        path = tmp_path / "big.csv"
        path.write_text(header)
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.detail == f"guard violation: {refused}, which no --force lifts"

    def test_forced_header_at_its_ceiling_is_verified(self, tmp_path):
        path = tmp_path / "compare.csv"
        path.write_text(make_compare_doc([Family.C], 2, 20_001, force=True).render())
        assert verify_artifact(str(path)).passed

    def test_forced_artifact_verifies_unforced(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text(make_dist_doc(Family.C, 31, force=True).render())
        assert verify_artifact(str(path)).passed
        # a forced run within the limits writes what an unforced one would
        path = tmp_path / "exact.csv"
        path.write_text(make_exact_doc(exact_counts(Family.A, 8, force=True)).render())
        assert verify_artifact(str(path)).passed

    def test_artifacts_at_the_ceilings_fit_the_length_limit(self):
        dist = make_dist_doc(Family.B, output.DIST_MAX_N).render()
        exact = make_exact_doc(exact_counts(Family.A, probability.EXACT_MAX_N)).render()
        assert max(len(dist), len(exact)) <= validation.MAX_ARTIFACT_CHARS
        # a compare row is r, then Q and P for each family: each cell is at most
        # 18 characters, as in 1.23456789012e-300, and one separator follows it
        compare = probability.MAX_GRID * (1 + 2 * probability.MAX_FAMILIES) * 19
        assert compare <= validation.MAX_ARTIFACT_CHARS

    def test_repeated_family_computed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "compare.csv"
        text = make_compare_doc([Family.A, Family.A, Family.A], 2, 5).render()
        assert text.startswith("# permprob compare n=2 grid=5 families=A,A,A\n"
                               "r,Q_A,P_A,Q_A,P_A,Q_A,P_A\n")
        path.write_text(text)
        calls = []
        compare_grid = probability.compare_grid

        def counted(family, *args, **kwargs):
            calls.append(family)
            return compare_grid(family, *args, **kwargs)

        monkeypatch.setattr(probability, "compare_grid", counted)
        assert verify_artifact(str(path)).passed
        assert calls == [Family.A]

    @settings(max_examples=200, deadline=None)
    @given(header=_HEADERS)
    def test_fuzzed_header_is_a_failed_check(self, tmp_path_factory, header):
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_text(f"{header}\nr,x\n", encoding="utf-8")
        result = verify_artifact(str(path))
        assert isinstance(result, CheckResult)
        assert not result.passed

    def test_file_without_metadata(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n")
        result = verify_artifact(str(path))
        assert not result.passed
        assert "metadata" in result.detail


# Each size limit, read from the builder that checks it: a header one past it,
# and the failure it gives
_PAST_THE_LIMITS = [
    (f"dist family=B n={output.DIST_MAX_N + 1}",
     f"dist n {output.DIST_MAX_N + 1} exceeds its ceiling of {output.DIST_MAX_N}"),
    (f"exact family=B n={probability.EXACT_MAX_N + 1}",
     f"exact n {probability.EXACT_MAX_N + 1} exceeds its ceiling of {probability.EXACT_MAX_N}"),
    (f"compare n={probability.COMPARE_MAX_N + 1} grid=5 families=C",
     f"compare n {probability.COMPARE_MAX_N + 1} exceeds its ceiling of "
     f"{probability.COMPARE_MAX_N}"),
    (f"compare n=2 grid={probability.MAX_GRID + 1} families=C",
     f"compare grid point count {probability.MAX_GRID + 1} exceeds its ceiling of "
     f"{probability.MAX_GRID}"),
    ("compare n=2 grid=5 families=" + ",".join("C" * (probability.MAX_FAMILIES + 1)),
     f"compare families {probability.MAX_FAMILIES + 1} exceeds its ceiling of "
     f"{probability.MAX_FAMILIES}"),
]


class TestOneLimitPerSize:
    @pytest.mark.parametrize("header, refused", _PAST_THE_LIMITS,
                             ids=["dist-n", "exact-n", "compare-n", "compare-grid",
                                  "compare-families"])
    def test_header_past_a_limit_fails_fast(self, tmp_path, header, refused):
        path = tmp_path / "big.csv"
        path.write_text(f"# permprob {header}\nr\n")
        result = verify_artifact(str(path))
        assert not result.passed
        assert result.detail == f"guard violation: {refused}, which no --force lifts"

    @pytest.mark.parametrize("doc", [
        lambda: make_dist_doc(Family.B, output.DIST_MAX_N),
        lambda: make_exact_doc(exact_counts(Family.A, probability.EXACT_MAX_N)),
        lambda: make_compare_doc(list(Family), 2, probability.MAX_GRID),
        lambda: make_compare_doc(list(Family), probability.COMPARE_MAX_N, 5),
    ], ids=["dist-n", "exact-n", "compare-grid", "compare-n"])
    def test_unforced_artifact_at_the_limits_verifies(self, tmp_path, doc):
        path = tmp_path / "at.csv"
        path.write_text(doc().render())
        assert verify_artifact(str(path)).passed


class TestCsvDoc:
    def test_parse_render_byte_identical(self):
        doc = make_exact_doc(exact_counts(Family.B, 2))
        text = doc.render()
        assert parse_artifact(text).render() == text

    def test_parse_requires_header(self):
        with pytest.raises(ValueError, match="^missing header row$"):
            validation._metadata("# permprob dist family=C n=2\n")

    def test_metadata_extraction(self):
        doc = make_dist_doc(Family.B, 3)
        meta = output.read_metadata(doc.render().splitlines())
        assert meta == {"kind": "dist", "family": "B", "n": "3"}

    @pytest.mark.parametrize("build, meta, json_meta", [
        (lambda: make_dist_doc(Family.B, 3), {"family": "B", "n": 3},
         {"kind": "dist", "family": "B", "n": 3}),
        (lambda: make_exact_doc(exact_counts(Family.A, 2)),
         {"family": "A", "n": 2, "variables": 4, "target": 0},
         {"kind": "exact", "family": "A", "n": 2, "variables": 4, "target": 0}),
        (lambda: make_compare_doc([Family.C, Family.A, Family.C], 3, 5),
         {"n": 3, "grid": 5, "families": "C,A,C"},
         {"kind": "compare", "n": 3, "grid_points": 5, "families": ["C", "A", "C"]}),
    ], ids=["dist", "exact", "compare-repeated-family"])
    def test_metadata_round_trips(self, build, meta, json_meta):
        doc = build()
        assert doc.meta == meta
        assert output.read_metadata(doc.render().splitlines()) == {
            "kind": doc.kind, **{key: str(value) for key, value in doc.meta.items()}}
        rendered = json.loads(doc.render("json"))
        assert {key: rendered[key] for key in json_meta} == json_meta
        data = ["counts", "polynomial"] if doc.kind == "exact" else ["rows"]
        assert list(rendered) == [*json_meta, *data]
