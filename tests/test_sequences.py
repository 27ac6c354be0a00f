import http.server
import math
import re
import threading
import urllib.error
import urllib.request

import pytest

from permprob import (
    OEISFormatError,
    SequenceCheck,
    builtin_checks,
    oeis_lookup,
)
from permprob.cli import main
from permprob.oeis import MAX_OEIS_BODY_BYTES, _http_fetch
from permprob.sequences import REFERENCES

SAMPLE_RESPONSE = """\
# Greetings from The On-Line Encyclopedia of Integer Sequences!

Search: seq:0,1,2,9,44,265
Showing 1-2 of 2

%I A000166 M1937 N0766
%S A000166 1,0,1,2,9,44,265,1854,14833,133496,1334961,14684570,176214841
%N A000166 Subfactorial or rencontres numbers, or derangements.

%I A000255 M2905 N1166
%S A000255 1,1,3,11,53,309,2119,16687,148329,1468457,16019531,190899411
%N A000255 a(n) = n*a(n-1) + (n-1)*a(n-2), a(0) = 1, a(1) = 1.
"""

NO_RESULTS_RESPONSE = """\
# Greetings from The On-Line Encyclopedia of Integer Sequences!

Search: seq:5,14,42,132,9999991
No results.
"""


class TestBuiltinChecks:
    def test_all_pass_offline(self):
        checks = builtin_checks()
        assert checks, "no sequence checks registered"
        for check in checks:
            assert check.passed, f"{check.oeis_id}: {check.generated} != {check.expected}"

    def test_window_lengths_at_least_eight(self):
        for check in builtin_checks():
            assert len(check.expected) >= 8, check.oeis_id

    def test_expected_slices(self):
        by_id = {check.oeis_id: check for check in builtin_checks()}
        assert by_id["A000166"].expected[:6] == (0, 1, 2, 9, 44, 265)
        assert by_id["A000166"].first_n == 1
        assert by_id["A000255"].expected == (
            1, 1, 3, 11, 53, 309, 2119, 16687,
            148329, 1468457, 16019531, 190899411,
        )
        assert by_id["A000217"].expected[:5] == (1, 3, 6, 10, 15)
        assert by_id["A000217"].first_n == 2
        assert by_id["A045943"].expected[:3] == (3, 9, 18)

    def test_formula_rows_give_the_published_terms(self):
        # these rows come from each sequence's own formula, not from the
        # closed forms that they check
        by_id = {check.oeis_id: check.expected for check in builtin_checks()}
        assert by_id["A007290"] == (2, 8, 20, 40, 70, 112, 168, 240, 330, 440)
        assert by_id["A060008"] == (9, 45, 135, 315, 630, 1134, 1890, 2970, 4455)
        assert by_id["A060836"] == (44, 264, 924, 2464, 5544, 11088, 20328, 34848)
        assert by_id["A045943"] == (3, 9, 18, 30, 45, 63, 84, 108, 135, 165)

    def test_mismatch_fails(self):
        check = SequenceCheck("A000166", "W_n(n)", 1, (0, 1, 2), (0, 1, 3))
        assert not check.passed
        assert SequenceCheck("A000166", "W_n(n)", 1, (0, 1, 2), (0, 1, 2)).passed


class TestReferenceData:
    def test_ids_are_well_formed(self):
        for oeis_id, *_ in REFERENCES:
            assert len(oeis_id) == 7 and oeis_id.startswith("A")


class TestLookup:
    def test_short_prefix_rejected(self):
        with pytest.raises(ValueError):
            oeis_lookup([1, 2, 3])

    def test_parses_identifiers_in_order(self):
        seen_urls = []

        def fake_fetch(url, timeout):
            seen_urls.append(url)
            return SAMPLE_RESPONSE

        result = oeis_lookup([0, 1, 2, 9, 44, 265], fetch=fake_fetch)
        assert result.status == "ok"
        assert result.ids == ("A000166", "A000255")
        assert "q=0,1,2,9,44,265" in seen_urls[0]
        assert "fmt=text" in seen_urls[0]

    def test_no_results_is_ok_and_empty(self):
        result = oeis_lookup([5, 14, 42, 132, 9999991], fetch=lambda u, t: NO_RESULTS_RESPONSE)
        assert result.status == "ok"
        assert result.ids == ()

    def test_malformed_body_raises(self):
        with pytest.raises(OEISFormatError):
            oeis_lookup([1, 2, 4, 8], fetch=lambda u, t: "<html>splash page</html>")

    def test_network_failure_degrades_to_skipped(self):
        def failing_fetch(url, timeout):
            raise urllib.error.URLError("boom")

        result = oeis_lookup([1, 2, 4, 8], fetch=failing_fetch)
        assert result.status == "skipped"
        assert result.ids == ()
        assert "boom" in result.note

    def test_unreachable_endpoint_skipped(self):
        # port 9 (discard) is closed; connection is refused locally, no network needed
        result = oeis_lookup(
            [1, 2, 4, 8], base_url="http://127.0.0.1:9", timeout=0.5
        )
        assert result.status == "skipped"

    def test_env_overrides(self, monkeypatch):
        captured = {}

        def fake_fetch(url, timeout):
            captured["url"] = url
            captured["timeout"] = timeout
            return NO_RESULTS_RESPONSE

        monkeypatch.setenv("PERMPROB_OEIS_URL", "http://oeis.invalid")
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "3.5")
        oeis_lookup([1, 2, 4, 8], fetch=fake_fetch)
        assert captured["url"].startswith("http://oeis.invalid/search")
        assert captured["timeout"] == 3.5


def _never_fetch(url, timeout):
    raise AssertionError("fetch must not be reached")


class TestLookupTimeout:
    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf"])
    def test_bad_env_timeout_refused_before_fetch(self, monkeypatch, value):
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", value)
        with pytest.raises(ValueError, match="PERMPROB_OEIS_TIMEOUT") as info:
            oeis_lookup([1, 2, 4, 8], fetch=_never_fetch)
        assert type(info.value) is ValueError

    def test_env_timeout_below_one_second_accepted(self, monkeypatch):
        seen = []
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "0.5")
        oeis_lookup([1, 2, 4, 8],
                    fetch=lambda url, timeout: seen.append(timeout) or NO_RESULTS_RESPONSE)
        assert seen == [0.5]

    @pytest.mark.parametrize("value", [0, 0.0, -1, -0.5, math.nan, math.inf,
                                       pytest.param(10**400, id="10**400"), "abc"])
    def test_bad_timeout_argument_refused_before_fetch(self, monkeypatch, value):
        # a valid variable does not stand in for a bad argument, 0 included
        monkeypatch.setenv("PERMPROB_OEIS_TIMEOUT", "3.5")
        with pytest.raises(ValueError, match=r"^(bad config value for )?timeout\b") as info:
            oeis_lookup([1, 2, 4, 8], timeout=value, fetch=_never_fetch)
        assert type(info.value) is ValueError


ACCENTED_LINE = "%N A000166 r\u00e9sum\u00e9\n"


class _OEISStub(http.server.BaseHTTPRequestHandler):
    """A loopback stand-in for the OEIS, one route per first path segment.

    /ok, /none and /html answer with ``SAMPLE_RESPONSE``, ``NO_RESULTS_RESPONSE``
    and an HTML page; /status/<code>/search answers with that code.
    /big/<extra>/search answers the /ok body padded with newlines to
    ``MAX_OEIS_BODY_BYTES`` + extra bytes.  /latin1 and /unknown answer one
    line in ISO-8859-1 and in UTF-8, the latter labelled with a charset that
    Python does not know; /hello answers no HTTP at all.
    """

    _BODIES = {"ok": SAMPLE_RESPONSE, "none": NO_RESULTS_RESPONSE,
               "html": "<html>splash page</html>\n"}

    def do_GET(self):
        self.server.paths.append(self.path)
        parts = self.path.split("/")
        status, charset = 200, "utf-8"
        if parts[1] in self._BODIES:
            body = self._BODIES[parts[1]].encode(charset)
        elif parts[1] == "latin1":
            charset = "iso-8859-1"
            body = ACCENTED_LINE.encode(charset)
        elif parts[1] == "unknown":
            charset = "x-unknown"
            body = ACCENTED_LINE.encode("utf-8")
        elif parts[1] == "big":
            body = SAMPLE_RESPONSE.encode(charset)
            body += b"\n" * (MAX_OEIS_BODY_BYTES + int(parts[2]) - len(body))
        elif parts[1] == "hello":
            self.wfile.write(b"HELLO\r\n\r\n")
            return
        else:
            status, body = int(parts[2]), b"error"
        self.send_response(status)
        self.send_header("Content-Type", f"text/plain; charset={charset}")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def oeis_stub():
    """A loopback HTTP server on a free port; yields (base URL, request paths)."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _OEISStub)
    server.paths = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", server.paths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestStdlibClient:
    def test_ok_body_returns_ids(self, oeis_stub):
        base, paths = oeis_stub
        result = oeis_lookup([0, 1, 2, 9, 44, 265], base_url=f"{base}/ok", timeout=5)
        assert result.status == "ok"
        assert result.ids == ("A000166", "A000255")
        assert paths == ["/ok/search?q=0,1,2,9,44,265&fmt=text"]

    @pytest.mark.parametrize("code", [404, 500])
    def test_http_error_status_is_skipped(self, oeis_stub, code):
        base, paths = oeis_stub
        result = oeis_lookup([1, 2, 4, 8], base_url=f"{base}/status/{code}", timeout=5)
        assert result.status == "skipped"
        assert result.ids == ()
        assert str(code) in result.note
        assert len(paths) == 1

    def test_body_up_to_the_cap_is_read(self, oeis_stub):
        base, _ = oeis_stub
        result = oeis_lookup([0, 1, 2, 9], base_url=f"{base}/big/0", timeout=5)
        assert result.status == "ok"
        assert result.ids == ("A000166", "A000255")

    def test_body_past_the_cap_is_skipped(self, oeis_stub):
        base, paths = oeis_stub
        result = oeis_lookup([0, 1, 2, 9], base_url=f"{base}/big/1", timeout=5)
        assert result.status == "skipped"
        assert result.ids == ()
        assert f"longer than MAX_OEIS_BODY_BYTES = {MAX_OEIS_BODY_BYTES} bytes" in result.note
        assert len(paths) == 1

    def test_body_decoded_with_response_charset(self, oeis_stub):
        base, _ = oeis_stub
        assert _http_fetch(f"{base}/latin1/x", 5) == ACCENTED_LINE

    def test_unknown_charset_decodes_as_utf8(self, oeis_stub):
        base, _ = oeis_stub
        assert _http_fetch(f"{base}/unknown/x", 5) == ACCENTED_LINE

    def test_malformed_status_line_is_skipped(self, oeis_stub):
        # http.client raises BadStatusLine, an HTTPException and no OSError
        base, paths = oeis_stub
        result = oeis_lookup([1, 2, 4, 8], base_url=f"{base}/hello", timeout=5)
        assert result.status == "skipped"
        assert result.ids == ()
        assert result.note == (
            f"fetch failed: fetching '{base}/hello/search?q=1,2,4,8&fmt=text' failed: HELLO")
        assert "\r" not in result.note and "\n" not in result.note
        assert len(paths) == 1

    @pytest.mark.parametrize(
        "base_url", ["file:///etc", "ftp://127.0.0.1", "oeis.org", "localhost:8080"]
    )
    def test_other_schemes_skipped_without_opening(self, base_url, monkeypatch):
        def no_open(*args, **kwargs):
            raise AssertionError("urlopen must not be reached")

        monkeypatch.setattr(urllib.request, "urlopen", no_open)
        result = oeis_lookup([1, 2, 4, 8], base_url=base_url, timeout=5)
        assert result.status == "skipped"
        assert "only http and https" in result.note


_SLICES = ["A000166 [W_n(n)]", "A000217 [W_n(2)]", "A007290 [W_n(3)]", "A060008 [W_n(4)]",
           "A060836 [W_n(5)]", "A000255 [V_n(n)]", "A045943 [V_n(3)]", "V_n(4) column"]
_LISTED = ["listed", *["not among 2 candidates"] * 4, "listed", "not among 2 candidates",
           "candidates: A000166, A000255"]


def _report(answers):
    return [f"OEIS  {name} {answer} at <stamp>" for name, answer in zip(_SLICES, answers)]


class TestOEISReport:
    """The whole stdout of ``seq --oeis`` against the stub, UTC stamps masked.

    The offline report of ``seq`` comes first and its summary last, around
    one OEIS line for each slice and one for the V_n(4) column.
    """

    @staticmethod
    def oeis_lines(capsys):
        assert main(["seq"]) == 0
        offline = capsys.readouterr().out.splitlines()
        code = main(["seq", "--oeis"])
        out = capsys.readouterr()
        assert (code, out.err) == (0, "")
        lines = re.sub(r" at \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00$", " at <stamp>",
                       out.out, flags=re.MULTILINE).splitlines()
        assert lines[:7] + lines[-1:] == offline
        return lines[7:-1]

    @pytest.mark.parametrize("route, answers", [
        ("ok", _LISTED),
        ("none", ["not among 0 candidates"] * 7 + ["no listed sequence matches"]),
        ("html", ["error: response is not in the expected text format"] * 8),
    ], ids=["listed", "no-results", "not-text"])
    def test_stdout(self, oeis_stub, capsys, monkeypatch, route, answers):
        base, paths = oeis_stub
        monkeypatch.setenv("PERMPROB_OEIS_URL", f"{base}/{route}")
        assert self.oeis_lines(capsys) == _report(answers)
        assert len(paths) == 8

    def test_malformed_status_line_keeps_one_line_per_lookup(self, oeis_stub, capsys,
                                                              monkeypatch):
        base, paths = oeis_stub
        monkeypatch.setenv("PERMPROB_OEIS_URL", f"{base}/hello")
        assert self.oeis_lines(capsys) == _report(
            f"lookup skipped (fetch failed: fetching '{base}{path}' failed: HELLO)"
            for path in paths)
        assert len(paths) == 8

    def test_config_url_is_not_read(self, oeis_stub, capsys, monkeypatch, tmp_path):
        # a permprob.conf that names the listing route changes no lookup
        base, paths = oeis_stub
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PERMPROB_OEIS_URL", f"{base}/none")
        (tmp_path / "permprob.conf").write_text(f"oeis_url={base}/ok\noeis_timeout=-1\n")
        assert self.oeis_lines(capsys) == _report(
            ["not among 0 candidates"] * 7 + ["no listed sequence matches"])
        assert len(paths) == 8 and all(path.startswith("/none/") for path in paths)
