"""Read-only OEIS client: remote lookups of the table slices that ``seq`` checks.

Only ``--oeis`` loads this module, and with it ``re``; the HTTP stack loads
only when a lookup is fetched.  Every network failure degrades to a
"skipped" result, so offline runs keep working.  The lookup URL and timeout
are read and checked by :func:`permprob.sequences.oeis_settings`, which
``seq`` also calls on every run without loading this module.
"""

import re

from .guards import Record
from .sequences import builtin_checks, oeis_settings
from .termdist import v_closed_form

TYPE_CHECKING = False  # type checkers read it as True; typing stays unimported
if TYPE_CHECKING:
    from typing import Callable, Sequence

# Longest lookup response, in bytes, that ``_http_fetch`` reads; a page of
# OEIS text-format results is a few tens of KiB.
MAX_OEIS_BODY_BYTES = 1024 * 1024

_ID_PATTERN = re.compile(r"A\d{6}")


class OEISFormatError(ValueError):
    """The lookup endpoint returned a body that is not in its text format."""


class LookupResult(Record):
    """Outcome of one remote lookup; ``skipped`` status is not a failure."""

    __slots__ = ("status", "ids", "note")

    def __init__(self, status: str, ids: tuple[str, ...], note: str = "") -> None:
        self.status = status  # "ok" or "skipped"
        self.ids = ids
        self.note = note


def _http_fetch(url: str, timeout: float) -> str:
    """GET ``url`` and return its decoded body; every failure is an ``OSError``.

    Only http and https URLs are fetched, so a configured ``file://`` base
    cannot read local files, and a body longer than ``MAX_OEIS_BODY_BYTES``
    is refused after reading one byte past that cap.  The HTTP stack is
    imported here, not at module level, because only a fetch needs it.
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    scheme = urllib.parse.urlsplit(url).scheme
    if scheme not in ("http", "https"):
        raise OSError(f"refusing to fetch {url!r}: only http and https URLs are allowed")
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            charset = response.headers.get_content_charset() or "utf-8"
            body = response.read(MAX_OEIS_BODY_BYTES + 1)
    except (http.client.HTTPException, ValueError) as exc:
        # URLError, HTTPError and timeouts already are OSErrors.  The text of
        # BadStatusLine is the line as received, so its whitespace is
        # collapsed to keep each report line one line.
        raise OSError(f"fetching {url!r} failed: {' '.join(str(exc).split())}") from exc
    if len(body) > MAX_OEIS_BODY_BYTES:
        raise OSError(
            f"response to {url!r} is longer than MAX_OEIS_BODY_BYTES = "
            f"{MAX_OEIS_BODY_BYTES} bytes")
    try:
        return body.decode(charset, errors="replace")
    except LookupError:  # a charset name Python does not know
        return body.decode("utf-8", errors="replace")


def _parse_search_text(text: str) -> tuple[str, ...]:
    ids = []
    seen = set()
    has_marker = False
    for line in text.splitlines():
        if line.startswith("%"):
            has_marker = True
            parts = line.split()
            if len(parts) >= 2 and _ID_PATTERN.fullmatch(parts[1]):
                if parts[1] not in seen:
                    seen.add(parts[1])
                    ids.append(parts[1])
        elif "No results" in line or line.startswith("# "):
            has_marker = True
    if not has_marker:
        raise OEISFormatError("response is not in the expected text format")
    return tuple(ids)


def oeis_lookup(
    prefix: "Sequence[int]",
    base_url: str | None = None,
    timeout: float | None = None,
    fetch: "Callable[[str, float], str] | None" = None,
) -> LookupResult:
    """Search the OEIS for sequences starting with ``prefix``.

    Read-only; any ``OSError`` from ``fetch`` (network trouble, an HTTP
    error status, a base URL that is not http or https) yields
    ``status="skipped"`` rather than an exception so offline runs keep
    working.  A 200 response that is not in the endpoint's text format
    raises :class:`OEISFormatError`.  A ``base_url`` or ``timeout`` not
    given comes from :func:`permprob.sequences.oeis_settings`: the
    ``PERMPROB_OEIS_URL`` and ``PERMPROB_OEIS_TIMEOUT`` variables, else
    https://oeis.org and 10 seconds.  The timeout is checked there before
    anything is fetched.
    """
    prefix = list(prefix)
    if len(prefix) < 4:
        raise ValueError(f"prefix must have at least 4 terms, got {len(prefix)}")
    base, timeout = oeis_settings(base_url, timeout)
    query = ",".join(str(t) for t in prefix)
    url = f"{base.rstrip('/')}/search?q={query}&fmt=text"
    fetch = fetch or _http_fetch
    try:
        body = fetch(url, timeout)
    except OSError as exc:
        return LookupResult(status="skipped", ids=(), note=f"fetch failed: {exc}")
    return LookupResult(status="ok", ids=_parse_search_text(body))


def oeis_report(base_url: str | None = None, timeout: float | None = None) -> None:
    """Print the lines of the ``--oeis`` report, each as soon as its lookup is done.

    One line for each slice of :data:`permprob.sequences.REFERENCES`, saying
    whether the OEIS lists its id among the sequences that start with its
    first 8 terms, and one that names the candidates for the V_n(4) column,
    which has no reference id.  Each line ends with the UTC time of the
    report.
    """
    from datetime import datetime, timezone

    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for check in builtin_checks():
        line = _lookup_line(check.expected[:8], base_url, timeout, check.oeis_id)
        print(f"OEIS  {check.oeis_id} [{check.slice_name}] {line} at {stamp}")
    column = [v_closed_form(n, 4) for n in range(4, 9)]
    print(f"OEIS  V_n(4) column {_lookup_line(column, base_url, timeout, None)} at {stamp}")


def _lookup_line(prefix: list[int], base_url: str | None, timeout: float | None,
                 expected_id: str | None) -> str:
    try:
        result = oeis_lookup(prefix, base_url=base_url, timeout=timeout)
    except OEISFormatError as exc:
        return f"error: {exc}"
    if result.status == "skipped":
        return f"lookup skipped ({result.note})"
    if expected_id is None:
        if result.ids:
            return f"candidates: {', '.join(result.ids[:5])}"
        return "no listed sequence matches"
    if expected_id in result.ids:
        return "listed"
    return f"not among {len(result.ids)} candidates"
