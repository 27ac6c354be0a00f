"""Cross-checks of generated table slices against known integer sequences.

The offline checks compare slices of the generated triangles (diagonals and
columns) against the reference terms vendored in :data:`REFERENCES`.
An optional read-only OEIS client can look the same prefixes up remotely; it
degrades to a "skipped" result whenever the network is unavailable.
"""

from __future__ import annotations

import math
import os
import re
from typing import Callable, Iterator, Sequence

from .guards import Record
from .termdist import v_closed_form, w_closed_form

DEFAULT_OEIS_URL = "https://oeis.org"
DEFAULT_OEIS_TIMEOUT = 10.0
OEIS_URL_ENV = "PERMPROB_OEIS_URL"
OEIS_TIMEOUT_ENV = "PERMPROB_OEIS_TIMEOUT"
# Longest lookup response, in bytes, that ``_http_fetch`` reads; a page of
# OEIS text-format results is a few tens of KiB.
MAX_OEIS_BODY_BYTES = 1024 * 1024

_ID_PATTERN = re.compile(r"A\d{6}")

# Reference terms for the offline checks: one row per table slice, holding
# (OEIS id, slice name, first n, self_ref_from, terms).  The slice name says
# what a row checks: ``W_n(c)`` is ``w_closed_form(n, c)`` and ``V_n(c)`` is
# ``v_closed_form(n, c)``, where c is a fixed column or ``n`` for the
# diagonal.  ``first_n`` is the table index n of the first term; the terms
# are listed for consecutive n.
#
# Provenance
#   A000166, A000217, A000255: standard published values (derangement
#     numbers, triangular numbers, and the shifted-derangement sequence
#     whose k-th term equals derangement(k + 2) / (k + 1)).
#   A007290, A060008, A060836, A045943: leading terms checked against the
#     vendored reference triangles; terms at or past self_ref_from were
#     generated by this package's own closed forms and the corresponding
#     checks are flagged self-referential in reports.
#
# Alignment notes (offset rules)
#   A000166: the published list has a leading 1 at its index 0 that precedes
#     the W_n(n) window (n >= 1) and is excluded here.
#   A000255: published index k corresponds to table index n = k + 1, so no
#     published term is dropped; the window starts at the list's first term.
#   A000217: the published leading 0 (index 0) precedes the n >= 2 window.
REFERENCES: tuple[tuple[str, str, int, int | None, tuple[int, ...]], ...] = (
    # derangement numbers
    ("A000166", "W_n(n)", 1, None,
     (0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570, 176214841)),
    # triangular numbers
    ("A000217", "W_n(2)", 2, None, (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66)),
    # 2*C(n,3)
    ("A007290", "W_n(3)", 3, 7, (2, 8, 20, 40, 70, 112, 168, 240, 330, 440)),
    # 9*C(n,4)
    ("A060008", "W_n(4)", 4, 7, (9, 45, 135, 315, 630, 1134, 1890, 2970, 4455)),
    # 44*C(n,5)
    ("A060836", "W_n(5)", 5, 7, (44, 264, 924, 2464, 5544, 11088, 20328, 34848)),
    # shifted derangements D(n+1)/n
    ("A000255", "V_n(n)", 1, None,
     (1, 1, 3, 11, 53, 309, 2119, 16687, 148329, 1468457, 16019531, 190899411)),
    # triangular matchstick numbers
    ("A045943", "V_n(3)", 3, 9, (3, 9, 18, 30, 45, 63, 84, 108, 135, 165)),
)


class OEISFormatError(ValueError):
    """The lookup endpoint returned a body that is not in its text format."""


class SequenceCheck(Record):
    """Outcome of comparing a generated slice against its vendored terms."""

    __slots__ = ("oeis_id", "slice_name", "first_n", "expected", "generated",
                 "self_ref_from")

    def __init__(self, oeis_id: str, slice_name: str, first_n: int,
                 expected: tuple[int, ...], generated: tuple[int, ...],
                 self_ref_from: int | None) -> None:
        self.oeis_id = oeis_id
        self.slice_name = slice_name
        self.first_n = first_n
        self.expected = expected
        self.generated = generated
        self.self_ref_from = self_ref_from

    @property
    def passed(self) -> bool:
        return self.generated == self.expected

    @property
    def window(self) -> str:
        return f"n={self.first_n}..{self.first_n + len(self.expected) - 1}"


def builtin_checks() -> list[SequenceCheck]:
    """Compare every slice in :data:`REFERENCES` against its vendored terms, offline."""
    checks = []
    for oeis_id, slice_name, first_n, self_ref_from, terms in REFERENCES:
        closed_form = {"W": w_closed_form, "V": v_closed_form}[slice_name[0]]
        column = slice_name[4:-1]
        generated = tuple(
            closed_form(n, n if column == "n" else int(column))
            for n in range(first_n, first_n + len(terms))
        )
        checks.append(SequenceCheck(oeis_id, slice_name, first_n, terms, generated,
                                    self_ref_from))
    return checks


def oeis_timeout(raw: str | float, source: str) -> float:
    """Seconds to wait for a lookup, parsed from ``raw`` and checked.

    ``raw`` is a number or its text, and ``source`` names where it came from
    (a config key, an environment variable or an argument).  Anything but a
    positive, finite number of seconds raises ``ValueError`` naming ``source``.
    """
    try:
        seconds = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad config value for {source}: {exc}") from exc
    if not 0.0 < seconds < math.inf:
        raise ValueError(f"{source} must be a positive number of seconds, got {seconds}")
    return seconds


def oeis_settings(config: dict[str, str]) -> tuple[str | None, float | None]:
    """The lookup URL and timeout that a ``permprob.conf`` mapping gives.

    The URL is the ``oeis_url`` key, or None.  The timeout is the
    ``oeis_timeout`` key, or else ``PERMPROB_OEIS_TIMEOUT``, or None; either
    one is checked by :func:`oeis_timeout`, which raises ``ValueError``.
    """
    source = "oeis_timeout"
    raw = config.get(source)
    if not raw:
        source = OEIS_TIMEOUT_ENV
        raw = os.environ.get(source)
    return config.get("oeis_url"), oeis_timeout(raw, source) if raw else None


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
    imported here, not at module level, because only the optional remote
    lookup needs it.
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
        # URLError, HTTPError and timeouts already are OSErrors.
        raise OSError(f"fetching {url!r} failed: {exc}") from exc
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
    prefix: Sequence[int],
    base_url: str | None = None,
    timeout: float | None = None,
    fetch: Callable[[str, float], str] | None = None,
) -> LookupResult:
    """Search the OEIS for sequences starting with ``prefix``.

    Read-only; any ``OSError`` from ``fetch`` (network trouble, an HTTP
    error status, a base URL that is not http or https) yields
    ``status="skipped"`` rather than an exception so offline runs keep
    working.  A 200 response that is not in the endpoint's text format
    raises :class:`OEISFormatError`.  ``timeout`` defaults to
    ``PERMPROB_OEIS_TIMEOUT``, else 10 seconds; either one is checked by
    :func:`oeis_timeout` before anything is fetched.
    """
    prefix = list(prefix)
    if len(prefix) < 4:
        raise ValueError(f"prefix must have at least 4 terms, got {len(prefix)}")
    base = base_url or os.environ.get(OEIS_URL_ENV) or DEFAULT_OEIS_URL
    if timeout is not None:
        timeout = oeis_timeout(timeout, "timeout")
    elif os.environ.get(OEIS_TIMEOUT_ENV):
        timeout = oeis_timeout(os.environ[OEIS_TIMEOUT_ENV], OEIS_TIMEOUT_ENV)
    else:
        timeout = DEFAULT_OEIS_TIMEOUT
    query = ",".join(str(t) for t in prefix)
    url = f"{base.rstrip('/')}/search?q={query}&fmt=text"
    fetch = fetch or _http_fetch
    try:
        body = fetch(url, timeout)
    except OSError as exc:
        return LookupResult(status="skipped", ids=(), note=f"fetch failed: {exc}")
    return LookupResult(status="ok", ids=_parse_search_text(body))


def oeis_report(base_url: str | None = None,
                timeout: float | None = None) -> Iterator[str]:
    """The lines of the ``--oeis`` report, each yielded after its lookup.

    One line for each slice of :data:`REFERENCES`, saying whether the OEIS
    lists its id among the sequences that start with its first 8 terms, and
    one that names the candidates for the V_n(4) column, which has no
    reference id.  Each line ends with the UTC time of the report.
    """
    from datetime import datetime, timezone

    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for check in builtin_checks():
        line = _lookup_line(check.expected[:8], base_url, timeout, check.oeis_id)
        yield f"OEIS  {check.oeis_id} [{check.slice_name}] {line} at {stamp}"
    column = [v_closed_form(n, 4) for n in range(4, 9)]
    yield f"OEIS  V_n(4) column {_lookup_line(column, base_url, timeout, None)} at {stamp}"


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
