"""Cross-checks of generated table slices against known integer sequences.

The offline checks compare slices of the generated triangles (diagonals and
columns) against reference terms vendored in ``data/oeis_reference.txt``.
An optional read-only OEIS client can look the same prefixes up remotely; it
degrades to a "skipped" result whenever the network is unavailable.
"""

from __future__ import annotations

import math
import os
import re
from importlib import resources
from typing import Callable, Sequence

from .guards import Record

DEFAULT_OEIS_URL = "https://oeis.org"
DEFAULT_OEIS_TIMEOUT = 10.0
OEIS_URL_ENV = "PERMPROB_OEIS_URL"
OEIS_TIMEOUT_ENV = "PERMPROB_OEIS_TIMEOUT"

_ID_PATTERN = re.compile(r"A\d{6}")


class OEISFormatError(ValueError):
    """The lookup endpoint returned a body that is not in its text format."""


class SequenceRef(Record):
    """One table slice and the sequence identifier it is checked against."""

    __slots__ = ("oeis_id", "description", "slice_name", "generator")
    _hidden = ("generator",)

    def __init__(self, oeis_id: str, description: str, slice_name: str,
                 generator: Callable[[int], int]) -> None:
        self.oeis_id = oeis_id
        self.description = description
        self.slice_name = slice_name
        self.generator = generator


class ReferenceEntry(Record):
    __slots__ = ("oeis_id", "slice_name", "first_n", "self_ref_from", "terms")

    def __init__(self, oeis_id: str, slice_name: str, first_n: int,
                 self_ref_from: int | None, terms: tuple[int, ...]) -> None:
        self.oeis_id = oeis_id
        self.slice_name = slice_name
        self.first_n = first_n
        self.self_ref_from = self_ref_from
        self.terms = terms


class SequenceCheck(Record):
    """Outcome of comparing a generated slice against its vendored terms."""

    __slots__ = ("ref", "first_n", "expected", "generated", "passed", "self_ref_from")

    def __init__(self, ref: SequenceRef, first_n: int, expected: tuple[int, ...],
                 generated: tuple[int, ...], passed: bool,
                 self_ref_from: int | None) -> None:
        self.ref = ref
        self.first_n = first_n
        self.expected = expected
        self.generated = generated
        self.passed = passed
        self.self_ref_from = self_ref_from

    @property
    def window(self) -> str:
        return f"n={self.first_n}..{self.first_n + len(self.expected) - 1}"


def _refs() -> tuple[SequenceRef, ...]:
    from .termdist import v_closed_form, w_closed_form

    return (
        SequenceRef("A000166", "derangement numbers", "W_n(n)",
                    lambda n: w_closed_form(n, n)),
        SequenceRef("A000217", "triangular numbers", "W_n(2)",
                    lambda n: w_closed_form(n, 2)),
        SequenceRef("A007290", "2*C(n,3)", "W_n(3)",
                    lambda n: w_closed_form(n, 3)),
        SequenceRef("A060008", "9*C(n,4)", "W_n(4)",
                    lambda n: w_closed_form(n, 4)),
        SequenceRef("A060836", "44*C(n,5)", "W_n(5)",
                    lambda n: w_closed_form(n, 5)),
        SequenceRef("A000255", "shifted derangements D(n+1)/n", "V_n(n)",
                    lambda n: v_closed_form(n, n)),
        SequenceRef("A045943", "triangular matchstick numbers", "V_n(3)",
                    lambda n: v_closed_form(n, 3)),
    )


REFS: tuple[SequenceRef, ...] = _refs()


def load_reference_terms() -> dict[str, ReferenceEntry]:
    """Parse the vendored reference-data file."""
    text = (
        resources.files("permprob").joinpath("data/oeis_reference.txt").read_text()
    )
    entries: dict[str, ReferenceEntry] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = dict(item.split("=", 1) for item in line.split()[1:])
        oeis_id = line.split()[0]
        self_ref = fields["self_ref_from"]
        entries[oeis_id] = ReferenceEntry(
            oeis_id=oeis_id,
            slice_name=fields["slice"],
            first_n=int(fields["first_n"]),
            self_ref_from=None if self_ref == "none" else int(self_ref),
            terms=tuple(int(t) for t in fields["terms"].split(",")),
        )
    return entries


def builtin_checks() -> list[SequenceCheck]:
    """Compare every registered slice against its vendored terms, offline."""
    entries = load_reference_terms()
    checks = []
    for ref in REFS:
        entry = entries[ref.oeis_id]
        if entry.slice_name != ref.slice_name:
            raise RuntimeError(
                f"reference data for {ref.oeis_id} describes slice "
                f"{entry.slice_name!r}, expected {ref.slice_name!r}"
            )
        generated = tuple(
            ref.generator(n)
            for n in range(entry.first_n, entry.first_n + len(entry.terms))
        )
        checks.append(
            SequenceCheck(
                ref=ref,
                first_n=entry.first_n,
                expected=entry.terms,
                generated=generated,
                passed=generated == entry.terms,
                self_ref_from=entry.self_ref_from,
            )
        )
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
    cannot read local files.  The HTTP stack is imported here, not at module
    level, because only the optional remote lookup needs it.
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
            body = response.read()
    except (http.client.HTTPException, ValueError) as exc:
        # URLError, HTTPError and timeouts already are OSErrors.
        raise OSError(f"fetching {url!r} failed: {exc}") from exc
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
