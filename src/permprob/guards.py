"""Size guards shared by the expensive kernels and the input parsers, and the
base of the value records.

This is the package's leaf module: it imports nothing, so every other
module can use it without loading more.
"""


class GuardError(ValueError):
    """A requested computation exceeds a size guard and was not forced."""


def check_guard(value: int, limit: int, what: str, force: bool = False) -> None:
    """Raise :class:`GuardError` when ``value`` exceeds ``limit``.

    ``force=True`` opts in to long runtimes and skips the check.  The
    message names ``what`` and the limit only: the command line adds how to
    lift it, or, under a subcommand without ``--force``, that nothing does,
    as ``validate`` does for an artifact it re-verifies.
    """
    if value > limit and not force:
        raise GuardError(f"{what} {value} exceeds its ceiling of {limit}")


# Longest integer text, in characters, that ``parse_int`` reads: a signed
# 64-bit value.  ``int()`` of longer text costs time quadratic in its length,
# and past 4300 digits CPython refuses it with a message about its own limit.
MAX_INT_CHARS = 20


def parse_int(text: str) -> int:
    """``int(text)`` for text from outside: an artifact header.

    Text longer than ``MAX_INT_CHARS`` raises ``ValueError`` before
    ``int()`` sees it; other text is parsed, or refused, as ``int()`` does.
    """
    if len(text) > MAX_INT_CHARS:
        raise ValueError(
            f"an integer may have at most {MAX_INT_CHARS} characters, got {len(text)}")
    return int(text)


class Record:
    """Base of the package's value records: field-wise ``==``, hash and repr.

    A subclass names its fields in ``__slots__`` and sets each one in its
    ``__init__``.  Every record is frozen: a field is set once, and
    assigning to it again, or deleting it, raises ``AttributeError``.  A
    field may still hold a list, which the record does not copy or freeze.
    The repr names every field.  Unlike a generated record class, it needs
    no import, so a command that defines a dozen record classes pays only
    for the class statements.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to {name!r} of frozen {type(self).__name__}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of frozen {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"
