import ast
import importlib
import pathlib
import textwrap
from collections import Counter

import pytest

import permprob
from permprob import (
    BinaryMatrix,
    ExactCounts,
    Family,
    LookupResult,
    TermDistribution,
    builtin_checks,
    e_table,
)
from permprob.cli import _SUBCOMMANDS
from permprob.output import CsvDoc
from permprob.svgplot import Series
from permprob.validation import CheckResult

from test_cli import run_fresh


class TestLazyRoot:
    @pytest.mark.parametrize("name", permprob.__all__)
    def test_name_is_its_submodules_object(self, name):
        module = importlib.import_module(f"permprob.{permprob._SUBMODULE[name]}")
        value = getattr(permprob, name)
        assert value is vars(module)[name]
        if callable(value):
            assert value.__module__ == module.__name__

    def test_dir_lists_every_public_name(self):
        assert set(permprob.__all__) <= set(dir(permprob))
        assert "__version__" in dir(permprob)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            permprob.frobnicate
        with pytest.raises(ImportError):
            from permprob import frobnicate  # noqa: F401

    def test_bare_import_loads_no_submodule(self):
        proc = run_fresh(textwrap.dedent("""
            import sys
            import permprob
            print(sorted(m for m in sys.modules if m.startswith("permprob.")))
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_star_import_binds_every_public_name(self):
        proc = run_fresh(textwrap.dedent("""
            from permprob import *
            import permprob
            missing = [n for n in permprob.__all__ if n not in globals()]
            wrong = [n for n in permprob.__all__
                     if n in globals() and globals()[n] is not getattr(permprob, n)]
            print(len(permprob.__all__), missing, wrong)
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"{len(permprob.__all__)} [] []"]


def _frozen_records():
    return [
        BinaryMatrix.identity(2),
        ExactCounts(Family.C, 2, (1, 2, 0)),
        e_table(Family.B, 3),
        Series("Q (A)", ((0.0, 1.0),), "#000000"),
        builtin_checks()[0],
        LookupResult("ok", ("A000166",)),
        _SUBCOMMANDS["seq"],
        CheckResult("x", True, "detail"),
    ]


class TestRecords:
    @pytest.mark.parametrize("record", _frozen_records(),
                             ids=lambda r: type(r).__name__)
    def test_frozen(self, record):
        field = record.__slots__[0]
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is before
        assert hash(record) == hash(record)

    def test_equal_records_compare_and_hash_equal(self):
        a = BinaryMatrix.identity(3)
        b = BinaryMatrix(3, (1, 2, 4))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, BinaryMatrix.ones(3)}) == 2
        assert a != BinaryMatrix.ones(3)
        assert TermDistribution(Family.B, 2, (1, 0, 1)) != TermDistribution(
            Family.C, 2, (1, 0, 1))
        assert e_table(Family.C, 4) == e_table(Family.C, 4)
        assert a != (3, (1, 2, 4))

    def test_list_fields_fresh_per_instance(self):
        first, second = CsvDoc(), CsvDoc()
        assert first.rows is not second.rows
        assert first.comments is not second.comments
        assert first.header is not second.header
        first.rows.append(["1"])
        assert second == CsvDoc([], [], [])
        with pytest.raises(AttributeError):
            first.rows = []
        with pytest.raises(TypeError):
            hash(first)

    def test_repr_names_fields(self):
        assert repr(BinaryMatrix.identity(2)) == "BinaryMatrix(n=2, rows=(1, 2))"
        assert repr(LookupResult("ok", ())) == "LookupResult(status='ok', ids=(), note='')"
        assert repr(CheckResult("x", False)) == "CheckResult(name='x', passed=False, detail='')"
        assert repr(CsvDoc()) == "CsvDoc(comments=[], header=[], rows=[])"


# Public names that only the tests call; the oracles that only tests call
# live in ``tests/oracles.py``.  ``build_family_matrix`` and
# ``permanent_ryser`` are library functions that no command runs: the tests
# check ``leading_permanents`` and the enumeration oracle against them.
_TEST_ONLY = {"build_family_matrix", "permanent_ryser"}


def _referenced(node):
    """Names and attributes that ``node`` and its subtree read."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


class TestDeadSurface:
    def test_every_definition_is_used_in_the_package(self):
        """Each module-level function or class is referenced in ``src/``
        outside its own body; ``__init__._SOURCES`` lists names as strings,
        which count for nothing."""
        defs, uses = [], Counter()
        for path in pathlib.Path(permprob.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses += _referenced(tree)
            defs += [
                (node.name, _referenced(node)[node.name])
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ]
        dead = sorted(
            name for name, own in defs
            if uses[name] == own and not name.startswith("__")
        )
        assert dead == sorted(_TEST_ONLY)
