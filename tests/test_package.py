import ast
import importlib
import pathlib
import textwrap
from collections import Counter

import pytest

import permprob
from permprob import (
    ExactCounts,
    Family,
    LookupResult,
    TermDistribution,
    builtin_checks,
    e_table,
)
from permprob.cli import _SUBCOMMANDS
from permprob.output import CsvDoc, make_dist_doc
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


# Names that the root does not export, by the module that defines them: the
# oracle routes with their walk limit, and two command limits.
_NOT_AT_ROOT = {
    "BRUTEFORCE_MAX_N": "validation",
    "e_tables_bruteforce": "validation",
    "partitions": "validation",
    "v_via_w": "validation",
    "variable_positions": "validation",
    "w_recurrence_table": "validation",
    "w_row_via_cycles": "validation",
    "EXACT_MAX_N": "probability",
    "MAX_GRID": "probability",
}


class TestRootApi:
    def test_root_exports_the_production_api(self):
        assert sorted(permprob.__all__) == [
            "ExactCounts", "Family", "GuardError", "LookupResult", "OEISFormatError",
            "SequenceCheck", "TermDistribution", "bernstein_string", "builtin_checks",
            "compare_grid", "derangement", "e_table", "exact_counts", "oeis_lookup",
            "p_eval", "q_eval", "v_closed_form", "w_closed_form",
        ]

    @pytest.mark.parametrize("name", sorted(_NOT_AT_ROOT))
    def test_name_is_not_at_the_root(self, name):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(permprob, name)
        with pytest.raises(ImportError):
            exec(f"from permprob import {name}", {})
        assert name not in dir(permprob)

    @pytest.mark.parametrize("name", sorted(_NOT_AT_ROOT))
    def test_name_stays_in_its_module(self, name):
        module = importlib.import_module(f"permprob.{_NOT_AT_ROOT[name]}")
        assert name in vars(module)

    def test_no_oracle_usage_or_limit_at_the_root(self):
        # each name is its submodule's object (TestLazyRoot), and every size
        # limit is an int
        for name in permprob.__all__:
            assert permprob._SUBMODULE[name] not in {"validation", "usage"}, name
            assert not isinstance(getattr(permprob, name), int), name


def _frozen_records():
    return [
        ExactCounts(Family.C, 2, (1, 2, 0)),
        e_table(Family.B, 3),
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
        a = TermDistribution(Family.C, 3, (1, 0, 3, 2))
        b = e_table(Family.C, 3)
        assert a is not b and a == b and hash(a) == hash(b)
        c = ExactCounts(Family.C, 2, (1, 2, 0))
        assert len({a, b, c, ExactCounts(Family.C, 2, (1, 2, 0))}) == 2
        assert c != ExactCounts(Family.C, 2, (1, 1, 0))
        assert TermDistribution(Family.B, 2, (1, 0, 1)) != TermDistribution(
            Family.C, 2, (1, 0, 1))
        assert e_table(Family.C, 4) == e_table(Family.C, 4)
        assert a != (Family.C, 3, (1, 0, 3, 2))

    def test_built_doc_is_frozen_and_unhashable(self):
        doc = make_dist_doc(Family.C, 2)
        with pytest.raises(AttributeError):
            doc.rows = []
        with pytest.raises(AttributeError):
            doc.meta = {}
        with pytest.raises(TypeError):
            hash(doc)

    def test_repr_names_fields(self):
        assert repr(ExactCounts(Family.C, 2, (1, 2, 0))) == (
            "ExactCounts(family=<Family.C: 'C'>, n=2, variable_count=2, counts=(1, 2, 0))")
        assert repr(LookupResult("ok", ())) == "LookupResult(status='ok', ids=(), note='')"
        assert repr(CheckResult("x", False)) == "CheckResult(name='x', passed=False, detail='')"
        assert repr(CsvDoc("dist", {"n": 1}, ["n"], [])) == (
            "CsvDoc(kind='dist', meta={'n': 1}, header=['n'], rows=[], polynomial=None)")


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
        which count for nothing.  The oracles that only tests call live in
        ``tests/oracles.py``."""
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
        assert dead == []


class TestReadme:
    def test_library_tour_runs_and_shows_its_values(self):
        """The tour's Python block runs, and each bare expression whose
        comment is a Python literal evaluates to that literal."""
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        tour = readme.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
        source = tour.split("```python\n", 1)[1].split("```", 1)[0]
        lines = source.splitlines()
        namespace = {}
        checked = 0
        for node in ast.parse(source).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
            try:
                shown = ast.literal_eval(comment.removeprefix("#").strip())
            except (ValueError, SyntaxError):
                continue
            assert value == shown, lines[node.lineno - 1]
            checked += 1
        assert checked >= 2
