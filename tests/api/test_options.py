"""Tests for TransformOptions normalization and the deprecation shim."""

import warnings

import pytest

from repro.api import Engine, TransformOptions, _reset_warned_sites
from repro.core import RewriteOptions, xml_transform
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

from ..core.paper_example import DEPT_DTD, DEPT_DOC_1, EXAMPLE1_STYLESHEET


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    return db, storage


class TestCoerce:
    def test_none_is_defaults(self):
        opts = TransformOptions.coerce(None)
        assert opts == TransformOptions()
        assert opts.rewrite is True
        assert opts.deadline is None

    def test_instance_passes_through(self):
        opts = TransformOptions(rewrite=False)
        assert TransformOptions.coerce(opts) is opts

    def test_dict_becomes_kwargs(self):
        opts = TransformOptions.coerce({"rewrite": False, "chunk_chars": 64})
        assert opts.rewrite is False
        assert opts.chunk_chars == 64

    def test_rewrite_options_wrapped_with_warning(self):
        _reset_warned_sites()
        legacy = RewriteOptions(inline_templates=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opts = TransformOptions.coerce(legacy, entry_point="test")
        assert opts.rewrite_options is legacy
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            TransformOptions.coerce(object())

    def test_frozen(self):
        with pytest.raises(Exception):
            TransformOptions().rewrite = False

    def test_replace_returns_copy(self):
        opts = TransformOptions()
        changed = opts.replace(rewrite=False, deadline=1.5)
        assert changed.rewrite is False
        assert changed.deadline == 1.5
        assert opts.rewrite is True


class TestRewriteOptionResolution:
    def test_defaults_resolve_to_none(self):
        assert TransformOptions().resolved_rewrite_options() is None

    def test_inline_flag_builds_rewrite_options(self):
        resolved = TransformOptions(inline=False).resolved_rewrite_options()
        assert isinstance(resolved, RewriteOptions)
        assert resolved.inline_templates is False

    def test_explicit_rewrite_options_win(self):
        explicit = RewriteOptions(prune_templates=False)
        opts = TransformOptions(inline=True, rewrite_options=explicit)
        assert opts.resolved_rewrite_options() is explicit


class TestCacheKey:
    def test_runtime_fields_do_not_fragment(self):
        base = TransformOptions()
        assert base.cache_key() == TransformOptions(
            deadline=2.0, chunk_chars=128, profile_plan=False
        ).cache_key()

    def test_compile_fields_do_fragment(self):
        base = TransformOptions()
        assert base.cache_key() != TransformOptions(rewrite=False).cache_key()
        assert base.cache_key() != TransformOptions(inline=False).cache_key()

    def test_stable_across_instances(self):
        a = TransformOptions(rewrite_options=RewriteOptions())
        b = TransformOptions(rewrite_options=RewriteOptions())
        assert a.cache_key() == b.cache_key()


class TestDeprecationShim:
    def test_legacy_rewrite_kwarg_warns_once_per_site(self):
        _reset_warned_sites()
        db, storage = make_storage()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                xml_transform(db, storage, EXAMPLE1_STYLESHEET, rewrite=False)
        legacy = [w for w in caught
                  if issubclass(w.category, DeprecationWarning)]
        assert len(legacy) == 1
        assert "rewrite=" in str(legacy[0].message)
        assert "xml_transform" in str(legacy[0].message)

    def test_legacy_kwarg_still_works(self):
        db, storage = make_storage()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            legacy = xml_transform(db, storage, EXAMPLE1_STYLESHEET,
                                   rewrite=False)
        modern = Engine(db).transform(
            storage, EXAMPLE1_STYLESHEET,
            options=TransformOptions(rewrite=False),
        )
        assert legacy.strategy == modern.strategy == "functional"
        assert legacy.serialized_rows() == modern.serialized_rows()

    def test_options_path_does_not_warn(self):
        _reset_warned_sites()
        db, storage = make_storage()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            xml_transform(db, storage, EXAMPLE1_STYLESHEET,
                          options=TransformOptions(rewrite=False))
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]

    def test_warning_blames_the_caller(self):
        _reset_warned_sites()
        db, storage = make_storage()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            xml_transform(db, storage, EXAMPLE1_STYLESHEET, rewrite=False)
        legacy = [w for w in caught
                  if issubclass(w.category, DeprecationWarning)]
        assert legacy[0].filename == __file__
