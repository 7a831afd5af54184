"""The package resolves its public names on first access, from one table."""

import importlib

import pytest

import omnilie


def test_every_public_name_is_the_object_of_its_home_module():
    assert len(omnilie.__all__) == len(set(omnilie.__all__)) == 76
    for name in omnilie.__all__:
        home = importlib.import_module(f"omnilie.{omnilie._HOME[name]}")
        value = getattr(omnilie, name)
        assert value is getattr(home, name), name
        # defined there, not imported from another layer
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from omnilie import *", namespace)
    assert set(omnilie.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        omnilie.no_such_name
    assert not hasattr(omnilie, "no_such_name")
    with pytest.raises(ImportError):
        from omnilie import no_such_name  # noqa: F401


def test_the_registry_keeps_its_names():
    from omnilie import sampling
    from omnilie.suites import SUITES, Family, Row, SuiteContext, derive_seed

    assert Family is sampling.Family and derive_seed is sampling.derive_seed
    assert Row("label", lambda: None).rows(0, 1) == [("label", True, None)]
    assert SuiteContext(n=2, samples=1, seed=0).forms == {}
    assert len(SUITES) == 14
