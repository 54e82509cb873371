import grasppr


def test_every_exported_name_resolves():
    assert [name for name in grasppr.__all__ if not hasattr(grasppr, name)] == []
    namespace: dict = {}
    exec("from grasppr import *", namespace)
    assert set(grasppr.__all__) <= set(namespace)
