import tetriqp


def test_star_import_and_all_names_resolve():
    # a stale name in __all__ breaks only `import *`, which no other test does
    namespace = {}
    exec("from tetriqp import *", namespace)
    for name in tetriqp.__all__:
        assert name in namespace
        assert getattr(tetriqp, name) is namespace[name]
