import types

import lovelab


def test_each_public_name_is_listed_by_exactly_one_module():
    # every module's __all__ is the one list of its public names, and the
    # package republishes exactly those
    modules = [m for m in vars(lovelab).values() if isinstance(m, types.ModuleType)]
    public = [name for name in dir(lovelab) if not name.startswith("_")
              and not isinstance(getattr(lovelab, name), types.ModuleType)]
    for name in public:
        owners = [m.__name__ for m in modules if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, (name, owners)
    for m in modules:
        for name in getattr(m, "__all__", ()):
            assert getattr(lovelab, name, None) is getattr(m, name), (m.__name__, name)
