import types

import meshsim


def test_all_lists_every_public_name():
    public = [name for name, value in vars(meshsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(meshsim.__all__) == sorted(public)
