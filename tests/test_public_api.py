import inspect

import qlab


def test_public_names_match_all():
    bound = [name for name, value in vars(qlab).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(qlab.__all__) == sorted(bound)
