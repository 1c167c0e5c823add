"""The package namespace: importing kmflag loads no submodule, and each
public name resolves on first access to the object its submodule defines."""

import json
import os
import subprocess
import sys

import pytest

import kmflag

SUBMODULES = ("bmp", "category_o", "errors", "graded_algebra", "kl", "moment_graph",
              "root_datum", "weyl")


def fresh(code):
    """What a fresh interpreter running code prints, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kmflag.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_public_names_are_their_submodules_objects():
    assert len(kmflag.__all__) == len(set(kmflag.__all__)) == 47
    assert not set(kmflag.__all__) & set(SUBMODULES)
    for name in kmflag.__all__:
        value = getattr(kmflag, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("kmflag."), name
        assert getattr(home, name) is value, name
    from kmflag import compute_bmp, validate_cartan

    assert compute_bmp is kmflag.bmp.compute_bmp
    assert validate_cartan is kmflag.root_datum.validate_cartan


def test_dir_lists_every_public_name_and_submodule():
    assert set(kmflag.__all__) | set(SUBMODULES) <= set(dir(kmflag))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kmflag.no_such_name


def test_version():
    assert kmflag.__version__ == "0.1.0"


def test_import_loads_no_submodule():
    loaded, reachable = fresh(
        "import json, sys, kmflag; "
        "loaded = sorted(m for m in sys.modules if m.startswith('kmflag.')); "
        f"reachable = all(getattr(kmflag, m) is sys.modules['kmflag.' + m] for m in {SUBMODULES}); "
        "print(json.dumps([loaded, reachable]))"
    )
    assert loaded == []
    assert reachable


def test_star_import_binds_exactly_all():
    bound = fresh(
        "before = set(globals()); "
        "from kmflag import *; "
        "bound = sorted(set(globals()) - before - {'before'}); "
        "import json; print(json.dumps(bound))"
    )
    assert bound == sorted(kmflag.__all__)
