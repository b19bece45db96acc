import pkgutil

import pytest

import hforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(hforge.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_names_only_existing_exports(module):
    """A stale ``__all__`` entry makes ``from hforge.<module> import *`` raise."""
    exec(f"from hforge.{module} import *", {})
