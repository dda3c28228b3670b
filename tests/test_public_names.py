"""Every name `lexiforge.__all__` lists is one the package has.

A stale entry does not break `import lexiforge`, only
`from lexiforge import *`, so nothing else would notice it.
"""

import lexiforge


def test_every_public_name_is_an_attribute_of_the_package():
    assert [name for name in lexiforge.__all__ if not hasattr(lexiforge, name)] == []


def test_no_public_name_is_listed_twice():
    assert len(set(lexiforge.__all__)) == len(lexiforge.__all__)

