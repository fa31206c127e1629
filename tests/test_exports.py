"""The package's export list names only what the package provides."""

import fivesplit


def test_every_export_resolves():
    for name in fivesplit.__all__:
        assert getattr(fivesplit, name, None) is not None, name


def test_exports_are_unique():
    assert len(fivesplit.__all__) == len(set(fivesplit.__all__))
