"""Package-level behaviour of ``import repro``."""

import gc

import repro


def test_import_freezes_the_module_heap():
    """The modules ``import repro`` builds sit in the collector's permanent
    generation, so a full collection does not walk them."""
    assert gc.get_freeze_count() > 10_000
    module_dict = vars(repro)
    assert all(obj is not module_dict for obj in gc.get_objects())
