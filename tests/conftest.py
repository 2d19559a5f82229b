"""Shared fixtures for the suite."""

import pytest

from concavex.eulerdata import chern_ratio, reduced_block


@pytest.fixture(autouse=True)
def fresh_block_caches():
    """Start every test with empty block caches.

    Blocks are shared process-wide, so a block another test built (and
    perhaps read through its Fraction view) would otherwise leak into
    tests that count block steps or check that no view was built.
    """
    reduced_block.cache_clear()
    chern_ratio.cache_clear()
