"""Fixtures that more than one test module reads, built once per session."""

import pytest
from hypothesis import settings

from disklab.corpus import seeded_planar_graphs

# every @given test draws the same examples on every run, so the suite's
# verdict does not depend on a random seed
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SOUND_CORPUS_SEED = 20260814   # the acceptance suite's sound corpus (criterion 4)


@pytest.fixture(scope="session")
def sound_drawings():
    """Twenty seeded planar graphs (3..8 vertices) drawn on grids of size
    at most 3: the sound corpus before synthesis, which the acceptance
    suite synthesizes and the solver suite reads the graphs of."""
    return tuple(seeded_planar_graphs(
        SOUND_CORPUS_SEED, 20, min_vertices=3, max_vertices=8, max_grid=3))
