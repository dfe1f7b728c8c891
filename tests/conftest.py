import functools
import json
from pathlib import Path

import pytest

from ncbench.graphs import Dag
from ncbench.pipeline import run_study
from ncbench.sem import draw_sem, simulate

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "ncbench"
DATA_DIR = str(PACKAGE_DIR / "data")


def load_schema(name):
    """Load a shipped JSON schema. The program never reads the schemas; the
    tests check its inputs and outputs against them."""
    return json.loads((PACKAGE_DIR / "schemas" / name).read_text())


@functools.cache
def shared_study(config):
    """run_study(config), run once per session: criterion 8 and the golden
    study outputs read the same results."""
    return run_study(config)


def simulate_seeded(g, n, seed, **ranges):
    """n rows on the streams of an RngSeed: the model from child 0, the noise from child 1."""
    return simulate(draw_sem(g, seed.child(0), **ranges), n, seed.child(1))


@pytest.fixture
def five_node_truth():
    # 5-node dense example: 8 edges, no v-structures.
    return Dag(
        5,
        frozenset({(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4), (4, 2)}),
    )


@pytest.fixture
def five_node_estimate():
    # 7-edge random draw matching the median performance of guessing.
    return Dag(
        5,
        frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (2, 1), (3, 1), (4, 2)}),
    )
