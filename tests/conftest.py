from pathlib import Path

import pytest

from fansheaf.fans import load_fan

TESTS = Path(__file__).resolve().parent
DATA = TESTS.parent / "data" / "fans"
# fans outside the corpus
EXTRA_FANS = {
    "p4": TESTS.parent / "perfbench" / "inputs" / "p4.fan",
    "cube4": TESTS / "cube4.fan",
    "cube4star": TESTS / "cube4star.fan",
    "cubestar": TESTS.parent / "perfbench" / "inputs" / "cubestar.fan",
    "cubeedge": TESTS / "cubeedge.fan",
    "p3edge": TESTS / "p3edge.fan",
    "orth4": TESTS / "orth4.fan",
    "orth4e": TESTS / "orth4e.fan",
}
# subdivisions that also subdivide a facet of a target cone, so a
# section's image in that facet's tiles meets the facet's interior walls
FACET_SUBDIVISIONS = [
    ("cubeedge", "cubefan"),
    ("p3edge", "p3"),
    ("orth4e", "orth4"),
]


def fan_path(name):
    return DATA / f"{name}.fan"


def fan_file(name):
    """The file of a corpus fan or of a fan outside the corpus."""
    return EXTRA_FANS.get(name) or fan_path(name)


# Invalid fans whose defect lies between two maximal cones.  The ray
# (1, 1), listed as its own cone, lies inside the listed quadrant.
RAY_IN_QUADRANT = (
    "dim 2\nray 0: 1 0\nray 1: 1 1\nray 2: 0 1\ncone: 0 2\ncone: 1\n"
)
# A diagonal of the cone over a square is a face of the simplicial
# 3-cone listed second, but not of the square cone.
SQUARE_DIAGONAL = (
    "dim 3\nray 0: 1 1 1\nray 1: -1 1 1\nray 2: -1 -1 1\nray 3: 1 -1 1\n"
    "ray 4: 1 -1 0\ncone: 0 1 2 3\ncone: 0 2 4\n"
)


@pytest.fixture(scope="session")
def corpus():
    """All corpus fans by short name, parsed once."""
    names = [
        "p1",
        "p2",
        "p1xp1",
        "p3",
        "p2blow",
        "cubefan",
        "quadrant",
        "conesquare",
        "conecube",
        "blowquad",
        "starsq",
        "twostep",
    ]
    return {name: load_fan(fan_path(name)) for name in names}
