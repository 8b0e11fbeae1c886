import sys

import pytest

from conicnets import projgeom
from conicnets.action import generators
from conicnets.gf import field
from conicnets.projgeom import normalize_point
from oracles import singer_generators


@pytest.fixture(scope="session")
def gf2():
    return field(2)


@pytest.fixture(scope="session")
def gf4():
    return field(4)


@pytest.fixture(scope="session")
def gf8():
    return field(8)


@pytest.fixture(scope="session")
def gf16():
    return field(16)


@pytest.fixture
def rref_calls(monkeypatch):
    """A list that gains one entry per projgeom.rref call made through any
    conicnets module, for tests that count eliminations."""
    calls = []
    real = projgeom.rref

    def counting(*args):
        calls.append(None)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("conicnets") and getattr(module, "rref", None) is real:
            monkeypatch.setattr(module, "rref", counting)
    return calls


@pytest.fixture(scope="session")
def sample_matrices():
    """Some projectivities, for tests that need group elements: the
    transvections I + E01 and I + E10, a primitive diagonal and a coordinate
    cycle, then the generating pair and the oracle's Singer cycle, each once
    and none the identity."""

    def samples(gf):
        out = []
        for a in (
            (1, 1, 0, 0, 1, 0, 0, 0, 1),
            (1, 0, 0, 1, 1, 0, 0, 0, 1),
            (gf.primitive_element(), 0, 0, 0, 1, 0, 0, 0, 1),
            (0, 0, 1, 1, 0, 0, 0, 1, 0),
            *generators(gf),
            singer_generators(gf)[1],
        ):
            a = normalize_point(gf, a)
            if a != (1, 0, 0, 0, 1, 0, 0, 0, 1) and a not in out:
                out.append(a)
        return out

    return samples
