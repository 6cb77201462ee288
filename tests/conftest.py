import numpy as np
import pytest

from herisson import builders, solver


@pytest.fixture(scope="session")
def cube():
    return builders.cube()


@pytest.fixture(scope="session")
def box123():
    return builders.box(1.0, 2.0, 3.0)


@pytest.fixture(scope="session")
def tetra():
    return builders.regular_tetrahedron(1.0)


@pytest.fixture(scope="session")
def bowtie():
    return builders.reflected_truncated_tetrahedron(0.5)


@pytest.fixture(scope="session")
def waisted():
    return builders.waisted_bitetrahedron(1)


@pytest.fixture(scope="session")
def tiling():
    return builders.space_filling_prism()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture()
def newton_calls(monkeypatch):
    """The arguments of every call of solver._newton_step during the test, in order."""
    calls = []
    step = solver._newton_step

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "_newton_step", counted)
    return calls
