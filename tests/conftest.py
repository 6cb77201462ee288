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
def calls_of(monkeypatch):
    """calls_of(name, *modules) wraps the function `name`, which each module binds
    alike, for the test, and returns the (args, kwargs) of its every call, in order."""

    def count(name, *modules):
        calls = []
        func = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return func(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    return count


@pytest.fixture()
def newton_calls(calls_of):
    """The (args, kwargs) of every call of solver._newton_step during the test, in order."""
    return calls_of("_newton_step", solver)
