import numpy as np
import pytest

from tensorsim import cases
from tensorsim import power_model as pm
from tensorsim import taylor


@pytest.fixture(scope="session")
def wscc_spec():
    return cases.wscc9_spec()


@pytest.fixture(scope="session")
def wscc_sys(wscc_spec):
    return pm.build_system(wscc_spec, 1.0)


@pytest.fixture(scope="session")
def wscc_model_set(wscc_sys):
    """Release model set for the fixture: ranks and ALS options here are
    the calibrated acceptance configuration."""
    return taylor.build_model_set(
        wscc_sys,
        levels=(0.8, 1.0, 1.2),
        ranks=(30, 36),
        seed=0,
        cp_options=dict(max_iters=400, restarts=2, fit_tolerance=1e-9),
    )


@pytest.fixture(scope="session")
def wscc_terms(wscc_sys):
    """The raw terms ``(a1, t2, t3)``, dense tensors at 27 states."""
    return taylor.taylor_terms(wscc_sys)


@pytest.fixture(scope="session")
def full_rank_model(wscc_sys, wscc_terms):
    return taylor.compress_taylor_terms(wscc_sys, wscc_terms, "full")


@pytest.fixture(scope="session")
def ring5_sys():
    spec = pm.parse_system(cases.synthetic_ring(5, seed=3), source="ring5")
    return pm.build_system(spec, 1.0)
