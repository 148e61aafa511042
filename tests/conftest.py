import pytest

from btpgeo import charts


@pytest.fixture(scope="session")
def wallach_exact():
    return charts.wallach_metric()


# the metrics whose point curvature the tests read; each table is memoized on
# the metric, so the session builds it once
@pytest.fixture(scope="session")
def wallach_pc(wallach_exact):
    return wallach_exact


@pytest.fixture(scope="session")
def wallach_float_pc():
    return charts.wallach_metric(exact=False)
