import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local SparkSession for the whole test session
    (:func:`repro.session.session`). Broadcast joins are off unless a query
    asks for one, so the joins that do not ask exercise the shuffle path."""
    # imported here: perfbench/test_harness.py loads this file without src
    # on the path and never asks for the fixture
    from repro.session import session

    s = session("repro")
    conf = s.sparkContext.getConf()
    print(
        f"[conftest] spark.driver.memory={conf.get('spark.driver.memory')} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
