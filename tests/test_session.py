"""The one session builder: its driver-memory rule (no JVM needed) and the
launch settings the test session got from it."""
import os

import pytest

from repro import session


def fake_host(monkeypatch, gib: float) -> None:
    pages = int(gib * (1 << 30)) // 4096
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])


@pytest.mark.parametrize(
    "gib, mem", [(1, "2g"), (5, "2g"), (6, "3g"), (15.7, "7g"), (16, "8g"), (64, "8g")]
)
def test_driver_memory_is_half_the_host_clamped_to_2_8(monkeypatch, gib, mem):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    fake_host(monkeypatch, gib)
    assert session.driver_memory() == mem


def test_spark_driver_mem_wins(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "1500m")
    fake_host(monkeypatch, 64)
    assert session.driver_memory() == "1500m"


def test_session_launches_with_its_settings(spark):
    """Builder configs reach the JVM at launch: the driver heap is the
    rule's memory, not Spark's 1g default."""
    conf = spark.sparkContext.getConf()
    mem = conf.get("spark.driver.memory")
    assert mem == session.driver_memory()
    mb = spark.sparkContext._jvm.org.apache.spark.util.Utils.memoryStringToMb(mem)
    heap = spark.sparkContext._jvm.java.lang.Runtime.getRuntime().maxMemory()
    assert heap > 0.8 * (mb << 20)
    assert spark.sparkContext.defaultParallelism == session.PARALLELISM
    assert conf.get("spark.ui.enabled") == "false"
    assert str(session.LOG4J2) in conf.get("spark.driver.extraJavaOptions")
    assert session.LOG4J2.is_file()
