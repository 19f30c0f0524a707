"""The one local SparkSession of the tests and the table jobs.

Every launch setting is a builder config: pyspark passes each one to
spark-submit as ``--conf`` when ``getOrCreate`` starts the JVM, so the driver
memory and the JVM options take effect without ``PYSPARK_SUBMIT_ARGS``.
"""
import os
from pathlib import Path

from pyspark.sql import SparkSession

#: Spark's console logging defaults without the NativeCodeLoader warning
LOG4J2 = Path(__file__).resolve().parents[2] / "conf" / "log4j2.properties"

#: partitions of a DataFrame built from driver data; with 8, each task of
#: the enwiki analog's edge frames (sf 1.0, 133,623 edges) stays under
#: Spark's 1000 KiB recommended task size
PARALLELISM = 8


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half the host's memory in whole
    GiB, clamped to 2g..8g."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return f"{min(8, max(2, total >> 31))}g"


def session(app: str) -> SparkSession:
    """The local session: master ``SPARK_MASTER`` (default ``local[*]``),
    :func:`driver_memory`, no UI or progress bar, 64 shuffle partitions,
    Arrow on and automatic broadcast joins off, so the enumeration joins
    broadcast only where they ask to."""
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", driver_memory())
        .config("spark.driver.extraJavaOptions", f"-Dlog4j2.configurationFile=file:{LOG4J2}")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.default.parallelism", PARALLELISM)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
