"""Shared CLI plumbing for the table jobs (spark-submit entrypoints)."""
import argparse
from pathlib import Path

from pyspark.sql import SparkSession

#: Spark's console logging defaults without the NativeCodeLoader warning
LOG4J2 = Path(__file__).resolve().parent.parent / "conf" / "log4j2.properties"


def session(app: str) -> SparkSession:
    """Local SparkSession mirroring the conftest fixture settings. The
    driver JVM options take effect when this call launches the JVM."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.driver.extraJavaOptions", f"-Dlog4j2.configurationFile=file:{LOG4J2}")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--sf", type=float, default=1.0, help="analog scale factor")
    return p


def emit(df, title: str) -> None:
    print(f"\n== {title} ==")
    print(df.to_string(index=False))
