"""The benchmark tracer patches library attributes by name
(``perfbench/tracing.py``): every one must exist, and every kernel it
counts must be called on its path, or a traced run fails or counts nothing."""
import importlib
import importlib.util
from pathlib import Path

import pandas as pd

from helpers import complete_graph
from repro.nucleus.local import collect_structures, local_decomposition
from repro.prob.core import eta_core_numbers
from repro.prob.truss import gamma_truss_numbers

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_points_resolve():
    tracing = load_tracing()
    for mod, attr, _ in tracing.KERNELS + tracing.NESTED:
        assert callable(getattr(importlib.import_module(mod), attr)), f"{mod}.{attr}"


def test_every_kernel_trace_point_is_called(spark):
    """K5 plus a triangle in no 4-clique, whose c = 0 sends AP to its DP
    fallback: the DP and AP peels, core and truss call every kernel."""
    tracing = load_tracing()
    pdf = pd.concat(
        [complete_graph(5, 0.9), pd.DataFrame({"u": [4, 4, 5], "v": [5, 6, 6], "p": 0.9})],
        ignore_index=True,
    )
    edge_df = spark.createDataFrame(pdf)
    structs = collect_structures(spark, edge_df)
    tracer = tracing.Tracer(spark.sparkContext)
    tracer.install()
    try:
        for scorer in ("dp", "ap"):
            local_decomposition(spark, edge_df, 0.1, scorer=scorer, structures=structs)
        eta_core_numbers(pdf, 0.1)
        gamma_truss_numbers(pdf, 0.1)
    finally:
        tracer.uninstall()
    for mod, attr, counter in tracing.KERNELS:
        assert tracer.kernels[counter].calls > 0, f"{mod}.{attr}"
