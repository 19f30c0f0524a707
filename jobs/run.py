"""Reproduce one evaluation table of the paper and print it.

    python jobs/run.py {table1,table2,table3,table4,table5,table6} [--sf SF]

Run from the repository root with ``src`` on ``PYTHONPATH`` (or after
``pip install -e .``); ``results/run_all.sh`` runs every table at the scale
EXPERIMENTS.md reports. Table 5 also prints the Figure 4 companion rows.
"""
import argparse
from functools import partial

import pandas as pd

from repro import experiments as ex
from repro.datasets import PAPER_TABLE1
from repro.session import session

#: Table 6's wall-clock budget of one DP run, in seconds; a run past it is
#: reported as the paper's "N.P."
BUDGET_S = 240.0


def paper_table1(spark, sf):
    return pd.DataFrame([{"graph": k, **v} for k, v in PAPER_TABLE1.items()])


#: table -> its parts, each a (title, frame(spark, sf=...)) pair
TABLES = {
    "table1": (
        ("Table 1 analog statistics (sf={sf})", ex.table1_stats),
        ("Paper Table 1 (original datasets, for comparison)", paper_table1),
    ),
    "table2": (("Table 2 AP error vs DP (sf={sf}, θ=0.2/0.4)", ex.table2_accuracy),),
    "table3": (("Table 3 pokec distributions (sf={sf}, θ=0.1/0.2/0.3)", ex.table3_distributions),),
    "table4": (
        ("Table 4 nucleus/truss/core cohesiveness (sf={sf}, θ=0.1/0.3)", ex.table4_cohesiveness),
    ),
    "table5": (
        ("Table 5 FG/WG vs sample size (krogan analog, sf={sf}, θ=0.1)", ex.table5_sample_size),
        ("Figure 4 companion: L/FG/WG runtimes (θ=0.1)", ex.decomposition_timings),
    ),
    "table6": (
        (
            f"§7.2 enwiki AP vs DP runtime (sf={{sf}}, budget={BUDGET_S})",
            partial(ex.table6_enwiki_runtime, budget_s=BUDGET_S),
        ),
    ),
}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("table", choices=TABLES)
    p.add_argument("--sf", type=float, default=1.0, help="analog scale factor")
    args = p.parse_args(argv)
    spark = session(args.table)
    for title, frame in TABLES[args.table]:
        print(f"\n== {title.format(sf=args.sf)} ==")
        print(frame(spark, sf=args.sf).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
