#!/bin/bash
# Regenerate every results/tableN.txt, with its Spark log in tableN.err.
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
run() { python jobs/run.py "$1" --sf "$2" > "results/$1.txt" 2> "results/$1.err"; }
run table1 1.0
run table2 0.4
run table3 0.4
run table4 0.4
run table5 1.0
run table6 1.0
echo ALL_DONE
