#!/bin/bash
cd "$(dirname "$0")/.."
# driver memory: half the host's RAM, clamped to 2–8 GB (the tier-1 rule)
MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)"
export PYSPARK_SUBMIT_ARGS="--master local[*] --driver-memory $MEM --conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false --conf spark.ui.showConsoleProgress=false pyspark-shell"
python jobs/table1_stats.py --sf 1.0        > results/table1.txt 2> results/table1.err
python jobs/table2_accuracy.py --sf 0.4     > results/table2.txt 2> results/table2.err
python jobs/table3_distributions.py --sf 0.4 > results/table3.txt 2> results/table3.err
python jobs/table4_cohesiveness.py --sf 0.4 > results/table4.txt 2> results/table4.err
python jobs/table5_samples.py --sf 1.0 --timings > results/table5.txt 2> results/table5.err
python jobs/table6_enwiki_runtime.py --sf 1.0 --budget 240 > results/table6.txt 2> results/table6.err
echo ALL_DONE
