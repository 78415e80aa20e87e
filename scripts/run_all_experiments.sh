#!/bin/sh
# Regenerate every table and figure of the paper sequentially.
# Usage: scripts/run_all_experiments.sh [--quick]
# Logs to crates/bench/results/<name>.log, JSON to crates/bench/results/<name>.json.
set -u
QUICK="${1:-}"
OUT=crates/bench/results
mkdir -p "$OUT"
for bin in table1 table7 table6 fig2 table9 table3 table8 table10 table11 fig5 fig3_4 fig6 fig7 ablation_impl; do
    echo "== $bin =="
    if [ -n "$QUICK" ]; then
        cargo run --release -p eras-bench --bin "$bin" -- --quick \
            >"$OUT/$bin.log" 2>"$OUT/$bin.err"
    else
        cargo run --release -p eras-bench --bin "$bin" \
            >"$OUT/$bin.log" 2>"$OUT/$bin.err"
    fi
    echo "   done ($OUT/$bin.log)"
done
