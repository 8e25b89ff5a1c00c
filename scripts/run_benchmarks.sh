#!/bin/bash
# Regenerate the committed benchmark manifests under artifacts/accept8.
#
# Three single-seed, 50-epoch runs with default hyperparameters:
#   - sine-ggnn: regular GGNN on SINE-SZ32-STP16-NDRP-STD0.2
#   - line-ggnn-mulmlp: GGNN-MulMlp on LINE-SZ32-STP16-NDRP-STD0.2
#   - line-ggnn-mul: GGNN-Mul on the same LINE group
#
# Usage: scripts/run_benchmarks.sh [run ...]
# With no arguments all three runs are made. An unknown run name exits 2,
# listing the valid ones, before anything is generated. It runs from a
# checkout: the package is taken from src/, so nothing needs to be
# installed.
#
# The runs go in two chains side by side, one BLAS thread each, sized for
# 2 cores: sine-ggnn then line-ggnn-mul, and line-ggnn-mulmlp. Each run
# directory gets config.json, run.log (one row per epoch), selection.json
# and the selected epoch*.npz checkpoints; only the first three are
# committed.
#
# Wall time on a shared 2-core host with numpy 2.4, estimated from
# per-batch times measured at one thread, two processes side by side (the
# side by side measurements of ROADMAP.md "Baseline", with light-cone
# node states; the command is in README "Benchmarks"): line-ggnn-mulmlp
# and line-ggnn-mul about 2.2 h each, sine-ggnn about 1.0 h. So the two
# LINE runs take about 2.2 h, or 3.2 h at the 1.45x drift seen between
# sessions, and the whole script about 3.2 h, the chain of sine-ggnn then
# line-ggnn-mul.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$ROOT/artifacts/accept8"
DATA="${BENCH_DATA_DIR:-$OUT/data}"
ALL_RUNS="sine-ggnn line-ggnn-mulmlp line-ggnn-mul"
RUNS=" ${*:-$ALL_RUNS} "

for name in "$@"; do
    if [[ " $ALL_RUNS " != *" $name "* ]]; then
        echo "unknown run '$name'; valid runs:" >&2
        printf '  %s\n' $ALL_RUNS >&2
        exit 2
    fi
done

export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
# large-allocation churn dominates otherwise; keep arenas resident
export MALLOC_MMAP_THRESHOLD_=1073741824
export MALLOC_TRIM_THRESHOLD_=1073741824
export GRIDFLOW_THREADS="${GRIDFLOW_THREADS:-1}"

gridflow() { python -m gridflow.cli "$@"; }

stamp() { date -u +%Y-%m-%dT%H:%M:%SZ; }

# run NAME MODEL DATASET: one 50-epoch run, skipped unless NAME is asked for.
# Its stdout lines are prefixed with NAME, since two chains share the terminal.
run() {
    local name=$1 model=$2 dataset=$3
    [[ "$RUNS" == *" $name "* ]] || return 0
    rm -rf "${OUT:?}/$name"
    echo "$(stamp) start $name"
    gridflow train --model "$model" --data "$DATA/$dataset/seed0" \
        --out "$OUT/$name" --epochs 50 --seed 0 --shuffle-seed 0 \
        | sed -u "s/^/[$name] /"
    echo "$(stamp) end $name"
}

gridflow generate --preset SINE-SZ32-STP16-NDRP-STD0.2 --seeds 1 \
    --out "$DATA/sine-sz32"
gridflow generate --preset LINE-SZ32-STP16-NDRP-STD0.2 --seeds 1 \
    --out "$DATA/line-sz32"

(run sine-ggnn ggnn sine-sz32; run line-ggnn-mul ggnn-mul line-sz32) &
chain_a=$!
(run line-ggnn-mulmlp ggnn-mulmlp line-sz32) &
chain_b=$!

# Wait on both chains, so that one failing does not orphan the other, and
# fail if either failed.
rc=0
wait "$chain_a" || rc=$?
wait "$chain_b" || rc=$?
exit "$rc"
