#!/usr/bin/env bash
# Check that two source trees of copseudo write byte-identical outputs.
#
# Usage: scripts/same_rundirs.sh PARENT_TREE CHANGE_TREE [WORK_DIR]
#
# Each tree is a checkout of the repository; its package is imported from
# <tree>/src. For each tree the script generates the datasets, trains the
# eight desk-profile configurations below, replays every prediction dump
# with `copseudo fuse-trace`, and records each command's stdout, stderr and
# exit code. It then compares the two result directories with `diff -r`.
# Every command runs from inside the result directory with relative paths,
# so the logs of identical code are identical too.
#
# Exits 0 when the results are identical, 1 when they differ, 2 on bad use.
# WORK_DIR (default: a new temporary directory) keeps the results.
set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_TREE CHANGE_TREE [WORK_DIR]" >&2
    exit 2
fi
for tree in "$1" "$2"; do
    if [ ! -f "$tree/src/copseudo/cli.py" ]; then
        echo "error: $tree has no src/copseudo/cli.py" >&2
        exit 2
    fi
done
parent_tree=$(cd "$1" && pwd)
change_tree=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# name|dataset|train flags|fusion flags (passed to fuse-trace as well)
CONFIGS=(
    "pair|mcar|--models 2 --steps 60 --eval-every 10 --dump-predictions-every 20|"
    "cascade3-mnar|mnar|--models 3 --steps 60 --eval-every 10 --dump-predictions-every 20|--tau-cascade 0.85,0.75"
    "conflict-drop4|mcar|--models 4 --steps 40 --eval-every 20 --dump-predictions-every 20|--tau-cascade 0.85,0.75,0.65 --conflict-drop"
    "single3|mcar|--models 3 --steps 40 --eval-every 20|--single-model-mode --tau-cascade 0.85,0.75"
    "cosine-every1|mcar|--models 2 --steps 12 --eval-every 1 --cosine-lr|"
    "steps0|mcar|--models 2 --steps 0|"
    "steps1|mcar|--models 2 --steps 1|"
    "low-tau|mcar|--models 2 --steps 40 --eval-every 20 --dump-predictions-every 20|--tau 0.4 --tau2 0.3"
)

run_tree() {
    local tree=$1 out=$2
    rm -rf "$out"
    mkdir -p "$out"
    (
        cd "$out" || exit 2
        cli() {
            local log=$1
            shift
            PYTHONPATH="$tree/src" python3 -c \
                'import sys; from copseudo.cli import main; sys.exit(main(sys.argv[1:]))' \
                "$@" > "$log.out" 2> "$log.err"
            echo "$?" > "$log.code"
        }
        mkdir -p logs
        cli logs/gen-mcar gen-data --synthetic C=4 n=100 sigma=1.0 \
            --mcar 20 --seed 11 --out mcar.ds
        cli logs/gen-mnar gen-data --synthetic C=4 n=100 sigma=1.0 \
            --mnar p0=0.2 ptail=0.01 --seed 12 --out mnar.ds
        cli logs/gen-test gen-data --synthetic C=4 n=50 sigma=1.0 \
            --seed 13 --out test.ds
        local entry name data flags fusion seed dump step
        for entry in "${CONFIGS[@]}"; do
            IFS='|' read -r name data flags fusion <<< "$entry"
            # shellcheck disable=SC2086
            cli "logs/train-$name" train --profile desk --seed 5 \
                --data "$data.ds" --test test.ds --out "run-$name" \
                $flags $fusion
            seed=$(sed -n 's/^seed\.fusion=//p' "run-$name/config.resolved" 2>/dev/null)
            for dump in "run-$name"/predictions-step*.csv; do
                [ -e "$dump" ] || continue
                step=${dump##*predictions-step}
                step=${step%.csv}
                # shellcheck disable=SC2086
                cli "logs/trace-$name-$step" fuse-trace "$dump" \
                    --seed "$seed" --step "$step" $fusion \
                    --out "trace-$name-step$step.csv"
            done
        done
    )
}

run_tree "$parent_tree" "$work/parent"
run_tree "$change_tree" "$work/change"

files=$(find "$work/parent" -type f | wc -l)
traces=$(find "$work/parent" -name 'trace-*.csv' | wc -l)
failed=$(grep -L '^0$' "$work"/parent/logs/*.code "$work"/change/logs/*.code)
if ! diff -r "$work/parent" "$work/change"; then
    echo "differ: see diff above ($work)"
    exit 1
fi
if [ -n "$failed" ]; then
    echo "identical, but these commands did not exit 0 ($work):"
    echo "$failed"
    exit 1
fi
echo "identical: $files files, $traces fuse-trace outputs ($work)"
