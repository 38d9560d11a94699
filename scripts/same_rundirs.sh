#!/usr/bin/env bash
# Check that two source trees of copseudo write byte-identical outputs.
#
# Usage: scripts/same_rundirs.sh PARENT_TREE CHANGE_TREE [WORK_DIR]
#
# Each tree is a checkout of the repository; its package is imported from
# <tree>/src. For each tree the script generates the datasets, trains the
# nine configurations below (eight desk-profile runs on 2-wide vectors and
# one paper-profile run on 3072-wide CIFAR-format images written by the
# script itself), replays every prediction dump
# with `copseudo fuse-trace`, and records each command's stdout, stderr and
# exit code. It also decodes every dataset file with that tree's own loader
# and logs a digest of its content: size, classes, feature shape, and a
# sha256 of the missing flags, the labels and the float64 feature bytes.
# It then compares the two result directories with `diff -r`, except for
# the bytes of image.ds and image-test.ds: their container may change
# between trees, so only their content digests are compared.
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

# name|train set|test set|train flags|fusion flags (passed to fuse-trace
# as well)
DESK="--profile desk"
CONFIGS=(
    "pair|mcar|test|$DESK --models 2 --steps 60 --eval-every 10 --dump-predictions-every 20|"
    "cascade3-mnar|mnar|test|$DESK --models 3 --steps 60 --eval-every 10 --dump-predictions-every 20|--tau-cascade 0.85,0.75"
    "conflict-drop4|mcar|test|$DESK --models 4 --steps 40 --eval-every 20 --dump-predictions-every 20|--tau-cascade 0.85,0.75,0.65 --conflict-drop"
    "single3|mcar|test|$DESK --models 3 --steps 40 --eval-every 20|--single-model-mode --tau-cascade 0.85,0.75"
    "cosine-every1|mcar|test|$DESK --models 2 --steps 12 --eval-every 1 --cosine-lr|"
    "steps0|mcar|test|$DESK --models 2 --steps 0|"
    "steps1|mcar|test|$DESK --models 2 --steps 1|"
    "low-tau|mcar|test|$DESK --models 2 --steps 40 --eval-every 20 --dump-predictions-every 20|--tau 0.4 --tau2 0.3"
    "image|image|image-test|--profile paper --models 2 --steps 4 --eval-every 2 --dump-predictions-every 2|--tau 0.3 --tau2 0.2"
)

# CIFAR-format batches: five train files of 120 images and a test file of
# 60, each image a noisy copy of its class's random prototype
WRITE_CIFAR='
import os, sys
import numpy as np
from copseudo.data import CIFAR_TEST_FILE, CIFAR_TRAIN_FILES, write_cifar10_batch
rng = np.random.default_rng(21)
protos = rng.integers(0, 256, size=(10, 3072))
os.makedirs(sys.argv[1])
for name, count in [(f, 120) for f in CIFAR_TRAIN_FILES] + [(CIFAR_TEST_FILE, 60)]:
    labels = rng.integers(0, 10, size=count)
    noise = rng.integers(-48, 49, size=(count, 3072))
    pixels = np.clip(protos[labels] + noise, 0, 255)
    write_cifar10_batch(os.path.join(sys.argv[1], name), labels, pixels)
'

# one line per dataset file: name, size, classes, shape, content sha256
DIGEST_DATASETS='
import hashlib, sys
import numpy as np
from copseudo.data import load_dataset
for path in sys.argv[1:]:
    ds = load_dataset(path)
    h = hashlib.sha256()
    for arr, dtype in ((ds.missing, "u1"), (ds.eval_labels(), "<i8"),
                       (ds.features, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    shape = ",".join(str(d) for d in ds.feature_shape)
    print(path, len(ds), ds.num_classes, shape, h.hexdigest())
'

run_tree() {
    local tree=$1 out=$2
    rm -rf "$out"
    mkdir -p "$out"
    (
        cd "$out" || exit 2
        py() {
            local log=$1
            shift
            PYTHONPATH="$tree/src" python3 -c "$@" > "$log.out" 2> "$log.err"
            echo "$?" > "$log.code"
        }
        cli() {
            local log=$1
            shift
            py "$log" \
                'import sys; from copseudo.cli import main; sys.exit(main(sys.argv[1:]))' \
                "$@"
        }
        mkdir -p logs
        cli logs/gen-mcar gen-data --synthetic C=4 n=100 sigma=1.0 \
            --mcar 20 --seed 11 --out mcar.ds
        cli logs/gen-mnar gen-data --synthetic C=4 n=100 sigma=1.0 \
            --mnar p0=0.2 ptail=0.01 --seed 12 --out mnar.ds
        cli logs/gen-test gen-data --synthetic C=4 n=50 sigma=1.0 \
            --seed 13 --out test.ds
        py logs/write-cifar "$WRITE_CIFAR" cifar
        cli logs/gen-image gen-data --cifar10 cifar --mcar 120 --seed 14 \
            --out image.ds
        cli logs/gen-image-test gen-data --cifar10 cifar --split test \
            --seed 15 --out image-test.ds
        py logs/digest-datasets "$DIGEST_DATASETS" ./*.ds
        local entry name data test flags fusion seed dump step
        for entry in "${CONFIGS[@]}"; do
            IFS='|' read -r name data test flags fusion <<< "$entry"
            # shellcheck disable=SC2086
            cli "logs/train-$name" train --seed 5 \
                --data "$data.ds" --test "$test.ds" --out "run-$name" \
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
if ! diff -r -x image.ds -x image-test.ds "$work/parent" "$work/change"; then
    echo "differ: see diff above ($work)"
    exit 1
fi
if [ -n "$failed" ]; then
    echo "identical, but these commands did not exit 0 ($work):"
    echo "$failed"
    exit 1
fi
echo "identical: $files files, $traces fuse-trace outputs ($work)"
