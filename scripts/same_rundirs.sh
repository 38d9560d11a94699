#!/usr/bin/env bash
# Check that two source trees of copseudo write byte-identical outputs.
#
# Usage: scripts/same_rundirs.sh PARENT_TREE CHANGE_TREE [WORK_DIR]
#
# Each tree is a checkout of the repository; its package is imported from
# <tree>/src. For each tree the script generates the datasets, trains the
# twenty-one configurations below (fourteen desk-profile runs on 2-wide
# vectors and seven paper-profile runs on 3072-wide CIFAR-format images
# written by the script itself, whose test set is large enough to be
# evaluated in row chunks), replays every prediction dump with
# `copseudo fuse-trace`, and records each command's stdout, stderr and exit
# code. It trains one more desk run, `train --config run-config.cfg` from a
# file it writes holding cosine_lr=true, conflict_drop=no and
# aug.sigma_weak=0.05, and writes `copseudo compare run-pair run-low-tau
# --out compare.csv`. It also decodes every generated dataset file with that
# tree's own loader and logs a digest of its content: size, classes, feature
# shape, and a sha256 of the missing flags, the labels and the float64
# feature bytes. After the runs it selects and retrains: `copseudo
# select-subset --epsilon 0.02 --report` promotes the unlabeled items of
# mnar.ds on which the three cascade3-mnar checkpoints agree, and a 2-model
# desk run trains on the promoted dataset.
# It then compares the two result directories with `diff -r`, except for
# the bytes of image.ds and image-test.ds: their container may change
# between trees, so only their content digests are compared. It counts the
# replayed `conflict_coin_flip` rows at level 1 and at levels >= 2, and
# fails when the ties4-drop replays lack either kind or the ties3 or
# ties3-drop replays hold none.
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
# as well). The thresholds of image-cascade3 and image-single2 make the
# share of strong-view rows that carry a loss pass through 0, values
# between 0 and 1 and 1 within their 12 steps, so rows whose strong view
# is skipped meet rows that are built. image-shifts gives the weak views
# no shift, so a weak row draws only its flip, and the strong views shifts
# of up to 40 pixels, so about two strong translations in five leave
# nothing of the 32-pixel image in view. image-noshift gives the strong
# views no shift, so a strong translation draws no word and leaves the
# image as it is. ties4 and ties4-drop dump each of their first six steps
# for four models: ties4 replays consensus at levels 2, 3 and 4, and
# level-2 ties that its coin flips settle; ties4-drop replays coin flips
# at level 1 and at level 2, whose labels it drops. ties3 and ties3-drop
# do the same for three models, whose blocks fusion looks up in its
# decision table: both replay level-1 coin flips, ties3-drop dropping
# their labels. image-hidden8 (a first hidden layer 8 wide) and image-b40
# (280 unlabeled rows, not a multiple of 64) lie outside the shapes whose
# kept strong rows are multiplied alone, so their strong passes multiply
# the whole block of each model's views. hidden2 has two hidden layers, so
# its backward pass reaches the first through the second.
DESK="--profile desk"
CONFIGS=(
    "pair|mcar|test|$DESK --models 2 --steps 60 --eval-every 10 --dump-predictions-every 20|"
    "hidden2|mcar|test|$DESK --models 2 --hidden 16,8 --steps 20 --eval-every 10 --dump-predictions-every 10|"
    "cascade3-mnar|mnar|test|$DESK --models 3 --steps 60 --eval-every 10 --dump-predictions-every 20|--tau-cascade 0.85,0.75"
    "conflict-drop4|mcar|test|$DESK --models 4 --steps 40 --eval-every 20 --dump-predictions-every 20|--tau-cascade 0.85,0.75,0.65 --conflict-drop"
    "single3|mcar|test|$DESK --models 3 --steps 40 --eval-every 20|--single-model-mode --tau-cascade 0.85,0.75"
    "single1|mcar|test|$DESK --models 1 --steps 40 --eval-every 20 --dump-predictions-every 20|--single-model-mode"
    "cosine-every1|mcar|test|$DESK --models 2 --steps 12 --eval-every 1 --cosine-lr|"
    "steps0|mcar|test|$DESK --models 2 --steps 0|"
    "steps1|mcar|test|$DESK --models 2 --steps 1|"
    "low-tau|mcar|test|$DESK --models 2 --steps 40 --eval-every 20 --dump-predictions-every 20|--tau 0.4 --tau2 0.3"
    "ties4|mcar|test|$DESK --models 4 --steps 6 --eval-every 3 --dump-predictions-every 1|--tau 0.9 --tau-cascade 0.4,0.35,0.3"
    "ties4-drop|mcar|test|$DESK --models 4 --steps 6 --eval-every 3 --dump-predictions-every 1|--tau 0.5 --tau-cascade 0.35,0.3,0.25 --conflict-drop"
    "ties3|mcar|test|$DESK --models 3 --steps 6 --eval-every 3 --dump-predictions-every 1|--tau 0.5 --tau-cascade 0.4,0.3"
    "ties3-drop|mcar|test|$DESK --models 3 --steps 6 --eval-every 3 --dump-predictions-every 1|--tau 0.45 --tau-cascade 0.4,0.35 --conflict-drop"
    "image|image|image-test|--profile paper --models 2 --steps 4 --eval-every 2 --dump-predictions-every 2|--tau 0.3 --tau2 0.2"
    "image-shifts|image|image-test|--profile paper --models 2 --steps 4 --eval-every 2 --dump-predictions-every 2 --aug-image-shift-weak 0 --aug-image-shift-strong 40|--tau 0.3 --tau2 0.2"
    "image-noshift|image|image-test|--profile paper --models 2 --steps 4 --eval-every 2 --dump-predictions-every 2 --aug-image-shift-strong 0|--tau 0.3 --tau2 0.2"
    "image-cascade3|image|image-test|--profile paper --models 3 --steps 12 --eval-every 4 --dump-predictions-every 4|--tau 0.2 --tau-cascade 0.18,0.16"
    "image-single2|image|image-test|--profile paper --models 2 --steps 12 --eval-every 4|--single-model-mode --tau 0.22"
    "image-hidden8|image|image-test|--profile paper --models 3 --hidden 8 --steps 6 --eval-every 3 --dump-predictions-every 3|--tau 0.2 --tau-cascade 0.18,0.16"
    "image-b40|image|image-test|--profile paper --models 2 --batch-size 40 --steps 6 --eval-every 3 --dump-predictions-every 3|--tau 0.3 --tau2 0.2"
)

# CIFAR-format batches: five train files of 120 images and a test file of
# 1031, each image a noisy copy of its class's random prototype. 1031 is
# predictor.EVAL_CHUNK_ROWS + 7, so every evaluation multiplies its first
# layer in two chunks, the second a ragged tail of 7 rows
WRITE_CIFAR='
import os, sys
import numpy as np
from copseudo.data import CIFAR_TEST_FILE, CIFAR_TRAIN_FILES, write_cifar10_batch
rng = np.random.default_rng(21)
protos = rng.integers(0, 256, size=(10, 3072))
os.makedirs(sys.argv[1])
for name, count in [(f, 120) for f in CIFAR_TRAIN_FILES] + [(CIFAR_TEST_FILE, 1031)]:
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
        printf '%s\n' 'cosine_lr=true' 'conflict_drop=no' \
            'aug.sigma_weak=0.05' > run-config.cfg
        cli logs/train-config train --seed 5 --config run-config.cfg \
            --data mcar.ds --test test.ds --out run-config $DESK \
            --steps 20 --eval-every 10
        cli logs/compare compare run-pair run-low-tau --out compare.csv
        cli logs/select-cascade3-mnar select-subset --data mnar.ds \
            --ckpt run-cascade3-mnar/ckpt-model1-step60 \
            --ckpt run-cascade3-mnar/ckpt-model2-step60 \
            --ckpt run-cascade3-mnar/ckpt-model3-step60 \
            --epsilon 0.02 --report selected-mnar.csv --out selected-mnar.ds
        cli logs/train-retrain train --seed 5 --data selected-mnar.ds \
            --test test.ds --out run-retrain $DESK --models 2 --steps 40 \
            --eval-every 20
    )
}

run_tree "$parent_tree" "$work/parent"
run_tree "$change_tree" "$work/change"

files=$(find "$work/parent" -type f | wc -l)
traces=$(find "$work/parent" -name 'trace-*.csv' | wc -l)
# replayed coin flips at level 1 (no source_level) and at levels >= 2
count_flips() {
    cat "$@" 2>/dev/null | awk -F, '$3 == "conflict_coin_flip" {
        if ($5 == "") one++; else more++ } END { print one + 0, more + 0 }'
}
read -r flips1 flips2 <<< "$(count_flips "$work"/parent/trace-*.csv)"
read -r drop1 drop2 <<< "$(count_flips "$work"/parent/trace-ties4-drop-step*.csv)"
all_flips() {
    count_flips "$@" | awk '{ print $1 + $2 }'
}
ties3=$(all_flips "$work"/parent/trace-ties3-step*.csv)
ties3_drop=$(all_flips "$work"/parent/trace-ties3-drop-step*.csv)
flips="$flips1 coin flips at level 1 and $flips2 at levels >= 2 replayed"
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
if [ "$drop1" -eq 0 ] || [ "$drop2" -eq 0 ]; then
    echo "identical, but ties4-drop replayed $drop1 coin flips at level 1" \
        "and $drop2 at levels >= 2; it needs both ($work)"
    exit 1
fi
if [ "$ties3" -eq 0 ] || [ "$ties3_drop" -eq 0 ]; then
    echo "identical, but ties3 replayed $ties3 coin flips and ties3-drop" \
        "$ties3_drop; each needs one ($work)"
    exit 1
fi
echo "identical: $files files, $traces fuse-trace outputs, $flips ($work)"
