#!/usr/bin/env bash
# Verifies the executor's core invariant: `repro` emits byte-identical
# CSVs — and, with wall-clock timing disabled, a byte-identical metrics
# ledger — for any --jobs value and with --trace-dir on or off. Runs the
# full suite four times (serial, a multi-worker pool, and a traced pass at
# each worker count) and diffs the output trees and ledgers, then runs
# campaign mode (the sharded, resumable hybrid executor) at both worker
# counts and diffs its tables and stdout the same way.
#
# The multi-worker passes use max(nproc, 8) workers: even on a single-core
# host this exercises the threaded executor path (8 OS threads racing over
# the work queue), which is the path the determinism invariant protects.
# The traced passes (DESIGN.md §12) hold two things at once: the flight
# recorder never perturbs any output (CSV trees, QoE table, stdout, ledger
# all byte-match pass 1), and the dump files themselves are deterministic —
# the --jobs 1 and --jobs N trace directories must be byte-identical file
# for file. A small --trace-cap bounds dump volume; ring truncation is
# itself deterministic (last N events).
#
# Usage: [JOBS=N] scripts/check_determinism.sh [repro-args...]
#   e.g. scripts/check_determinism.sh --seed 7 --n 4
set -euo pipefail

cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

jobs_n="${JOBS:-$(nproc)}"
if [ "$jobs_n" -lt 8 ]; then jobs_n=8; fi

cargo build --release --offline --bin repro

echo "==> pass 1: --jobs 1"
VSTREAM_WALL=off target/release/repro all --jobs 1 --csv "$out/jobs1" \
    --metrics "$out/jobs1.metrics.json" "$@" > "$out/jobs1.txt"
echo "==> pass 2: --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro all --jobs "$jobs_n" --csv "$out/jobsN" \
    --metrics "$out/jobsN.metrics.json" "$@" > "$out/jobsN.txt"

echo "==> pass 3: --trace-dir --jobs 1"
VSTREAM_WALL=off target/release/repro all --jobs 1 --csv "$out/trace1" \
    --trace-dir "$out/tr1" --trace-cap 1024 \
    --metrics "$out/trace1.metrics.json" "$@" > "$out/trace1.txt"

echo "==> pass 4: --trace-dir --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro all --jobs "$jobs_n" --csv "$out/traceN" \
    --trace-dir "$out/trN" --trace-cap 1024 \
    --metrics "$out/traceN.metrics.json" "$@" > "$out/traceN.txt"

# Campaign mode has its own executor (sharded, resumable) on top of the
# same session layer, so its worker-count invariance is checked separately
# from the figure suite.
echo "==> pass 5: campaign --jobs 1"
VSTREAM_WALL=off target/release/repro campaign --viewers 10000 --jobs 1 \
    --csv "$out/camp1" > "$out/camp1.txt"
echo "==> pass 6: campaign --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro campaign --viewers 10000 --jobs "$jobs_n" \
    --csv "$out/campN" > "$out/campN.txt"

diff -r "$out/jobs1" "$out/jobsN"
diff -r "$out/jobs1" "$out/trace1"
diff -r "$out/jobs1" "$out/traceN"
# The dump files must themselves be deterministic: serial vs multi-worker
# must produce the same file set with the same bytes.
diff -r "$out/tr1" "$out/trN"
diff -r "$out/camp1" "$out/campN"
diff <(sed "s|$out/camp1|CSV|" "$out/camp1.txt") \
     <(sed "s|$out/campN|CSV|" "$out/campN.txt")
# The stdout reports embed the csv paths; compare them with the paths
# normalised away.
diff <(sed "s|$out/jobs1|CSV|" "$out/jobs1.txt") \
     <(sed "s|$out/jobsN|CSV|" "$out/jobsN.txt")
diff <(sed "s|$out/jobs1|CSV|" "$out/jobs1.txt") \
     <(sed "s|$out/trace1|CSV|" "$out/trace1.txt")
diff <(sed "s|$out/jobs1|CSV|" "$out/jobs1.txt") \
     <(sed "s|$out/traceN|CSV|" "$out/traceN.txt")
# The telemetry ledger must be jobs- and trace-invariant too (wall timing
# is off, so every remaining quantity is a pure function of the session
# set; the peak_*_bytes gauges are execution-dependent and zeroed).
diff "$out/jobs1.metrics.json" "$out/jobsN.metrics.json"
diff "$out/jobs1.metrics.json" "$out/trace1.metrics.json"
diff "$out/jobs1.metrics.json" "$out/traceN.metrics.json"

echo "OK: output and metrics ledger are byte-identical across --jobs 1, --jobs $jobs_n, and --trace-dir (and the trace dumps and campaign mode are deterministic too)"
