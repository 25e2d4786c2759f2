#!/usr/bin/env bash
# The full local gate, in the order a reviewer would want failures surfaced:
#
#   1. release build + the whole test suite (unit, integration, doc-adjacent)
#   2. the determinism invariant: byte-identical CSVs and metrics ledger
#      at --jobs 1 and --jobs max(nproc, 8), with and without --trace-dir,
#      which also covers the timing-wheel event queue and per-worker
#      scratch reuse, plus campaign mode at both worker counts
#   2b. committed results: `repro all --csv` at the default seed must be
#      byte-identical to the CSVs committed under results/
#   3. metrics neutrality: a figure slice rendered with and without
#      --metrics must produce byte-identical CSVs, and the ledger must be
#      well-formed JSON carrying its schema_version key
#   3b. streaming memory: the same metered slice must show that no session
#      retained a trace — zero peak_trace_bytes — while the live-tap fold
#      state registers as nonzero peak_flowstate_bytes
#   3e. ext-qoe determinism: the DASH/LRD load sweep (adaptive client plus
#       seeded cross-traffic aggregate) byte-identical at --jobs 1 and 8,
#       and both of its artifacts written
#   3c. trace neutrality: the same slice rendered with --trace-dir must
#      leave figures, the QoE table, and the wall-off ledger byte-identical
#      while producing dump files, and every emitted Chrome trace JSON must
#      parse
#   3d. campaign smoke: a small hybrid campaign passes its cross-validation
#      gate, an interrupted run resumed from the checkpoint ledger emits
#      byte-identical output, and the ledger's shard checkpoints and
#      summary are well-formed
#   4. the packed-format roundtrip suite in release mode: the columnar
#      AoS-vs-SoA equivalence and pack/unpack exactness tests, compiled
#      with release assertions so the checked truncation/corruption paths
#      in PackedTrace::unpack are exercised exactly as production runs them
#   5. a quick-mode pass over every benchmark, so a change that breaks a
#      bench harness (or makes a substrate pathologically slow) fails CI
#      rather than the next person's perf run
#
# Usage: scripts/ci.sh
# Everything runs offline; no network access is required.
set -euo pipefail

cd "$(dirname "$0")/.."

# Each stage header starts a clock; when the next stage starts (or the run
# ends) the finished stage's elapsed wall seconds are printed, so the cost
# of the test suite and of each determinism pass is visible per run.
stage_name=""
stage_t0=0
stage_end() {
    if [[ -n "$stage_name" ]]; then
        local us=$(( ${EPOCHREALTIME/./} - stage_t0 ))
        printf '<== %d.%d s  %s\n' $((us / 1000000)) $((us / 100000 % 10)) "$stage_name"
    fi
}
stage() {
    stage_end
    stage_name="$1"
    stage_t0=${EPOCHREALTIME/./}
    echo "==> $1"
}

stage "build (release)"
cargo build --release --offline

stage "tests"
cargo test --offline --quiet

stage "determinism: CSVs and metrics ledger invariant under --jobs and --trace-dir"
scripts/check_determinism.sh

obs_out="$(mktemp -d)"
trap 'rm -rf "$obs_out"' EXIT

stage "committed results: repro all --csv must match results/ byte for byte"
target/release/repro all --csv "$obs_out/results" > /dev/null
diff -r results "$obs_out/results"

stage "metrics neutrality: --metrics must not change the figures"
target/release/repro fig2 fig4 --csv "$obs_out/plain" > /dev/null
target/release/repro fig2 fig4 --csv "$obs_out/metered" \
    --metrics "$obs_out/metrics.json" > /dev/null
diff -r "$obs_out/plain" "$obs_out/metered"
python3 -m json.tool "$obs_out/metrics.json" > /dev/null
grep -q '"schema_version"' "$obs_out/metrics.json"

stage "streaming memory: no session retains a trace, the folds hold the state"
# Wall timing is on here, so the execution-dependent gauges are recorded.
grep -q '"peak_trace_bytes":0[,}]' "$obs_out/metrics.json"
grep -qE '"peak_flowstate_bytes":[1-9]' "$obs_out/metrics.json"

stage "ext-qoe determinism: byte-identical across --jobs"
target/release/repro ext-qoe --jobs 1 --csv "$obs_out/extqoe-ref" > /dev/null
target/release/repro ext-qoe --jobs 8 --csv "$obs_out/extqoe-j8" > /dev/null
diff -r "$obs_out/extqoe-ref" "$obs_out/extqoe-j8"
# The sweep must produce both artifacts: the stall-ratio curve and the
# switch-rate table.
test -f "$obs_out/extqoe-ref/ext-qoe.csv"
test -f "$obs_out/extqoe-ref/ext-qoe-switches.csv"

stage "trace neutrality: --trace-dir must not change figures, QoE table, or ledger"
VSTREAM_WALL=off target/release/repro fig2 fig4 --csv "$obs_out/tr-plain" \
    --metrics "$obs_out/tr-plain.metrics.json" > /dev/null
VSTREAM_WALL=off target/release/repro fig2 fig4 --csv "$obs_out/tr-traced" \
    --metrics "$obs_out/tr-traced.metrics.json" \
    --trace-dir "$obs_out/tr-dumps" --trace-cap 4096 > /dev/null
diff -r "$obs_out/tr-plain" "$obs_out/tr-traced"
diff "$obs_out/tr-plain.metrics.json" "$obs_out/tr-traced.metrics.json"
# Dumps must exist and every Chrome trace JSON must be valid JSON.
ls "$obs_out/tr-dumps"/*.trace.json > /dev/null
for dump in "$obs_out/tr-dumps"/*.trace.json; do
    python3 -m json.tool "$dump" > /dev/null
done

stage "campaign smoke: gate passes, interrupt + resume is byte-identical, ledger parses"
# One uninterrupted run (the gate FAILing would exit nonzero here), then
# the same campaign executed as two interrupted runs against a checkpoint
# ledger plus a resuming run — stdout must match the one-shot run byte for
# byte, and the content-addressed ledger must hold every shard checkpoint
# plus a well-formed summary.
target/release/repro campaign --viewers 10000 --csv "$obs_out/camp-oneshot" \
    > "$obs_out/camp-oneshot.txt"
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" \
    --max-shards 1 > /dev/null
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" \
    --max-shards 1 --jobs 8 > /dev/null
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" \
    --jobs 8 --csv "$obs_out/camp-resumed" > "$obs_out/camp-resumed.txt"
diff -r "$obs_out/camp-oneshot" "$obs_out/camp-resumed"
diff <(sed "s|$obs_out/camp-oneshot|CSV|" "$obs_out/camp-oneshot.txt") \
     <(sed "s|$obs_out/camp-resumed|CSV|" "$obs_out/camp-resumed.txt")
ledger_dir=("$obs_out"/camp-ledger/campaign-*)
test "$(ls "${ledger_dir[0]}"/shard-*.ckpt | wc -l)" -eq 4
head -n 1 "${ledger_dir[0]}"/shard-0000.ckpt | grep -q '^vstream-campaign-shard v2$'
grep -q '^gate PASS$' "${ledger_dir[0]}/summary.txt"

stage "packed-format roundtrip (release mode: checked unpack corruption paths)"
cargo test --offline --release --quiet -p vstream-capture

stage "bench smoke (quick mode, no JSON ledger)"
cargo bench --offline -p vstream-bench --bench substrates -- --quick

stage_end
echo "total: $SECONDS s"
echo "OK: build, tests, determinism, committed results, metrics neutrality, streaming memory, ext-qoe determinism, trace neutrality, campaign smoke, roundtrip, and bench smoke all passed"
