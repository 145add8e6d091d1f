#!/usr/bin/env sh
# Offline verification gate: the tier-1 build+test sweep plus a
# campaign-throughput benchmark smoke run. No network access required —
# the workspace has no external dependencies.
#
#   scripts/verify.sh            # tier-1 + bench smoke
#   scripts/verify.sh --full     # also run the full-size benchmark
set -eu

cd "$(dirname "$0")/.."

echo "== format: cargo fmt --check =="
cargo fmt --check

echo "== unsafe hygiene: grep gate =="
# `unsafe` is confined to the four explicit-SIMD modules and the bench
# crate's counting GlobalAlloc, which all carry
# #![deny(unsafe_op_in_unsafe_fn)] and per-block SAFETY comments.
# Anywhere else is a regression.
UNSAFE_ALLOWED="crates/image/src/simd.rs
crates/features/src/simd.rs
crates/warp/src/simd.rs
crates/matching/src/simd.rs
crates/bench/src/alloc.rs"
UNSAFE_FOUND=$(grep -rl "unsafe" crates/*/src --include="*.rs" | sort)
if [ "$UNSAFE_FOUND" != "$(printf '%s\n' "$UNSAFE_ALLOWED" | sort)" ]; then
    echo "error: 'unsafe' outside the allowlisted files:" >&2
    printf '%s\n' "$UNSAFE_FOUND" | grep -vxF "$(printf '%s\n' "$UNSAFE_ALLOWED")" >&2 || true
    exit 1
fi

echo "== tier-1: cargo build --release =="
# --workspace: a plain `cargo build` only builds the root package and
# its dependencies, leaving the bench binaries the smokes below run
# stale.
cargo build --release --offline --workspace

echo "== benchmark: build and test perfbench against the changed crates =="
# perfbench is a workspace of its own (see BENCHMARK.json), so the
# workspace build above never compiles it: a library API change that
# breaks the benchmark would otherwise pass this gate.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== tier-1: cargo test -q (workspace) =="
cargo test -q --workspace --release --offline

echo "== lint: cargo clippy --workspace --all-targets -D warnings =="
# --all-targets: tests, benches and examples are linted too, not only
# the library and binary targets.
cargo clippy --workspace --all-targets --release --offline -- -D warnings

echo "== docs: cargo doc --workspace -D warnings =="
# Broken intra-doc links and public docs linking private items fail the
# gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Smoke runs append run manifests to a scratch ledger, never the repo's
# out/ledger trajectory; the ledger smoke below reads it back through
# obs_report.
VS_LEDGER_DIR=$(mktemp -d /tmp/verify_ledger.XXXXXX)
export VS_LEDGER_DIR

# Every bench binary enforces its own gates through its exit code; the
# smokes below only run them.
echo "== bench smoke: campaign_bench --smoke --threads 1,2 --trace + trace_check =="
# The binary exits non-zero if the checkpointed campaign or any thread-
# sweep campaign classifies an injection differently from the primary
# checkpointed run, if a warmed workspace run still allocates, if a
# sweep row attributes less than 95% of worker wall time to the named
# campaign phases, or if arming the metrics (every phase and stage span
# then reads the clock) costs more than 2% (plus 5 ms) on the median of
# its interleaved off/on pairs.
./target/release/campaign_bench --smoke --threads 1,2 --out /tmp/BENCH_smoke.json \
    --trace /tmp/BENCH_smoke.jsonl >/dev/null
# Every line must parse as a schema-conforming JSONL event, and the
# event census must match the campaign shape: 24 injections x 10
# campaigns (the scratch and checkpointed primaries, 3 metrics off/on
# pairs at 1 thread, 2 metrics-armed repeats at 2 threads), a golden
# profile for each of the plain and the capturing golden run, and one
# sweep row per thread count. --kernels validates that every pipeline
# stage opened a span and a traced detection fired the FAST pre-reject;
# --metrics the snapshot schema (complete monotone quantiles on every
# metrics_phase event, a snapshot of every pipeline stage timed inside
# the injected runs, and a [0, 1] attribution coverage).
./target/release/trace_check /tmp/BENCH_smoke.jsonl --quiet \
    --expect injection=240 \
    --expect campaign_start=10 \
    --expect campaign_done=10 \
    --expect golden_profile=2 \
    --expect bench_result=1 \
    --expect thread_sweep=2 \
    --require frame --require match --require ransac --require warp \
    --require orb --require metrics_overhead \
    --kernels --metrics
rm -f /tmp/BENCH_smoke.json /tmp/BENCH_smoke.jsonl

echo "== kernel smoke: kernel_bench --smoke --check-speedups =="
# Every dispatch level of every kernel, and its SWAR reference, must
# reproduce the scalar oracle bit-for-bit on each smoke tier and run
# allocation-free once warmed; the SWAR FAST pre-reject must fire; and
# SWAR must beat scalar on every kernel with its own SWAR tier. The SIMD
# speedup gates are reserved for the --full run.
./target/release/kernel_bench --smoke --check-speedups --out /tmp/BENCH6_smoke.json \
    >/dev/null
rm -f /tmp/BENCH6_smoke.json

echo "== simd dispatch smoke: simd_check under VS_SIMD=scalar/swar/sse2/auto =="
# The record stream of a fault campaign (and the plain panorama output)
# must be byte-identical whichever kernel implementation the runtime
# dispatcher picks. simd_check prints one digest per phase, a campaign's
# folding its record identities (campaign::record_digest over index,
# spec, fired fault and outcome) and its retained SDC pixels; the
# dispatch levels must agree line for line. SSE2 is pinned explicitly on x86_64
# (elsewhere pinning it panics) because `auto` picks AVX2 where the CPU
# has it, and the two tiers sample differently.
levels="swar auto"
if [ "$(uname -m)" = x86_64 ]; then
    levels="swar sse2 auto"
fi
for level in scalar $levels; do
    VS_SIMD=$level ./target/release/simd_check 2>/dev/null > /tmp/simd_$level.txt || {
        echo "error: simd_check failed under VS_SIMD=$level" >&2
        exit 1
    }
done
for level in $levels; do
    diff /tmp/simd_scalar.txt /tmp/simd_$level.txt || {
        echo "error: VS_SIMD=$level records diverge from scalar" >&2
        exit 1
    }
done
rm -f /tmp/simd_scalar.txt /tmp/simd_swar.txt /tmp/simd_sse2.txt /tmp/simd_auto.txt

echo "== forensics smoke: campaign_report --smoke + trace_check --forensics =="
# The forensics report runs each campaign twice (forensics off, then
# on) and exits non-zero itself if any record identity
# (Injection::identity: index, spec, fired fault and outcome) differs,
# if a non-crash GPR injection is unattributed, or if fewer
# than 90% of masked FPR faults attribute to the warp/summary stages.
# trace_check --forensics then validates the digest events in the
# emitted JSONL trace: a golden digest per pipeline stage and
# stage-resolved attribution on every SDC injection.
./target/release/campaign_report --smoke --out-dir /tmp/forensics_smoke \
    --trace /tmp/forensics_smoke.jsonl >/dev/null
./target/release/trace_check /tmp/forensics_smoke.jsonl --quiet \
    --require forensics_golden --require report_config \
    --forensics
rm -rf /tmp/forensics_smoke /tmp/forensics_smoke.jsonl

echo "== adaptive smoke: campaign_bench --adaptive (cold, then warm cache) =="
# The Wilson-gated adaptive campaign must converge before the fixed
# budget (--min-reduction 1: converged, with any reduction), the
# in-process warm compositional pass must re-inject zero groups, and
# every estimate must agree with the fixed campaign's per-class rates
# inside its widened 95% Wilson interval (--rate-agreement).
rm -f /tmp/adaptive_cache.jsonl
./target/release/campaign_bench --smoke --adaptive --rate-agreement --min-reduction 1 \
    --cache /tmp/adaptive_cache.jsonl --out /tmp/BENCH4_smoke.json >/dev/null
# A second invocation starts from the persisted cache, which carries
# the first run's digest: with the pipeline unchanged, the binary fails
# if even its cold pass re-injects a group.
./target/release/campaign_bench --smoke --adaptive --rate-agreement --min-reduction 1 \
    --cache /tmp/adaptive_cache.jsonl --out /tmp/BENCH4_smoke.json >/dev/null
rm -f /tmp/BENCH4_smoke.json /tmp/adaptive_cache.jsonl

echo "== span export smoke: repro --trace + trace_check --spans --export-chrome =="
# A traced figure run must carry a well-formed span tree (unique ids,
# per-thread nesting, monotone timestamps, nothing left open), and the
# Chrome exporter emits exactly one trace event per input event — so
# the exported event count must equal the JSONL line count. The flame
# summary must fold a stack ending in each pipeline stage, named as
# `vs_telemetry::digest::Stage::name` names it (stage spans nest under
# the run and frame spans).
./target/release/repro fig9a --scale quick --inj 6 --threads 2 \
    --out /tmp/span_smoke_out --trace /tmp/span_smoke.jsonl >/dev/null
./target/release/trace_check /tmp/span_smoke.jsonl --quiet --spans \
    --export-chrome /tmp/span_smoke_chrome.json \
    --export-flame /tmp/span_smoke.folded
TRACE_EVENTS=$(wc -l < /tmp/span_smoke.jsonl)
# -o | wc -l: the export is a single JSON line, so count occurrences,
# not matching lines.
CHROME_EVENTS=$(grep -o '"ph":' /tmp/span_smoke_chrome.json | wc -l)
if [ "$TRACE_EVENTS" -ne "$CHROME_EVENTS" ]; then
    echo "error: chrome export has $CHROME_EVENTS events, trace has $TRACE_EVENTS" >&2
    exit 1
fi
DIGEST_RS=crates/telemetry/src/digest.rs
STAGES=$(sed -n 's/^ *Stage::[A-Za-z]* => "\([a-z]*\)",$/\1/p' $DIGEST_RS)
NUM_STAGES=$(sed -n 's/^pub const NUM_STAGES: usize = \([0-9]*\);$/\1/p' $DIGEST_RS)
if [ -z "$NUM_STAGES" ] || [ "$(echo $STAGES | wc -w)" -ne "$NUM_STAGES" ]; then
    echo "error: read stage names '$STAGES' from $DIGEST_RS, expected NUM_STAGES=$NUM_STAGES" >&2
    exit 1
fi
for stage in $STAGES; do
    grep -Eq ";$stage [0-9]+\$" /tmp/span_smoke.folded || {
        echo "error: flame summary folded no stack ending in stage '$stage'" >&2
        exit 1
    }
done
rm -rf /tmp/span_smoke_out /tmp/span_smoke.jsonl /tmp/span_smoke_chrome.json \
    /tmp/span_smoke.folded

echo "== ledger smoke: run manifests round-trip through obs_report =="
# The bench smokes above appended one run manifest each to the scratch
# ledger (the adaptive campaign_bench twice with the same config, so at
# least one series has a real baseline-vs-latest comparison). obs_report must
# parse the ledger and render its report; findings (exit 2) are advisory
# at smoke scale, exit 1 means an unreadable ledger.
LEDGER_LINES=$(wc -l < "$VS_LEDGER_DIR/ledger.jsonl")
if [ "$LEDGER_LINES" -lt 2 ]; then
    echo "error: bench smokes appended $LEDGER_LINES manifests, expected >= 2" >&2
    exit 1
fi
OBS_STATUS=0
./target/release/obs_report --quiet --ledger "$VS_LEDGER_DIR" \
    --out-dir /tmp/obs_smoke || OBS_STATUS=$?
if [ "$OBS_STATUS" -eq 1 ]; then
    echo "error: obs_report could not read the ledger" >&2
    exit 1
fi
if [ "$OBS_STATUS" -eq 2 ]; then
    echo "note: obs_report flagged regressions (advisory at smoke scale)"
fi
for artifact in /tmp/obs_smoke/obs_report.md /tmp/obs_smoke/obs_report.json; do
    [ -s "$artifact" ] || {
        echo "error: obs_report did not write $artifact" >&2
        exit 1
    }
done
rm -rf /tmp/obs_smoke "$VS_LEDGER_DIR"

if [ "${1:-}" = "--full" ]; then
    # Full benches append to the repo's real out/ledger trajectory.
    unset VS_LEDGER_DIR
    echo "== bench full: campaign_bench -> BENCH_2.json =="
    # --expect-scaling arms only when the host has the cores for the
    # widest thread count; on a smaller host the binary prints a note
    # instead of gating on time-slicing.
    ./target/release/campaign_bench --threads 1,2,4 --expect-scaling 1.5 --out BENCH_2.json
    echo "== bench full: kernel_bench -> BENCH_6.json =="
    # The SSE2 speedup gate is always armed on x86-64; the AVX2 gate
    # arms itself only when the CPU has AVX2 (the binary prints a note
    # when it auto-skips).
    ./target/release/kernel_bench --check-speedups --check-simd --out BENCH_6.json
    echo "== bench full: campaign_bench --adaptive -> BENCH_4.json =="
    # 1000-injection reference vs the adaptive stop at an 8pp Wilson
    # half-width: gate at a 5x injection reduction with rate agreement.
    ./target/release/campaign_bench --adaptive --rate-agreement \
        --inj 1000 --min-reduction 5 --out BENCH_4.json
    echo "== regression sentinel: obs_report (advisory) =="
    # Compares the runs just appended to out/ledger against their own
    # history. Flagged regressions warn rather than fail — the ledger
    # accumulates across checkouts and machines, so a red verdict needs a
    # human eye, not a CI gate; exit 1 (unreadable ledger) still fails.
    FULL_OBS=0
    ./target/release/obs_report --out-dir out/observatory || FULL_OBS=$?
    if [ "$FULL_OBS" -eq 1 ]; then
        echo "error: obs_report could not read the ledger" >&2
        exit 1
    fi
    if [ "$FULL_OBS" -eq 2 ]; then
        echo "warning: obs_report flagged regressions; see out/observatory/obs_report.md"
    fi
fi

echo "== verify: OK =="
