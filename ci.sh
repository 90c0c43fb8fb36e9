#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, tests, and a bench smoke
# run. No network access required — the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo test (release)"
cargo test --workspace -q --release

echo "== cargo test (debug build: debug_assert! guards on unchecked stack ops)"
cargo test --workspace -q

echo "== conformance (lockstep + chaos campaigns + corpus replay, in-situ asserts on)"
# debug: full invariant density; release: the same suite at speed, so the
# 256-case fuzz lockstep and chaos campaigns run in both configurations.
cargo test -p trace-conformance --features debug-invariants -q
cargo test -p trace-conformance --features debug-invariants -q --release

echo "== trace-health conformance (demotion ladder lockstep + phase-shift campaigns)"
# The self-healing ladder against its transcribed model: phase-shift
# workload lockstep, the chaos campaign that catches the planted
# rotten-trace quirk, and the engine-level demotion / warm-boot
# staleness suites — in debug (invariants on) and release.
cargo test -p trace-conformance --features debug-invariants -q phase_shift
cargo test -p trace-conformance --features debug-invariants -q model_health
cargo test --features debug-invariants -q --test health --test health_staleness
cargo test -q --release --test health --test health_staleness

echo "== fault-injection conformance (supervised deployment vs interpreter oracle)"
# Engine-level fault campaigns: corrupt artifacts, failed budget checks,
# constructor kills, dropped/duplicated batches — results must never move.
cargo test -p trace-conformance --features debug-invariants -q --test faults
cargo test -p trace-conformance -q --release --test faults

echo "== concurrent shared-cache tests (debug-invariants: threaded paths assert in situ)"
cargo test -p trace-cache -p trace-exec --features trace-cache/debug-invariants -q

echo "== register-IR differential (debug: register-bounds + invariant asserts; release: at speed)"
# The register-lowered trace tier against the plain interpreter: six
# workloads, seeded fuzz, and the guard-flip chaos programs that force
# a side-exit resume from every guard kind.
cargo test --features debug-invariants -q --test reg_differential --test reg_golden
cargo test -q --release --test reg_differential

echo "== superinstruction fusion differential (debug: stack/shadow asserts; release: at speed)"
# The fused decoded interpreter against the reference oracle: six
# workloads, seeded fuzz with every fusible site fused, fuel-straddle
# cuts inside fused groups, the pinned golden listing, and the planted
# mis-fused-boundary quirk the harness must catch.
cargo test --features debug-invariants -q --test fusion_differential --test fusion_golden
cargo test -q --release --test fusion_differential

echo "== one interpreter loop (untraced-engine lockstep, fused resume, verifier soundness)"
# The engine's out-of-trace code runs on the Vm's unchecked slab loop:
# the untraced engine must match Vm::stats() field for field, side exits
# and fuel cuts inside fused groups must match the reference, and the
# Instr-level mutation campaign (with its planted verifier quirk) attacks
# the verifier soundness the unchecked accesses rest on.
cargo test --features debug-invariants -q --test one_loop --test verifier_soundness
cargo test -q --release --test one_loop --test verifier_soundness

echo "== e2ebench self-tests and per-workload smoke (1 s, tracing off)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml
for w in mpegaudio-warm javac-warm soot-cold; do
    cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
        --workload "$w" --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct": true'
done

echo "== tracevm exec smoke (register trace tier; refusal count must be reported)"
cargo run --release -q -p tracecache-repro --bin tracevm -- run javac --scale test --engine exec \
    | grep 'compiled traces' | grep -q 'refused'

echo "== hot-path bench smoke (test scale)"
cargo run --release -p trace-bench --bin hot_path -- --smoke --out /tmp/BENCH_hot_path.smoke.json

echo "== register-IR bench smoke (scimark, lowered-reg leg must be present)"
cargo run --release -p trace-bench --bin hot_path -- --smoke --workload scimark \
    --out /tmp/BENCH_hot_path.reg.smoke.json
grep -q '"lowered-reg"' /tmp/BENCH_hot_path.reg.smoke.json
grep -q '"reg_lowering"' /tmp/BENCH_hot_path.reg.smoke.json

echo "== interp-speed bench smoke (test scale; fused + register-engine legs and fusion stats must be present)"
cargo run --release -p trace-bench --bin interp_speed -- --smoke --out /tmp/BENCH_interp.smoke.json
grep -q '"fused"' /tmp/BENCH_interp.smoke.json
grep -q '"lowered-reg"' /tmp/BENCH_interp.smoke.json
grep -q '"fusion"' /tmp/BENCH_interp.smoke.json
grep -q '"dispatches_eliminated"' /tmp/BENCH_interp.smoke.json
grep -q '"hot_opcode_triples"' /tmp/BENCH_interp.smoke.json

echo "== snapshot round-trip differential (debug: decoder/merge asserts in situ)"
# Persistence is lossless and canonical: six workloads + seeded fuzz
# programs round-trip bit-identically, warm boot matches the interpreter
# oracle, and the byte-level container format stays pinned.
cargo test --features debug-invariants -q --test snapshot_differential --test snapshot_golden

echo "== snapshot hostile-input campaign (release: >=256 mutants per source)"
# Bit flips, truncations, section swaps, hostile length fields: every
# mutant must be cleanly rejected — no panics, no silent acceptance —
# and the planted stale-hash quirk must be caught.
cargo test -q --release --test snapshot_hostile

echo "== concurrent shared-cache bench smoke (2 threads, test scale)"
cargo run --release -p trace-bench --bin concurrent -- --smoke --out /tmp/BENCH_concurrent.smoke.json
grep -q '"warm_boot"' /tmp/BENCH_concurrent.smoke.json
grep -q '"first_entry_dispatch"' /tmp/BENCH_concurrent.smoke.json

echo "== phase-shift self-healing bench smoke (health A/B leg, test scale)"
cargo run --release -p trace-bench --bin concurrent -- --smoke --phase-shift \
    --out /tmp/BENCH_concurrent_phase_shift.smoke.json
grep -q '"phase_shift"' /tmp/BENCH_concurrent_phase_shift.smoke.json
grep -q '"demotions"' /tmp/BENCH_concurrent_phase_shift.smoke.json
grep -q '"readmissions"' /tmp/BENCH_concurrent_phase_shift.smoke.json
grep -q '"throughput_retention"' /tmp/BENCH_concurrent_phase_shift.smoke.json

echo "== snapshot warm-boot bench smoke (boot-only leg, test scale)"
cargo run --release -p trace-bench --bin concurrent -- --smoke --load-snapshot \
    --out /tmp/BENCH_concurrent_boot.smoke.json
grep -q '"aot_replay"' /tmp/BENCH_concurrent_boot.smoke.json
grep -q '"traces_constructed"' /tmp/BENCH_concurrent_boot.smoke.json

echo "== degraded-mode bench smoke (fault injection, 2 threads, test scale)"
cargo run --release -p trace-bench --bin concurrent -- --smoke --faults 0xFA17_BE4C \
    --out /tmp/BENCH_concurrent_faults.smoke.json

echo "== bench harness smoke (1 sample, test scale)"
TRACE_BENCH_SCALE=test TRACE_BENCH_SAMPLES=1 \
    cargo bench -p trace-bench --bench table6_profiler_overhead >/dev/null

echo "CI OK"
