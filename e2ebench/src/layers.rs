//! The traced run: per-layer costs and counts.
//!
//! Each layer is timed from outside, with spans around calls into its
//! crate's public functions. Calls that take nanoseconds (`observe`,
//! `lookup_entry`) get one span per replay chunk, not one per call, so
//! span cost does not swamp them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use jvm_vm::{BlockCounts, DecodedProgram, FusionConfig, NullObserver, RecordingObserver};
use jvm_vm::{ReferenceVm, Vm};
use trace_bcg::BranchCorrelationGraph;
use trace_cache::{TraceCache, TraceConstructor, TraceExecStats};
use trace_exec::{compile, lower_reg, EngineConfig, TracingVm};
use trace_jit::TraceJitConfig;

use crate::check::{reference_run, Input, Ledger, Oracle, STREAM_LEN};
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::tiers::{engine_run, paired, vm_run, Tier};
use crate::Mode;

const DECODE_REPS: usize = 5;
const FUSE_REPS: usize = 3;
const UNFUSED_RUNS: usize = 3;
/// Passes of the recorded block stream through a fresh profiler: the
/// first builds the graph, the rest observe it in steady state.
const REPLAY_PASSES: usize = 2;
/// Dispatches per `observe` / `lookup_entry` span.
const CHUNK: usize = 1 << 16;
const COMPILE_PASSES: usize = 3;
/// Rounds of one untraced and one traced yardstick pair on one input.
const OVERHEAD_ROUNDS: usize = STREAM_LEN;
const PERSIST_REPS: usize = 3;
/// Ladder rounds taken even when the time budget is already spent.
const MIN_LADDER_ROUNDS: usize = 3;

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Which direction is better for per-layer metric `name`.
pub fn better(name: &str) -> &'static str {
    match name {
        "vm.fuse.dispatches_eliminated"
        | "tracecache.signal_yield"
        | "exec.instrs_per_entry"
        | "exec.in_trace_share"
        | "exec.completion_rate"
        | "share.traces"
        | "host.nproc" => "higher",
        _ => "lower",
    }
}

/// Metrics plus the spans they were measured with.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

/// Per-run trace-execution counters, summed over runs.
#[derive(Debug, Default)]
struct ExecAcc {
    runs: u64,
    entered: u64,
    completed: u64,
    side_exits: u64,
    blocks_outside: u64,
    instrs_in_traces: u64,
    instructions: u64,
    dispatches: u64,
}

impl ExecAcc {
    /// Adds one run, given the engine's cumulative counters before and
    /// after it and the paired yardstick run's per-block dispatch count
    /// (the engine counts only its own dispatches: in-trace blocks are
    /// not dispatched).
    fn add(
        &mut self,
        before: &TraceExecStats,
        after: &TraceExecStats,
        instructions: u64,
        dispatches: u64,
    ) {
        self.runs += 1;
        self.entered += after.entered - before.entered;
        self.completed += after.completed - before.completed;
        self.side_exits += after.exited_early - before.exited_early;
        self.blocks_outside += after.blocks_outside - before.blocks_outside;
        self.instrs_in_traces += (after.instrs_in_completed + after.instrs_in_partial)
            - (before.instrs_in_completed + before.instrs_in_partial);
        self.instructions += instructions;
        self.dispatches += dispatches;
    }

    fn per_run(&self, x: u64) -> f64 {
        x as f64 / self.runs.max(1) as f64
    }
}

/// The layer ladder's rungs beside the full engine: name, tier, and
/// whether the denominator is the default engine (flag A/B) rather than
/// the fused `Vm`.
fn rungs(vm_bcg: Tier<'_>) -> Vec<(&'static str, Tier<'_>, bool)> {
    let config = EngineConfig::default();
    let notrace = EngineConfig {
        jit: TraceJitConfig::paper_default().with_start_delay(1 << 30),
        ..config
    };
    let flag = |name, c| (name, Tier::Engine(None, c), true);
    vec![
        ("ladder.vm_bcg_rel", vm_bcg, false),
        ("ladder.paper_tracevm_rel", Tier::Paper(None), false),
        (
            "ladder.engine_notrace_rel",
            Tier::Engine(None, notrace),
            false,
        ),
        flag("ladder.flag.reg_ir_off", config.with_reg_ir(false)),
        flag(
            "ladder.flag.superinstructions_off",
            config.with_superinstructions(false),
        ),
        flag("ladder.flag.dop_fusion_off", config.with_dop_fusion(false)),
        flag("ladder.flag.health_off", config.with_health(false)),
        flag("ladder.flag.optimize_on", config.with_optimizer(true)),
    ]
}

/// One ladder pair on operation `op`'s input: `num` and `den` run back
/// to back (order by `flip`), both checked against the oracle. Returns
/// the time ratio and the denominator's time when both passed.
#[allow(clippy::too_many_arguments)]
fn ladder_pair<'p>(
    t: &mut Tracer,
    ledger: &mut Ledger,
    (input, oracle): (&'p Input, &Oracle<'_>),
    mode: Mode,
    op: usize,
    (na, num): (&'static str, &mut Tier<'p>),
    (nd, den): (&'static str, &mut Tier<'p>),
) -> Option<(f64, f64)> {
    if mode == Mode::Cold {
        num.clear();
        den.clear();
    }
    let (p, args) = (&input.program, input.args(op));
    let ((a, a_s), (b, b_s)) = paired(
        t,
        op % 2 == 1,
        (na, || num.run(p, &args)),
        (nd, || den.run(p, &args)),
    );
    let ok_a = oracle.check(ledger, na, op, &a);
    let ok_b = oracle.check(ledger, nd, op, &b);
    (ok_a && ok_b).then_some((a_s / b_s, b_s))
}

/// Measures every layer of one workload for about `budget`.
pub fn measure(input: &Input, mode: Mode, budget: Duration, ledger: &mut Ledger) -> Layers {
    let deadline = Instant::now() + budget;
    let cold = mode == Mode::Cold;
    let mut t = Tracer::new(true);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name, value: f64, unit| m.push(Metric { name, value, unit });
    let p = &input.program;
    let config = EngineConfig::default();
    let oracle = t.span("ref.oracles", || Oracle::new(input));
    // The single-input measurements (vm layer, replay) use the first input.
    let args = &input.args(0)[..];

    // vm: decode, fusion, plain and fused dispatch.
    for _ in 0..DECODE_REPS {
        black_box(t.span("vm.decode", || DecodedProgram::decode(p)));
    }
    let mut plain = Vm::new(p);
    for _ in 0..UNFUSED_RUNS {
        let got = t.span("vm.run_unfused", || {
            vm_run(&mut plain, args, &mut NullObserver)
        });
        oracle.check(ledger, "unfused vm run", 0, &got);
    }
    let vm_stats = plain.stats();
    let instrs = vm_stats.instructions.max(1) as f64;
    let mut fused = None;
    for _ in 0..FUSE_REPS {
        let mut vm = Vm::new(p);
        let mut counts = BlockCounts::for_program(p);
        let got = t.span("vm.profile_run", || vm_run(&mut vm, args, &mut counts));
        oracle.check(ledger, "fusion profile", 0, &got);
        let report = t.span("vm.fuse", || {
            vm.fuse_with_profile(counts, &FusionConfig::default())
        });
        fused = Some((vm, report));
    }
    let (fused, fusion) = fused.expect("FUSE_REPS > 0");
    put("vm.decode_s", median(&t.durations_s("vm.decode")), "s");
    put("vm.fuse_s", median(&t.durations_s("vm.fuse")), "s");
    let unfused_s = median(&t.durations_s("vm.run_unfused"));
    put("vm.unfused_ns_per_instr", unfused_s * 1e9 / instrs, "ns");
    put(
        "vm.fuse.dispatches_eliminated",
        fusion.dispatches_eliminated() as f64,
        "count",
    );
    put("vm.instructions", vm_stats.instructions as f64, "count");
    put("vm.dispatches", vm_stats.block_dispatches as f64, "count");
    let decoded_bytes = plain.decoded().memory_estimate().total();
    put("vm.decoded_bytes", decoded_bytes as f64, "bytes");

    // bcg + tracecache: replay one run's block stream through a fresh
    // profiler and constructor, then probe the built cache with every
    // dispatch's entry branch.
    let mut rec = RecordingObserver::new();
    let got = t.span("vm.record", || vm_run(&mut plain, args, &mut rec));
    oracle.check(ledger, "recording run", 0, &got);
    let stream = rec.blocks;
    let jit = TraceJitConfig::paper_default();
    let mut bcg = BranchCorrelationGraph::new(jit.bcg_config());
    let mut ctor = TraceConstructor::new(jit.constructor_config());
    let mut cache = TraceCache::new();
    let mut signals = Vec::new();
    let mut delivered = 0u64;
    for _ in 0..REPLAY_PASSES {
        bcg.begin_stream();
        for chunk in stream.chunks(CHUNK) {
            let span = t.enter("bcg.observe");
            for &b in chunk {
                bcg.observe(b);
                if bcg.has_signals() {
                    bcg.drain_signals_into(&mut signals);
                    delivered += signals.len() as u64;
                    t.span("tracecache.handle_batch", || {
                        ctor.handle_batch(&signals, &mut bcg, &mut cache)
                    });
                    signals.clear();
                }
            }
            t.exit(span);
        }
    }
    let replayed = (stream.len() * REPLAY_PASSES).max(1) as f64;
    put(
        "bcg.observe_ns",
        t.totals_of("bcg.observe").self_ns as f64 / replayed,
        "ns",
    );
    put("bcg.nodes", bcg.len() as f64, "count");
    let signals_total = bcg.stats().total_signals() as f64;
    put(
        "bcg.signals_per_kdispatch",
        signals_total * 1e3 / replayed,
        "1/kdispatch",
    );
    put("bcg.memory_bytes", bcg.memory_estimate() as f64, "bytes");
    let batch_ns = t.totals_of("tracecache.handle_batch").total_ns as f64;
    put(
        "tracecache.construct_ns_per_signal",
        batch_ns / delivered.max(1) as f64,
        "ns",
    );
    let cs = ctor.stats();
    put(
        "tracecache.signals_handled",
        cs.signals_handled as f64,
        "count",
    );
    put(
        "tracecache.traces_created",
        cs.traces_created as f64,
        "count",
    );
    let handled = cs.signals_handled.max(1) as f64;
    put(
        "tracecache.signal_yield",
        cs.links_written as f64 / handled,
        "ratio",
    );
    let mut hits = 0u64;
    for start in (1..stream.len()).step_by(CHUNK) {
        let end = (start + CHUNK).min(stream.len());
        t.span("tracecache.lookup", || {
            for i in start..end {
                hits += u64::from(cache.lookup_entry((stream[i - 1], stream[i])).is_some());
            }
        });
    }
    black_box(hits);
    let lookups = stream.len().saturating_sub(1).max(1) as f64;
    put(
        "tracecache.lookup_ns",
        t.totals_of("tracecache.lookup").self_ns as f64 / lookups,
        "ns",
    );
    drop(stream);

    // exec: the engine itself, interleaved with the yardstick; half the
    // pairs untraced, to price the tracing.
    let mut engine = None;
    let mut last = TraceExecStats::default();
    if !cold {
        let (mut e, got) = t.span("exec.setup", || {
            let mut e = TracingVm::new(p, config);
            let got = engine_run(&mut e, args).0;
            (e, got)
        });
        oracle.check(ledger, "setup", 0, &got);
        for op in 0..mode.warmup_runs() {
            let (got, report) = t.span("exec.warmup", || engine_run(&mut e, &input.args(op)));
            oracle.check(ledger, "warm-up", op, &got);
            last = report.map_or(last, |r| r.traces);
        }
        engine = Some(e);
    }
    let mut acc = ExecAcc::default();
    let (mut ratio, mut ratio_traced, mut ref_s, mut run_s) = (vec![], vec![], vec![], vec![]);
    let mut reference = ReferenceVm::new(p);
    for round in 0..OVERHEAD_ROUNDS {
        let args = &input.args(round)[..];
        for k in 0..2 {
            let traced = (round + k) % 2 == 1;
            t.set_enabled(traced);
            if cold {
                engine = None;
            }
            let ((got, op_s), (yard, yard_s)) = paired(
                &mut t,
                round % 2 == 1,
                ("exec.run", || {
                    let e = engine.get_or_insert_with(|| TracingVm::new(p, config));
                    engine_run(e, args)
                }),
                ("ref.run", || reference_run(&mut reference, args)),
            );
            let (got, report) = got;
            if ledger.check("run", &got, &yard, input.expected(round)) {
                if let Some(r) = report {
                    let dispatches = reference.stats().block_dispatches;
                    acc.add(&last, &r.traces, r.exec.instructions, dispatches);
                    last = if cold {
                        TraceExecStats::default()
                    } else {
                        r.traces
                    };
                }
                if traced {
                    ratio_traced.push(op_s / yard_s);
                } else {
                    ratio.push(op_s / yard_s);
                    ref_s.push(yard_s);
                    run_s.push(op_s);
                }
            }
        }
    }
    t.set_enabled(true);
    let e = engine.expect("the overhead rounds leave an engine");
    let mut compiled_n = 0u64;
    for _ in 0..COMPILE_PASSES {
        for tr in e.cache().iter_traces().filter(|tr| !tr.blocks().is_empty()) {
            t.span("exec.compile", || {
                if let Ok(ct) = compile(p, tr) {
                    black_box(lower_reg(p, e.decoded(), &ct));
                }
            });
            compiled_n += 1;
        }
    }
    let compile_ns = t.totals_of("exec.compile").total_ns as f64;
    put(
        "exec.compile_ns_per_trace",
        compile_ns / compiled_n.max(1) as f64,
        "ns",
    );
    put("exec.compiled", e.compiled_count() as f64, "count");
    let refused = e.compiled_count() - e.reg_lowered_count();
    put("exec.reg_refused", refused as f64, "count");
    put("exec.entries_per_run", acc.per_run(acc.entered), "count");
    let entered = acc.entered.max(1) as f64;
    put(
        "exec.instrs_per_entry",
        acc.instrs_in_traces as f64 / entered,
        "count",
    );
    let in_trace = acc.instrs_in_traces as f64 / acc.instructions.max(1) as f64;
    put("exec.in_trace_share", in_trace, "share");
    put(
        "exec.completion_rate",
        acc.completed as f64 / entered,
        "share",
    );
    put(
        "exec.side_exits_per_run",
        acc.per_run(acc.side_exits),
        "count",
    );
    put(
        "exec.blocks_outside_per_run",
        acc.per_run(acc.blocks_outside),
        "count",
    );
    put("exec.lowered_bytes", e.lowered_memory() as f64, "bytes");
    put(
        "tracecache.payload_bytes",
        e.cache().payload_bytes() as f64,
        "bytes",
    );
    let health = e.health_stats();
    put(
        "tracecache.health.demotions",
        health.demotions as f64,
        "count",
    );
    put(
        "tracecache.health.readmissions",
        health.readmitted_watched as f64,
        "count",
    );

    // persist: snapshot the engine, warm-boot fresh ones from it.
    let mut snap = Vec::new();
    for _ in 0..PERSIST_REPS {
        snap = t.span("persist.snapshot", || e.snapshot());
    }
    let mut booted = None;
    for _ in 0..PERSIST_REPS {
        let mut fresh = TracingVm::new(p, config);
        match t.span("persist.load", || fresh.load_snapshot(&snap)) {
            Ok(_) => booted = Some(fresh),
            Err(err) => ledger.fail("persist.load", &err.to_string()),
        }
    }
    let mut first_entry = f64::NAN;
    if let Some(mut b) = booted {
        let (got, report) = t.span("persist.boot_run", || engine_run(&mut b, args));
        if oracle.check(ledger, "warm-boot run", 0, &got) {
            first_entry = report.map_or(f64::NAN, |r| r.traces.first_entry_dispatch as f64);
        }
    }
    put(
        "persist.snapshot_s",
        median(&t.durations_s("persist.snapshot")),
        "s",
    );
    put("persist.snapshot_bytes", snap.len() as f64, "bytes");
    put(
        "persist.load_s",
        median(&t.durations_s("persist.load")),
        "s",
    );
    put("persist.first_entry_dispatch", first_entry, "count");
    drop(e);

    // ladder: each rung against its denominator, interleaved, in
    // alternating order, round-robin until the budget is spent.
    let (vm_bcg, profiled) = Tier::vm_bcg(p, args);
    oracle.check(ledger, "fusion profile", 0, &profiled);
    let mut fused = Tier::Fused(fused);
    let mut default = Tier::Engine(None, config);
    let mut rungs = rungs(vm_bcg);
    if !cold {
        for tier in std::iter::once(&mut default).chain(rungs.iter_mut().map(|r| &mut r.1)) {
            for op in 0..mode.warmup_runs() {
                let got = t.span("ladder.warmup", || tier.run(p, &input.args(op)));
                oracle.check(ledger, "ladder warm-up", op, &got);
            }
        }
    }
    let mut engine_rel = Vec::new();
    let mut fused_ns_per_instr = Vec::new();
    let mut rel: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut round = 0;
    while round < MIN_LADDER_ROUNDS || Instant::now() < deadline {
        let ctx = (input, &oracle);
        let instrs = oracle.outcome(round).as_ref().map_or(0, |o| o.instructions);
        let num = ("ladder.engine_rel", &mut default);
        if let Some((r, vm_s)) = ladder_pair(
            &mut t,
            ledger,
            ctx,
            mode,
            round,
            num,
            ("vm.run_fused", &mut fused),
        ) {
            engine_rel.push(r);
            fused_ns_per_instr.push(vm_s * 1e9 / instrs.max(1) as f64);
        }
        for (i, (name, tier, vs_engine)) in rungs.iter_mut().enumerate() {
            let den = if *vs_engine {
                ("ladder.engine_rel", &mut default)
            } else {
                ("vm.run_fused", &mut fused)
            };
            let got = ladder_pair(&mut t, ledger, ctx, mode, round, (*name, tier), den);
            rel[i].extend(got.map(|(r, _)| r));
        }
        round += 1;
    }
    put("vm.ns_per_instr", median(&fused_ns_per_instr), "ns");
    let e_rel = Summary::of(&engine_rel);
    let e_med = e_rel.map_or(f64::NAN, |s| s.median);
    put("ladder.engine_rel", e_med, "ratio");
    put(
        "ladder.engine_rel.p25",
        e_rel.map_or(f64::NAN, |s| s.p25),
        "ratio",
    );
    put(
        "ladder.engine_rel.p75",
        e_rel.map_or(f64::NAN, |s| s.p75),
        "ratio",
    );
    let rung_med = |name: &str| {
        let i = rungs.iter().position(|r| r.0 == name).expect("known rung");
        median(&rel[i])
    };
    let bcg_rel = rung_med("ladder.vm_bcg_rel");
    let notrace_rel = rung_med("ladder.engine_notrace_rel");
    for (i, (name, _, _)) in rungs.iter().enumerate() {
        put(name, median(&rel[i]), "ratio");
    }
    // Shares of the engine's wall time, in units of one fused-Vm run.
    // Profiling costs (B - 1) per Vm-run's worth of dispatches, scaled by
    // the share of those dispatches the engine still observes (trace
    // entries plus blocks run outside traces). The no-trace engine's loop
    // without profiling costs (N - (B - 1)), scaled by the share of
    // dispatches run outside traces. Traces get the rest.
    let dispatches = acc.dispatches.max(1) as f64;
    let observed_share = (acc.entered + acc.blocks_outside) as f64 / dispatches;
    let outside_share = acc.blocks_outside as f64 / dispatches;
    let share_bcg = (bcg_rel - 1.0) * observed_share / e_med;
    let share_out = (notrace_rel - (bcg_rel - 1.0)) * outside_share / e_med;
    put("share.bcg", share_bcg, "share");
    put("share.out_of_trace", share_out, "share");
    put("share.traces", 1.0 - share_bcg - share_out, "share");

    // host and trace: the raw yardstick, and what tracing cost.
    let ref_sum = Summary::of(&ref_s);
    put(
        "host.ref_run_s",
        ref_sum.map_or(f64::NAN, |s| s.median),
        "s",
    );
    put(
        "host.ref_run_iqr_s",
        ref_sum.map_or(f64::NAN, |s| s.p75 - s.p25),
        "s",
    );
    put("host.run_s", median(&run_s), "s");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    put("host.nproc", nproc as f64, "count");
    put(
        "trace.overhead",
        median(&ratio_traced) / median(&ratio) - 1.0,
        "ratio",
    );

    Layers {
        metrics: m,
        tracer: t,
    }
}
