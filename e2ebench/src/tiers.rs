//! The execution tiers the benchmark times, each run through the public
//! API of its crate, and the timing helpers that pair them.

use std::time::Instant;

use jvm_bytecode::Program;
use jvm_vm::{BlockCounts, DispatchObserver, FusionConfig, Value, Vm};
use trace_bcg::{BranchCorrelationGraph, Signal};
use trace_exec::{EngineConfig, TracingVm};
use trace_jit::{RunReport, TraceJitConfig, TraceVm};

use crate::check::{Outcome, RunResult};
use crate::spans::Tracer;

/// Wall time of `f` in seconds, with its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Runs `f` inside span `name` of `t` and times it, span bookkeeping
/// included, so that a traced run pays for its tracing.
fn timed_span<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    timed(|| t.span(name, f))
}

/// Times `a` and `b` back to back, each in its own span, `b` first when
/// `b_first`, so that alternating the flag cancels order effects (cache
/// warmth, clock ramps) out of the ratio.
pub fn paired<A, B>(
    t: &mut Tracer,
    b_first: bool,
    (na, a): (&'static str, impl FnOnce() -> A),
    (nb, b): (&'static str, impl FnOnce() -> B),
) -> ((A, f64), (B, f64)) {
    if b_first {
        let rb = timed_span(t, nb, b);
        (timed_span(t, na, a), rb)
    } else {
        let ra = timed_span(t, na, a);
        (ra, timed_span(t, nb, b))
    }
}

fn outcome(r: &RunReport) -> Outcome {
    Outcome {
        result: r.result,
        checksum: r.checksum,
        instructions: r.exec.instructions,
    }
}

/// One run of the trace engine, with its report when it succeeded.
pub fn engine_run(e: &mut TracingVm<'_>, args: &[Value]) -> (RunResult, Option<RunReport>) {
    match e.run(args) {
        Ok(r) => (Ok(outcome(&r)), Some(r)),
        Err(err) => (Err(err), None),
    }
}

/// One run of a decoded `Vm` with `observer` attached.
pub fn vm_run<O: DispatchObserver>(vm: &mut Vm<'_>, args: &[Value], observer: &mut O) -> RunResult {
    let result = vm.run(args, observer)?;
    Ok(Outcome {
        result,
        checksum: vm.checksum(),
        instructions: vm.stats().instructions,
    })
}

/// The fused plain interpreter: one profiling run, then
/// `fuse_with_profile` with the default selection thresholds.
pub fn fused_vm<'p>(program: &'p Program, args: &[Value]) -> (Vm<'p>, RunResult) {
    let mut vm = Vm::new(program);
    let mut counts = BlockCounts::for_program(program);
    let profiled = vm_run(&mut vm, args, &mut counts);
    vm.fuse_with_profile(counts, &FusionConfig::default());
    (vm, profiled)
}

/// Engine footprint: decoded code, lowered traces and cache payload.
pub fn engine_bytes(e: &TracingVm<'_>) -> u64 {
    (e.decoded().memory_estimate().total() + e.lowered_memory() + e.cache().payload_bytes()) as u64
}

/// A tier of the layer ladder. Learned state (profile, traces, fusion)
/// is held in an `Option`: [`Tier::clear`] drops it outside the timed
/// region, and the next [`Tier::run`] rebuilds it inside, as a one-shot
/// user pays it.
// A handful of long-lived tiers: their size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Tier<'p> {
    /// The fused `Vm`, no observer.
    Fused(Vm<'p>),
    /// The fused `Vm` feeding every dispatch to a profiler whose signals
    /// are drained and dropped (profiling without construction).
    VmBcg {
        vm: Vm<'p>,
        bcg: Option<BranchCorrelationGraph>,
        signals: Vec<Signal>,
    },
    /// The paper's system: interpreter + profiler + trace cache, with
    /// traces dispatched but not executed as compiled code.
    Paper(Option<TraceVm<'p>>),
    /// The trace-executing engine under a configuration.
    Engine(Option<TracingVm<'p>>, EngineConfig),
}

impl<'p> Tier<'p> {
    pub fn vm_bcg(program: &'p Program, args: &[Value]) -> (Self, RunResult) {
        let (vm, profiled) = fused_vm(program, args);
        let tier = Tier::VmBcg {
            vm,
            bcg: None,
            signals: Vec::new(),
        };
        (tier, profiled)
    }

    /// Drops learned state; the fused `Vm` keeps its fusion, since it is
    /// the steady-state yardstick.
    pub fn clear(&mut self) {
        match self {
            Tier::Fused(_) => {}
            Tier::VmBcg { bcg, .. } => *bcg = None,
            Tier::Paper(t) => *t = None,
            Tier::Engine(e, _) => *e = None,
        }
    }

    /// One operation of this tier.
    pub fn run(&mut self, program: &'p Program, args: &[Value]) -> RunResult {
        match self {
            Tier::Fused(vm) => vm_run(vm, args, &mut jvm_vm::NullObserver),
            Tier::VmBcg { vm, bcg, signals } => {
                let bcg = bcg.get_or_insert_with(|| {
                    BranchCorrelationGraph::new(TraceJitConfig::paper_default().bcg_config())
                });
                bcg.begin_stream();
                let mut observe = |b| {
                    bcg.observe(b);
                    if bcg.has_signals() {
                        bcg.drain_signals_into(signals);
                        signals.clear();
                    }
                };
                vm_run(vm, args, &mut observe)
            }
            Tier::Paper(t) => t
                .get_or_insert_with(|| TraceVm::new(program, TraceJitConfig::paper_default()))
                .run(args)
                .map(|r| outcome(&r)),
            Tier::Engine(e, config) => {
                let e = e.get_or_insert_with(|| TracingVm::new(program, *config));
                engine_run(e, args).0
            }
        }
    }
}
