//! Differential testing of the trace-executing engine against the plain
//! interpreter: on every workload, with and without the optimizer, the
//! engine must produce identical results and checksums — the trace
//! machinery, guards, side exits and peephole passes may never change
//! observable semantics.

use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{NullObserver, Vm};
use tracecache_repro::workloads::{registry, Scale};

/// The default engine with a short start delay, so test-scale runs trace.
fn engine_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default().with_start_delay(16),
        ..EngineConfig::default()
    }
}

#[test]
fn engine_matches_interpreter_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut plain = Vm::new(&w.program);
        let want = plain.run(&w.args, &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&w.program, engine_config());
        let report = engine.run(&w.args).unwrap();

        assert_eq!(report.result, want, "{} result", w.name);
        assert_eq!(report.checksum, w.expected_checksum, "{} checksum", w.name);
        assert_eq!(
            report.exec.instructions,
            plain.stats().instructions,
            "{}: unoptimized trace execution must execute the same \
             instruction sequence",
            w.name
        );
    }
}

#[test]
fn engine_actually_executes_traces_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut engine = TracingVm::new(&w.program, engine_config());
        let report = engine.run(&w.args).unwrap();
        assert!(
            engine.compiled_count() > 0,
            "{}: no traces were compiled",
            w.name
        );
        assert!(
            report.traces.completed > 0,
            "{}: no trace ran to completion",
            w.name
        );
    }
}

#[test]
fn engine_reduces_dispatches_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut plain = Vm::new(&w.program);
        plain.run(&w.args, &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&w.program, engine_config());
        let report = engine.run(&w.args).unwrap();
        assert!(
            report.exec.block_dispatches < plain.stats().block_dispatches,
            "{}: engine {} vs interpreter {} dispatches",
            w.name,
            report.exec.block_dispatches,
            plain.stats().block_dispatches
        );
    }
}

#[test]
fn optimized_engine_preserves_semantics_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut engine = TracingVm::new(&w.program, engine_config().with_optimizer(true));
        let report = engine.run(&w.args).unwrap();
        assert_eq!(
            report.checksum, w.expected_checksum,
            "{}: optimizer broke semantics",
            w.name
        );
        let baseline = {
            let mut e = TracingVm::new(&w.program, engine_config());
            e.run(&w.args).unwrap()
        };
        assert!(
            report.exec.instructions <= baseline.exec.instructions,
            "{}: optimizer must never add instructions",
            w.name
        );
    }
}

#[test]
fn warm_engine_runs_stay_correct() {
    let w = registry::compress(Scale::Test);
    let mut engine = TracingVm::new(&w.program, engine_config());
    for i in 0..3 {
        let report = engine.run(&w.args).unwrap();
        assert_eq!(report.checksum, w.expected_checksum, "run {i}");
    }
}
