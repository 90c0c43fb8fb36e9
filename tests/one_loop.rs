//! The engine runs out-of-trace code on the plain interpreter's loop.
//!
//! * With trace construction disabled the engine is the `Vm` loop plus
//!   a profiling hook, so its execution counters, checksum and output
//!   must equal `Vm::stats()` field for field, on every workload and on
//!   seeded fuzz programs, on the profiling run and on the fused run.
//! * After the first run the streams are fused. A side exit may resume
//!   in the shadow slot of a fused group, and fuel may run out in the
//!   middle of one; both must match the reference interpreter.

use tracecache_repro::bytecode::{CmpOp, Program, ProgramBuilder};
use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::exec::{compile, lower_reg, EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::fuse::{desc_for, is_fused};
use tracecache_repro::vm::{NullObserver, ReferenceVm, Value, Vm, VmConfig, VmError};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::{registry, Scale};

/// The default engine with trace construction pushed out of reach.
fn untraced() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default().with_start_delay(1 << 30),
        ..EngineConfig::paper_default()
    }
}

/// Two runs of the untraced engine and of a `Vm` with the same limits:
/// every counter, the checksum, the output and the result agree.
fn assert_lockstep(name: &str, program: &Program, args: &[Value]) {
    let config = untraced();
    let mut vm = Vm::with_config(program, config.jit.vm);
    let mut engine = TracingVm::new(program, config);
    for run in 0..2 {
        let want = vm.run(args, &mut NullObserver);
        let got = engine.run(args);
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                assert_eq!(g.result, *w, "{name} run {run}: result");
                assert_eq!(g.exec, vm.stats(), "{name} run {run}: exec stats");
                assert_eq!(g.checksum, vm.checksum(), "{name} run {run}: checksum");
                assert_eq!(g.traces.entered, 0, "{name} run {run}: no traces");
            }
            (Err(w), Err(g)) => assert_eq!(g, w, "{name} run {run}: error"),
            _ => panic!(
                "{name} run {run}: vm {want:?} vs engine {:?}",
                got.map(|r| r.result)
            ),
        }
        assert_eq!(engine.stats(), vm.stats(), "{name} run {run}: stats");
        assert_eq!(engine.output(), vm.output(), "{name} run {run}: output");
    }
    assert!(
        engine.dop_fusion_report().is_some(),
        "{name}: the second run executes fused streams"
    );
}

#[test]
fn untraced_engine_matches_vm_stats_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        assert_lockstep(w.name, &w.program, &w.args);
    }
}

#[test]
fn untraced_engine_matches_vm_stats_on_fuzz_programs() {
    for case in 0..32 {
        let seed = seed_stream(0x1100_F00D, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let program = build_program(&gen_block(&mut rng, 3, 1, 8));
        let args = args_from(rng.next_i64());
        assert_lockstep(&format!("fuzz seed {seed:#x}"), &program, &args);
    }
}

/// `main(n)`: a counted loop whose body branch flips half-way (`i <
/// n/2`), so traces recorded in one phase side-exit in the other. Both
/// guards are `load; load; if_icmp`, a fused triple once the streams are
/// fused, so their resume points are shadow slots.
fn phase_shift_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let (i, acc, half) = (b.alloc_local(), b.alloc_local(), b.alloc_local());
    b.iconst(0).store(i).iconst(0).store(acc);
    b.load(0).iconst(2).idiv().store(half);
    let head = b.bind_new_label();
    let (exit, low, cont) = (b.new_label(), b.new_label(), b.new_label());
    b.load(i).load(0).if_icmp(CmpOp::Ge, exit);
    b.load(i).load(half).if_icmp(CmpOp::Lt, low);
    b.load(acc).iconst(3).iadd().store(acc).goto(cont);
    b.bind(low);
    b.load(acc).iconst(1).iadd().store(acc);
    b.bind(cont);
    b.iinc(i, 1).goto(head);
    b.bind(exit);
    b.load(acc).ret();
    pb.build(f).expect("phase-shift program verifies")
}

/// The reference result and instruction count of one run.
fn reference(
    program: &Program,
    args: &[Value],
    max_steps: u64,
) -> (Result<Option<Value>, VmError>, u64) {
    let config = VmConfig {
        max_steps,
        ..VmConfig::default()
    };
    let mut r = ReferenceVm::with_config(program, config);
    let got = r.run(args, &mut NullObserver);
    (got, r.stats().instructions)
}

/// Whether decoded index `dpc` of `code` is a shadow slot: a non-head
/// constituent of a fused group.
fn in_shadow(code: &[tracecache_repro::vm::DOp], dpc: u32) -> bool {
    (0..dpc as usize)
        .rev()
        .take(3)
        .any(|h| is_fused(code[h].op) && h + desc_for(code[h].op).pattern.len() > dpc as usize)
}

#[test]
fn side_exits_resuming_in_fused_shadow_slots_match_reference() {
    let program = phase_shift_program();
    let args = [Value::Int(4000)];
    let (want, want_instrs) = reference(&program, &args, u64::MAX);
    let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
    let first = engine.run(&args).expect("profiling run");
    assert_eq!(first.result, *want.as_ref().unwrap());
    let fusion = engine.dop_fusion_report().expect("first run fuses");
    assert!(fusion.fused() > 0, "the loop guards are fused");

    // Some linked trace has a guard whose resume point is a shadow slot
    // of the now-fused stream.
    let code = &engine.decoded().func(program.entry()).code;
    let shadow_exit = engine.cache().iter_links().any(|(_, t)| {
        let ct = compile(&program, t).expect("linked traces compile");
        let rt = lower_reg(&program, engine.decoded(), &ct).expect("loop traces lower");
        rt.exits.iter().any(|e| in_shadow(code, e.dpc))
    });
    assert!(shadow_exit, "a guard resumes in a shadow slot");

    let exits_before = first.traces.exited_early;
    let second = engine.run(&args).expect("fused run");
    assert_eq!(second.result, *want.as_ref().unwrap());
    assert_eq!(second.exec.instructions, want_instrs);
    assert!(
        second.traces.exited_early > exits_before,
        "the phase shift side-exits on the fused run"
    );
}

#[test]
fn fuel_cuts_inside_fused_groups_outside_traces_match_reference() {
    let program = phase_shift_program();
    let (small, big) = ([Value::Int(200)], [Value::Int(4000)]);
    let (_, small_instrs) = reference(&program, &small, u64::MAX);
    let (_, big_instrs) = reference(&program, &big, u64::MAX);
    // A window of consecutive cut points in the middle of the big run
    // covers every offset of a loop iteration, fused groups included.
    let mid = big_instrs / 2;
    assert!(mid > small_instrs);
    for max_steps in mid..mid + 40 {
        let mut config = untraced();
        config.jit.vm.max_steps = max_steps;
        let mut engine = TracingVm::new(&program, config);
        engine.run(&small).expect("the profiling run fits the fuel");
        assert!(engine.dop_fusion_report().unwrap().fused() > 0);
        let got = engine.run(&big).map(|r| r.result);
        let (want, want_instrs) = reference(&program, &big, max_steps);
        assert_eq!(got, want, "max_steps={max_steps}");
        assert_eq!(got, Err(VmError::OutOfFuel));
        assert_eq!(
            engine.stats().instructions,
            want_instrs,
            "max_steps={max_steps}"
        );
    }
}
