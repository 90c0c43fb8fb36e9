//! Differential testing of the register-lowered trace path: the engine
//! executes hot traces from three-address virtual-register code, and
//! nothing observable may change — results,
//! checksums, and (unoptimized) the exact instruction count must match
//! the plain interpreter bit-for-bit.
//!
//! Coverage is three-pronged:
//!
//! * all six paper workloads, asserting traces really take the register
//!   path and the lowering refuses none of them;
//! * a seeded fuzz corpus over the shared [`genprog`] generator;
//! * hand-built side-exit-heavy chaos programs that force every guard
//!   kind to *fail* — conditional, switch, virtual-dispatch and
//!   return-continuation (including the depth-0 recursive-entry case) —
//!   so the register→frame reconstruction at each exit kind is proven
//!   against the interpreter, not just the guard-passes fast path.
//!
//! [`genprog`]: tracecache_repro::conformance::genprog

use tracecache_repro::bytecode::{CmpOp, Intrinsic, Program, ProgramBuilder};
use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{NullObserver, Value, Vm};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::{registry, Scale};

const BASE_SEED: u64 = 0xD1FF_5EED ^ 0x4E67;

fn reg_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default().with_start_delay(16),
        optimize: false,
        dop_fusion: true,
        health: true,
    }
}

/// Aggressive tracing so the tiny chaos programs actually trace.
fn chaos_config() -> EngineConfig {
    EngineConfig {
        jit: TraceJitConfig::paper_default()
            .with_start_delay(2)
            .with_threshold(0.90),
        optimize: false,
        dop_fusion: true,
        health: true,
    }
}

/// Runs `program` under the plain interpreter and the register-trace
/// engine and asserts bit-exact agreement and that no compiled trace was
/// refused by the register lowering, returning the engine's trace
/// counters for exit-coverage assertions.
fn assert_reg_matches(
    program: &Program,
    args: &[Value],
    config: EngineConfig,
    label: &str,
) -> (tracecache_repro::tracecache::TraceExecStats, usize) {
    let mut plain = Vm::new(program);
    let want = plain.run(args, &mut NullObserver).unwrap();

    let mut engine = TracingVm::new(program, config);
    let report = engine.run(args).unwrap();
    assert_eq!(report.result, want, "{label}: result diverged");
    assert_eq!(
        report.checksum,
        plain.checksum(),
        "{label}: checksum diverged"
    );
    assert_eq!(
        report.exec.instructions,
        plain.stats().instructions,
        "{label}: register traces must execute the same instruction sequence"
    );
    assert_eq!(
        engine.reg_refused_count(),
        0,
        "{label}: the register lowering refused a compiled trace"
    );
    (report.traces, engine.compiled_count())
}

#[test]
fn reg_engine_matches_interpreter_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let (traces, reg_count) = assert_reg_matches(&w.program, &w.args, reg_config(), w.name);
        assert!(traces.entered > 0, "{}: no traces dispatched", w.name);
        assert!(reg_count > 0, "{}: no trace took the register path", w.name);
    }
}

#[test]
fn optimized_reg_engine_preserves_semantics_on_all_workloads() {
    for w in registry::all(Scale::Test) {
        let mut engine = TracingVm::new(&w.program, reg_config().with_optimizer(true));
        let report = engine.run(&w.args).unwrap();
        assert_eq!(
            report.checksum, w.expected_checksum,
            "{}: optimizer + register lowering broke semantics",
            w.name
        );
        assert_eq!(engine.reg_refused_count(), 0, "{}: refused", w.name);
    }
}

#[test]
fn reg_engine_matches_interpreter_on_random_programs() {
    let cases = if cfg!(feature = "exhaustive-tests") {
        256
    } else {
        48
    };
    for case in 0..cases {
        let seed = seed_stream(BASE_SEED, case);
        let mut rng = Xoshiro256StarStar::new(seed);
        let stmts = gen_block(&mut rng, 3, 1, 8);
        let program = build_program(&stmts);
        let args = args_from(rng.next_i64());
        assert_reg_matches(&program, &args, chaos_config(), &format!("seed {seed:#x}"));
    }
}

/// Warm register traces stay correct across runs (the constant table and
/// register file are rebuilt per dispatch, never stale).
#[test]
fn warm_reg_engine_runs_stay_correct() {
    let w = registry::compress(Scale::Test);
    let mut engine = TracingVm::new(&w.program, reg_config());
    for i in 0..3 {
        let report = engine.run(&w.args).unwrap();
        assert_eq!(report.checksum, w.expected_checksum, "run {i}");
    }
    assert!(engine.compiled_count() > 0);
}

/// A hot loop whose conditional flips every 16th iteration: the trace
/// guards the 15/16-biased direction and must side-exit (reconstructing
/// the frame) on each flip.
fn cond_flip_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let s = b.alloc_local();
    b.iconst(0).store(s);
    let head = b.bind_new_label();
    let exit = b.new_label();
    let rare = b.new_label();
    let join = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(0).iconst(15).iand().if_i(CmpOp::Eq, rare);
    // common arm: s = s*3 + i
    b.load(s)
        .iconst(3)
        .imul()
        .load(0)
        .iadd()
        .store(s)
        .goto(join);
    b.bind(rare);
    b.load(s).iconst(31).iadd().store(s).goto(join);
    b.bind(join);
    b.load(s).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(s).ret();
    pb.build(f).unwrap()
}

#[test]
fn cond_guard_side_exits_reconstruct_the_frame() {
    let program = cond_flip_program();
    let (traces, reg_count) =
        assert_reg_matches(&program, &[Value::Int(4_000)], chaos_config(), "cond-flip");
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0 && traces.exited_early > 0, "{traces:?}");
}

/// A 15/16-biased tableswitch: the trace guards the dominant arm and
/// must side-exit through the switch guard on the rare selector.
fn switch_flip_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let s = b.alloc_local();
    b.iconst(0).store(s);
    let head = b.bind_new_label();
    let exit = b.new_label();
    let rare = b.new_label();
    let common = b.new_label();
    let join = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    b.load(0).iconst(15).iand().table_switch(0, &[rare], common);
    b.bind(rare);
    b.load(s).iconst(999).iadd().store(s).goto(join);
    b.bind(common);
    b.load(s)
        .iconst(5)
        .imul()
        .load(0)
        .iadd()
        .store(s)
        .goto(join);
    b.bind(join);
    b.load(s).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(s).ret();
    pb.build(f).unwrap()
}

#[test]
fn switch_guard_side_exits_reconstruct_the_frame() {
    let program = switch_flip_program();
    let (traces, reg_count) = assert_reg_matches(
        &program,
        &[Value::Int(4_000)],
        chaos_config(),
        "switch-flip",
    );
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0 && traces.exited_early > 0, "{traces:?}");
}

/// Virtual dispatch whose receiver class flips every 16th iteration,
/// selected branch-free through an array so the *receiver guard* (not an
/// earlier conditional guard) takes the miss. Also covers allocation and
/// array traffic inside register traces.
fn virtual_flip_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let ma = pb.declare_function("A.m", 1, true);
    pb.function_mut(ma).iconst(17).ret();
    let mb = pb.declare_function("B.m", 1, true);
    pb.function_mut(mb).iconst(91).ret();
    let a = pb.declare_class("A", None, 0);
    let slot = pb.add_method(a, ma);
    let bcls = pb.declare_class("B", None, 0);
    let slot_b = pb.add_method(bcls, mb);
    assert_eq!(slot, slot_b);

    let f = pb.declare_function("main", 1, true);
    let b = pb.function_mut(f);
    let s = b.alloc_local();
    let arr = b.alloc_local();
    // arr = [B, A]; arr[1] is the common receiver.
    b.iconst(0).store(s);
    b.iconst(2).new_array().store(arr);
    b.load(arr).iconst(0).new_obj(bcls).astore();
    b.load(arr).iconst(1).new_obj(a).astore();
    let head = b.bind_new_label();
    let exit = b.new_label();
    b.load(0).if_i(CmpOp::Le, exit);
    // idx = ((i & 15) + 15) >> 4  — branch-free: 0 iff (i & 15) == 0.
    b.load(arr);
    b.load(0)
        .iconst(15)
        .iand()
        .iconst(15)
        .iadd()
        .iconst(4)
        .ishr();
    b.aload().invoke_virtual(slot, 1);
    b.load(s).iadd().store(s);
    b.load(s).intrinsic(Intrinsic::Checksum);
    b.iinc(0, -1).goto(head);
    b.bind(exit);
    b.load(s).ret();
    pb.build(f).unwrap()
}

#[test]
fn virtual_guard_side_exits_reconstruct_the_frame() {
    let program = virtual_flip_program();
    let (traces, reg_count) = assert_reg_matches(
        &program,
        &[Value::Int(4_000)],
        chaos_config(),
        "virtual-flip",
    );
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0 && traces.exited_early > 0, "{traces:?}");
}

/// A recursive *entry* function: traces form inside the recursion and
/// cross its return (a depth-0 lowering — the trace enters mid-callee
/// with an empty abstract caller). Dispatching the same trace in the
/// outermost frame makes the return guard fire with no caller at all,
/// covering the `frames.len() < 2` exit arm; returning into the
/// wrong-continuation caller covers the mismatch arm.
fn recursive_return_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare_function("f", 1, true);
    let b = pb.function_mut(f);
    let acc = b.alloc_local();
    let k = b.alloc_local();
    let base = b.new_label();
    b.load(0).if_i(CmpOp::Le, base);
    b.iconst(0).store(acc).iconst(8).store(k);
    let head = b.bind_new_label();
    let done = b.new_label();
    b.load(k).if_i(CmpOp::Le, done);
    b.load(acc).iconst(2).imul().load(k).iadd().store(acc);
    b.load(acc).intrinsic(Intrinsic::Checksum);
    b.iinc(k, -1).goto(head);
    b.bind(done);
    b.load(0).iconst(1).isub().invoke_static(f);
    b.load(acc).iadd().ret();
    b.bind(base);
    b.iconst(0).ret();
    pb.build(f).unwrap()
}

#[test]
fn return_guard_side_exits_reconstruct_the_frame() {
    let program = recursive_return_program();
    let (traces, reg_count) = assert_reg_matches(
        &program,
        &[Value::Int(400)],
        chaos_config(),
        "recursive-return",
    );
    assert!(reg_count > 0, "register traces must lower");
    assert!(traces.entered > 0, "{traces:?}");
}

/// Every chaos program stays correct across warm re-runs and under the
/// optimizer — the side-exit-heavy paths are where stale register state
/// would show.
#[test]
fn chaos_programs_survive_warm_optimized_runs() {
    for (name, program, n) in [
        ("cond-flip", cond_flip_program(), 2_000),
        ("switch-flip", switch_flip_program(), 2_000),
        ("virtual-flip", virtual_flip_program(), 2_000),
        ("recursive-return", recursive_return_program(), 200),
    ] {
        let args = [Value::Int(n)];
        let mut plain = Vm::new(&program);
        plain.run(&args, &mut NullObserver).unwrap();
        let want = plain.checksum();
        let mut engine = TracingVm::new(&program, chaos_config().with_optimizer(true));
        for run in 0..3 {
            let report = engine.run(&args).unwrap();
            assert_eq!(report.checksum, want, "{name} run {run}");
        }
    }
}
