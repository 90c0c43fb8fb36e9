//! Verifier-soundness mutation campaign.
//!
//! The decoded interpreter loop, which also runs the engine's
//! out-of-trace code, reads and writes its frame slab without bounds
//! checks. That is safe only because the verifier proves every
//! reachable pc has one stack depth within the frame's `max_stack`. This
//! campaign attacks that property: it mutates valid workload and fuzz
//! programs at the `Instr` level (replaced, swapped and retargeted
//! instructions, renumbered local slots), and every mutant must either
//! be rejected by `verify_program` or run on the `Vm` and in the engine
//! with no assertion firing (build with `--features debug-invariants`
//! for the in-situ checks) and match the checked `ReferenceVm`: result,
//! checksum, instruction count and output.
//!
//! A planted verifier quirk that skips the join-depth check must be
//! caught. That test runs only with debug assertions on: with them off,
//! an unsound program would reach the unchecked slab accesses.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tracecache_repro::bytecode::verifier::{
    verify_program, verify_program_with_quirk, VerifyError, VerifyQuirk,
};
use tracecache_repro::bytecode::{Function, Instr, Intrinsic, Program};
use tracecache_repro::conformance::genprog::{args_from, build_program, gen_block};
use tracecache_repro::exec::{EngineConfig, TracingVm};
use tracecache_repro::jit::TraceJitConfig;
use tracecache_repro::vm::{NullObserver, OutputItem, ReferenceVm, Value, Vm, VmConfig, VmError};
use tracecache_repro::workloads::prng::{seed_stream, Xoshiro256StarStar};
use tracecache_repro::workloads::{registry, Scale};

const BASE_SEED: u64 = 0x5EED_50DD;
/// Fuel per run: mutants may loop forever.
const FUEL: u64 = 100_000;
/// Array lengths are clamped to this, so a mutated length expression
/// cannot ask for an unbounded allocation.
const MAX_ARRAY: i64 = 64;

/// One executor's observable outcome.
type Outcome = (Result<Option<Value>, VmError>, u64, u64, Vec<OutputItem>);

/// What a campaign saw.
#[derive(Debug, Default)]
struct Report {
    mutants: usize,
    rejected: usize,
    failures: Vec<String>,
}

fn vm_config() -> VmConfig {
    VmConfig {
        max_steps: FUEL,
        ..VmConfig::default()
    }
}

/// Retargets every branch target of `ins` through `f`.
fn retarget(ins: &Instr, f: impl Fn(u32) -> u32) -> Instr {
    match ins.clone() {
        Instr::IfICmp(c, t) => Instr::IfICmp(c, f(t)),
        Instr::IfI(c, t) => Instr::IfI(c, f(t)),
        Instr::IfFCmp(c, t) => Instr::IfFCmp(c, f(t)),
        Instr::IfNull(t) => Instr::IfNull(f(t)),
        Instr::IfNonNull(t) => Instr::IfNonNull(f(t)),
        Instr::Goto(t) => Instr::Goto(f(t)),
        Instr::TableSwitch {
            low,
            targets,
            default,
        } => Instr::TableSwitch {
            low,
            targets: targets.iter().map(|&t| f(t)).collect(),
            default: f(default),
        },
        other => other,
    }
}

/// Puts `min(len, MAX_ARRAY)` in front of every `newarray`, remapping
/// branch targets so no branch lands between the clamp and the
/// allocation.
fn clamp_arrays(code: &[Instr]) -> Vec<Instr> {
    let mut new_pc = Vec::with_capacity(code.len());
    let mut shift = 0;
    for ins in code {
        new_pc.push(shift + new_pc.len() as u32);
        if matches!(ins, Instr::NewArray) {
            shift += 2;
        }
    }
    let mut out = Vec::with_capacity(code.len() + shift as usize);
    for ins in code {
        if matches!(ins, Instr::NewArray) {
            out.push(Instr::IConst(MAX_ARRAY));
            out.push(Instr::Intrinsic(Intrinsic::MinI));
        }
        out.push(retarget(ins, |t| new_pc[t as usize]));
    }
    out
}

/// A random straight-line or control instruction for `len`-long code
/// with `locals` local slots.
fn random_instr(rng: &mut Xoshiro256StarStar, len: usize, locals: u16) -> Instr {
    let slot = rng.range_u32(0, u32::from(locals) + 2) as u16;
    let target = rng.range_u32(0, len as u32);
    match rng.next_below(22) {
        0 => Instr::IConst(rng.range_u32(0, 8) as i64 - 2),
        1 => Instr::FConst(1.5),
        2 => Instr::ConstNull,
        3 => Instr::Dup,
        4 => Instr::Dup2,
        5 => Instr::Pop,
        6 => Instr::Swap,
        7 => Instr::Load(slot),
        8 => Instr::Store(slot),
        9 => Instr::IAdd,
        10 => Instr::IMul,
        11 => Instr::INeg,
        12 => Instr::FAdd,
        13 => Instr::I2F,
        14 => Instr::F2I,
        15 => Instr::Nop,
        16 => Instr::ArrayLen,
        17 => Instr::ALoad,
        18 => Instr::Return,
        19 => Instr::ReturnVoid,
        20 => Instr::Goto(target),
        _ => Instr::IfI(tracecache_repro::bytecode::CmpOp::Lt, target),
    }
}

/// One `Instr`-level mutation of `program`, with a description.
fn mutate(program: &Program, rng: &mut Xoshiro256StarStar) -> (Program, String) {
    let funcs = program.functions();
    let fi = rng.range_usize(0, funcs.len());
    let f = &funcs[fi];
    let mut code = f.code().to_vec();
    let pc = rng.range_usize(0, code.len());
    let what = match rng.next_below(4) {
        0 => {
            code[pc] = random_instr(rng, code.len(), f.num_locals());
            format!("replace {}@{pc} with {:?}", f.name(), code[pc])
        }
        1 if pc + 1 < code.len() => {
            code.swap(pc, pc + 1);
            format!("swap {}@{pc}", f.name())
        }
        2 if !code[pc].branch_targets().is_empty() => {
            let t = rng.range_u32(0, code.len() as u32);
            code[pc] = retarget(&code[pc], |_| t);
            format!("retarget {}@{pc} to {t}", f.name())
        }
        _ => {
            let slot = rng.range_u32(0, u32::from(f.num_locals()) + 2) as u16;
            code[pc] = match code[pc] {
                Instr::Load(_) => Instr::Load(slot),
                Instr::Store(_) => Instr::Store(slot),
                Instr::IInc(_, d) => Instr::IInc(slot, d),
                _ => Instr::Pop,
            };
            format!("reslot {}@{pc} as {:?}", f.name(), code[pc])
        }
    };
    let functions = funcs
        .iter()
        .map(|g| {
            let body = if g.id() == f.id() {
                code.clone()
            } else {
                g.code().to_vec()
            };
            Function::from_parts(
                g.name().to_owned(),
                g.id(),
                g.num_params(),
                g.num_locals(),
                g.returns_value(),
                clamp_arrays(&body),
            )
        })
        .collect();
    let mutant = Program::from_parts(functions, program.classes().to_vec(), program.entry());
    (mutant, what)
}

/// Runs `run` and turns a panic into an error message.
fn guarded<T>(what: &str, run: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(run)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

/// Runs an accepted mutant on the reference, the `Vm` and the engine
/// (two runs: profiling, then fused and warm), comparing every outcome
/// with the reference's.
fn check(program: &Program, args: &[Value]) -> Result<(), String> {
    let want: Outcome = guarded("reference", || {
        let mut r = ReferenceVm::with_config(program, vm_config());
        let res = r.run(args, &mut NullObserver);
        (
            res,
            r.checksum(),
            r.stats().instructions,
            r.output().to_vec(),
        )
    })?;
    let vm: Outcome = guarded("vm", || {
        let mut vm = Vm::with_config(program, vm_config());
        let res = vm.run(args, &mut NullObserver);
        (
            res,
            vm.checksum(),
            vm.stats().instructions,
            vm.output().to_vec(),
        )
    })?;
    if vm != want {
        return Err(format!("vm {vm:?} vs reference {want:?}"));
    }
    let config = EngineConfig {
        jit: TraceJitConfig {
            vm: vm_config(),
            ..TraceJitConfig::paper_default().with_start_delay(16)
        },
        ..EngineConfig::paper_default()
    };
    let runs: Vec<Outcome> = guarded("engine", || {
        let mut engine = TracingVm::new(program, config);
        (0..2)
            .map(|_| {
                let res = engine.run(args);
                let checksum = res.as_ref().map_or(0, |r| r.checksum);
                let res = res.map(|r| r.result);
                let out = engine.output().to_vec();
                (res, checksum, engine.stats().instructions, out)
            })
            .collect()
    })?;
    for (i, got) in runs.into_iter().enumerate() {
        // The engine reports a checksum only with its result.
        let want = (
            want.0.clone(),
            if want.0.is_ok() { want.1 } else { 0 },
            want.2,
            want.3.clone(),
        );
        if got != want {
            return Err(format!("engine run {i} {got:?} vs reference {want:?}"));
        }
    }
    Ok(())
}

/// Mutates every seed program `per_program` times, verifies each mutant
/// with `verify`, and checks the accepted ones.
fn campaign(
    seeds: &[(String, Program, Vec<Value>)],
    per_program: u64,
    verify: impl Fn(&Program) -> Result<(), VerifyError>,
) -> Report {
    let mut report = Report::default();
    for (k, (name, program, args)) in seeds.iter().enumerate() {
        for m in 0..per_program {
            let seed = seed_stream(BASE_SEED, k as u64 * 1_000 + m);
            let mut rng = Xoshiro256StarStar::new(seed);
            let (mutant, what) = mutate(program, &mut rng);
            report.mutants += 1;
            if verify(&mutant).is_err() {
                report.rejected += 1;
                continue;
            }
            if let Err(e) = check(&mutant, args) {
                report
                    .failures
                    .push(format!("{name} seed {seed:#x} ({what}): {e}"));
            }
        }
    }
    report
}

/// The six workloads plus seeded fuzz programs.
fn seed_programs() -> Vec<(String, Program, Vec<Value>)> {
    let mut seeds: Vec<_> = registry::all(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_owned(), w.program, w.args))
        .collect();
    for case in 0..16 {
        let mut rng = Xoshiro256StarStar::new(seed_stream(BASE_SEED ^ 0xF022, case));
        let program = build_program(&gen_block(&mut rng, 3, 1, 8));
        seeds.push((format!("fuzz {case}"), program, args_from(rng.next_i64())));
    }
    seeds
}

#[test]
fn accepted_mutants_match_the_reference() {
    let seeds = seed_programs();
    let report = campaign(&seeds, 24, verify_program);
    assert!(
        report.failures.is_empty(),
        "{} of {} accepted mutants diverged; first: {}",
        report.failures.len(),
        report.mutants - report.rejected,
        report.failures[0]
    );
    // The campaign is only meaningful if both verdicts occur often.
    assert!(report.rejected * 5 > report.mutants, "{report:?}");
    assert!(
        (report.mutants - report.rejected) * 5 > report.mutants,
        "{report:?}"
    );
}

#[cfg(debug_assertions)]
#[test]
fn planted_join_depth_quirk_is_caught() {
    let seeds = seed_programs();
    let report = campaign(&seeds, 24, |p| {
        verify_program_with_quirk(p, VerifyQuirk::SkipJoinDepthCheck)
    });
    assert!(
        !report.failures.is_empty(),
        "a verifier that skips the join-depth check must let an unsound mutant through: {report:?}"
    );
}
