//! The untraced run: the end-to-end metrics a user of the engine sees.
//!
//! Every timed operation is paired with a `ReferenceVm` run of the same
//! program and input, in alternating order. The pair's ratio is the
//! normalised run time (host speed cancels out of it), and the
//! yardstick's outcome is the operation's correctness oracle.

use std::time::{Duration, Instant};

use jvm_vm::ReferenceVm;
use trace_exec::{EngineConfig, TracingVm};

use crate::check::{reference_run, Input, Ledger, Oracle, STREAM_LEN};
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::tiers::{engine_bytes, engine_run, fused_vm, paired, timed, vm_run};
use crate::Mode;

/// A warm workload times one fresh engine's set-up every this many
/// operations, so that `setup_s` samples the whole run, not its start.
const SETUP_EVERY: usize = 8;
/// Pairs taken even when the time budget is already spent.
const MIN_PAIRS: usize = 2 * STREAM_LEN;

/// The end-to-end metrics of one workload, plus the raw host numbers
/// they are normalised by.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Workload operation / paired `ReferenceVm::run`.
    pub run_rel: Option<Summary>,
    /// Fused `Vm::run` / paired `ReferenceVm::run`.
    pub vm_run_rel: Option<Summary>,
    /// `TracingVm::new` plus its first `run`, seconds: every operation
    /// when cold, else one fresh engine every `SETUP_EVERY` operations.
    pub setup_s: Option<Summary>,
    /// Engine footprint at a fixed point, so that it is deterministic for
    /// a seed: after the warm-up when warm; when cold, the mean over one
    /// fresh engine per input of the stream.
    pub engine_bytes: u64,
    /// The yardstick's raw run time, seconds.
    pub ref_run_s: Option<Summary>,
    /// The operation's raw run time, seconds.
    pub run_s: Option<Summary>,
}

/// Measures one workload for about `budget`, after its warm-up.
pub fn measure(input: &Input, mode: Mode, budget: Duration, ledger: &mut Ledger) -> E2e {
    let cold = mode == Mode::Cold;
    let p = &input.program;
    let config = EngineConfig::default();
    let oracle = Oracle::new(input);

    // A fresh engine and its first run on operation `op`'s input.
    let set_up = |op: usize| {
        timed(|| {
            let mut e = TracingVm::new(p, config);
            let got = engine_run(&mut e, &input.args(op)).0;
            (e, got)
        })
    };

    let mut setup = Vec::new();
    let mut engine = None;
    let mut footprint = 0;
    if let Mode::Warm { runs } = mode {
        let ((mut e, got), secs) = set_up(0);
        if oracle.check(ledger, "setup", 0, &got) {
            setup.push(secs);
        }
        for op in 0..runs {
            let got = engine_run(&mut e, &input.args(op)).0;
            oracle.check(ledger, "warm-up", op, &got);
        }
        footprint = engine_bytes(&e);
        engine = Some(e);
    }
    let (mut fused, profiled) = fused_vm(p, &input.args(0));
    oracle.check(ledger, "fusion profile", 0, &profiled);
    let mut reference = ReferenceVm::new(p);
    let mut untraced = Tracer::new(false);

    let deadline = Instant::now() + budget;
    let (mut run_rel, mut vm_run_rel, mut ref_s, mut run_s) = (vec![], vec![], vec![], vec![]);
    let mut cold_bytes = Vec::new();
    let mut op = 0;
    while op < MIN_PAIRS || Instant::now() < deadline {
        let args = input.args(op);
        let flip = op % 2 == 1;
        if !cold && op % SETUP_EVERY == 0 {
            let ((_fresh, got), secs) = set_up(op);
            if oracle.check(ledger, "setup", op, &got) {
                setup.push(secs);
            }
        }
        if cold {
            // Dropped here, outside the timed region; rebuilt inside it.
            engine = None;
        }
        let ((got, op_s), (yard, yard_s)) = paired(
            &mut untraced,
            flip,
            ("run", || {
                let e = engine.get_or_insert_with(|| TracingVm::new(p, config));
                engine_run(e, &args).0
            }),
            ("ref.run", || reference_run(&mut reference, &args)),
        );
        if cold && cold_bytes.len() < STREAM_LEN {
            cold_bytes.extend(engine.as_ref().map(engine_bytes));
        }
        if ledger.check("run", &got, &yard, input.expected(op)) {
            run_rel.push(op_s / yard_s);
            ref_s.push(yard_s);
            run_s.push(op_s);
            if cold {
                setup.push(op_s);
            }
        }
        let ((got, vm_s), (yard, yard_s)) = paired(
            &mut untraced,
            !flip,
            ("vm.run_fused", || {
                vm_run(&mut fused, &args, &mut jvm_vm::NullObserver)
            }),
            ("ref.run", || reference_run(&mut reference, &args)),
        );
        if ledger.check("fused vm run", &got, &yard, input.expected(op)) {
            vm_run_rel.push(vm_s / yard_s);
            ref_s.push(yard_s);
        }
        op += 1;
    }
    if cold {
        footprint = cold_bytes.iter().sum::<u64>() / cold_bytes.len().max(1) as u64;
    }

    E2e {
        run_rel: Summary::of(&run_rel),
        vm_run_rel: Summary::of(&vm_run_rel),
        setup_s: Summary::of(&setup),
        engine_bytes: footprint,
        ref_run_s: Summary::of(&ref_s),
        run_s: Summary::of(&run_s),
    }
}
