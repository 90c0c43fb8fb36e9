//! The correctness oracle: every measured operation is compared with an
//! independent `ReferenceVm` run of the same program and input.

use jvm_bytecode::Program;
use jvm_vm::{ReferenceVm, Value, VmError};
use trace_workloads::registry::{self, Scale};

/// What one run of a program produced: the fields every tier must
/// reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub result: Option<Value>,
    pub checksum: u64,
    pub instructions: u64,
}

/// Result of one run of any tier.
pub type RunResult = Result<Outcome, VmError>;

/// One yardstick run.
pub fn reference_run(vm: &mut ReferenceVm<'_>, args: &[Value]) -> RunResult {
    let result = vm.run(args, &mut jvm_vm::NullObserver)?;
    Ok(Outcome {
        result,
        checksum: vm.checksum(),
        instructions: vm.stats().instructions,
    })
}

/// Inputs per stream. A workload serves a round-robin stream of inputs
/// that differ in their entry seed, so that a run's figures average over
/// several inputs instead of resting on one seed's control flow.
pub const STREAM_LEN: usize = 32;

/// One program and the seeded stream of entry arguments it is run with.
#[derive(Debug, Clone)]
pub struct Input {
    pub program: Program,
    /// The stream's first entry seed; input `i` has seed `seed + i`.
    pub seed: i64,
    /// The registry's own entry seed for this program.
    pub registry_seed: i64,
    /// The checksum the workload's reference implementation predicts for
    /// the registry seed.
    pub expected_checksum: u64,
}

impl Input {
    /// Builds registry program `name` at `scale`, with a stream starting
    /// at `seed` (default: the registry seed).
    pub fn new(name: &str, scale: Scale, seed: Option<i64>) -> Option<Input> {
        let w = registry::by_name(name, scale)?;
        let registry_seed = match w.args.first() {
            Some(Value::Int(s)) if w.args.len() == 1 => *s,
            _ => return None,
        };
        Some(Input {
            program: w.program,
            seed: seed.unwrap_or(registry_seed),
            registry_seed,
            expected_checksum: w.expected_checksum,
        })
    }

    fn entry_seed(&self, op: usize) -> i64 {
        self.seed.wrapping_add((op % STREAM_LEN) as i64)
    }

    /// Entry arguments of operation `op`.
    pub fn args(&self, op: usize) -> [Value; 1] {
        [Value::Int(self.entry_seed(op))]
    }

    /// The predicted checksum of operation `op`, when its input is the
    /// registry seed.
    pub fn expected(&self, op: usize) -> Option<u64> {
        (self.entry_seed(op) == self.registry_seed).then_some(self.expected_checksum)
    }
}

/// The yardstick's outcome for every input of a stream: the oracle for
/// operations that have no paired yardstick run of their own.
pub struct Oracle<'i> {
    input: &'i Input,
    outcomes: Vec<RunResult>,
}

impl<'i> Oracle<'i> {
    /// Runs the yardstick once on each input of `input`'s stream.
    pub fn new(input: &'i Input) -> Self {
        let mut vm = ReferenceVm::new(&input.program);
        let outcomes = (0..STREAM_LEN)
            .map(|i| reference_run(&mut vm, &input.args(i)))
            .collect();
        Oracle { input, outcomes }
    }

    /// The yardstick's outcome for operation `op`'s input.
    pub fn outcome(&self, op: usize) -> &RunResult {
        &self.outcomes[op % STREAM_LEN]
    }

    /// Checks operation `op` against its input's outcome (see
    /// [`Ledger::check`]).
    pub fn check(&self, ledger: &mut Ledger, what: &str, op: usize, got: &RunResult) -> bool {
        ledger.check(what, got, self.outcome(op), self.input.expected(op))
    }
}

/// Counts attempted and failed operations. A failure is never fatal: it
/// is counted, its first few descriptions are kept, and the run goes on.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 8;

impl Ledger {
    /// Checks operation `what` against its paired yardstick run and, at
    /// the registry seed, against the predicted checksum. Returns whether
    /// it passed.
    pub fn check(
        &mut self,
        what: &str,
        got: &RunResult,
        yardstick: &RunResult,
        expected_checksum: Option<u64>,
    ) -> bool {
        self.attempted += 1;
        let fault = match (got, yardstick) {
            (Err(e), _) => Some(format!("run failed: {e}")),
            (_, Err(e)) => Some(format!("yardstick failed: {e}")),
            (Ok(g), Ok(y)) if g != y => Some(format!("got {g:?}, yardstick {y:?}")),
            (Ok(g), _) => expected_checksum
                .filter(|&c| c != g.checksum)
                .map(|c| format!("checksum {:#x}, workload predicts {c:#x}", g.checksum)),
        };
        match fault {
            None => true,
            Some(f) => {
                self.failed += 1;
                if self.notes.len() < MAX_NOTES {
                    self.notes.push(format!("{what}: {f}"));
                }
                false
            }
        }
    }

    /// Counts a failed operation that produced no outcome to compare.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(format!("{what}: {why}"));
        }
    }

    /// Failed share of attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(checksum: u64) -> RunResult {
        Ok(Outcome {
            result: Some(Value::Int(1)),
            checksum,
            instructions: 10,
        })
    }

    #[test]
    fn mismatches_are_counted_not_fatal() {
        let mut l = Ledger::default();
        assert!(l.check("same", &ok(7), &ok(7), Some(7)));
        assert!(!l.check("differs", &ok(7), &ok(8), None));
        assert!(!l.check("mispredicted", &ok(7), &ok(7), Some(9)));
        assert!(!l.check("trapped", &Err(VmError::DivisionByZero), &ok(7), None));
        assert_eq!((l.attempted, l.failed), (4, 3));
        assert_eq!(l.notes.len(), 3);
    }

    #[test]
    fn seed_replaces_the_entry_argument() {
        let reg = Input::new("javac", Scale::Test, None).unwrap();
        assert_eq!(reg.seed, reg.registry_seed);
        assert_eq!(reg.args(0), [Value::Int(reg.registry_seed)]);
        assert_eq!(
            reg.args(STREAM_LEN + 1),
            [Value::Int(reg.registry_seed + 1)]
        );
        assert_eq!(reg.expected(STREAM_LEN), Some(reg.expected_checksum));
        assert_eq!(reg.expected(1), None);
        let other = Input::new("javac", Scale::Test, Some(reg.seed - 2)).unwrap();
        assert_eq!(other.expected(0), None);
        assert_eq!(other.expected(2), Some(reg.expected_checksum));
    }
}
