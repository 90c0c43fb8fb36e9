//! The trace-executing virtual machine.
//!
//! [`TracingVm`] is the "fully integrated" system the paper names as its
//! next step (§6): out-of-trace code runs on the decoded interpreter loop
//! of `jvm_vm` ([`jvm_vm::run_with_hook`]) — the same loop, fused
//! superinstructions included, that the plain [`jvm_vm::Vm`] runs — with
//! the engine attached as its block hook, while cached traces execute
//! from compiled, guarded straight-line code with **no dispatch and no
//! profiling points inside** ("a trace dispatch executes a single
//! profiling statement, all of the inlined ones are removed", §5.4).
//!
//! The hook runs at every block-entry marker of the decoded streams: it
//! feeds the profiler, routes its signals to the trace constructor, runs
//! the health epoch, and looks the entry branch up in the trace cache. On
//! a hit it executes the trace directly on the loop's frame arena and
//! hands control back with [`Flow::Resume`]; the loop reloads the frame
//! and goes on from wherever the trace left it. Guards and side exits are
//! the only boundary between the two tiers. Frame `pc`s are indices into
//! the decoded streams throughout, including across trace entry and side
//! exits.
//!
//! Guard failures side-exit: the frame's `pc` is re-anchored at the
//! guarded instruction (whose operands were only peeked, never popped)
//! and the loop resumes there, re-executing it with full semantics. The
//! resume point sits just *past* its block's entry marker, so the
//! dispatch event the reference system would fire on resumption is
//! accounted for **eagerly** at the exit itself, in the same order the
//! loop would. A trace that completes re-anchors the frame at its final
//! terminator, which the loop then executes (and charges fuel for).
//! Consequently the engine is *semantically transparent*: with
//! optimization off it executes exactly the same instruction sequence as
//! the plain interpreter — a property the differential tests pin down on
//! all six workloads.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use jvm_bytecode::{BlockId, FuncId, Intrinsic, Program};
use jvm_vm::fuse::{BlockCounts, FusionConfig, FusionPlan, FusionProfile, FusionReport};
use jvm_vm::{
    fold_checksum, run_with_hook, BlockHook, DecodedProgram, ExecStats, Flow, FrameArena, Heap,
    HeapObj, OutputItem, RunState, Value, VmError,
};
use trace_bcg::{BranchCorrelationGraph, NodeState, Signal, SignalKind};
use trace_cache::{
    run_health_epoch, BcgSnapshot, ConstructorStats, HealthStats, OutcomeRecord, TraceCache,
    TraceConstructor, TraceExecStats, TraceHealth, TraceId, TraceOutcome, TraceStore,
};
use trace_jit::{RunReport, TraceJitConfig};
use trace_persist::{program_hash, Snapshot, SnapshotError, SnapshotReader};

use crate::compile::compile;
use crate::opt::{optimize_trace, OptStats};
use crate::reg::{lower_reg, FrameImage, RBin, RInstr, RUn, RegStats, RegTrace};
use crate::shared::SharedSession;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Profiler/constructor/VM parameters (shared with the base system).
    pub jit: TraceJitConfig,
    /// Whether compiled traces are run through the peephole optimizer.
    pub optimize: bool,
    /// Whether the out-of-trace decoded streams are rewritten with
    /// profile-driven DOp superinstructions ([`jvm_vm::fuse`]) after the
    /// first run: block visits are counted during the first run and the
    /// selection is applied when it completes. Trace execution is
    /// unaffected (traces lower from source instructions); out-of-trace
    /// code then runs the fused groups on the shared interpreter loop,
    /// and side exits that resume inside a group run its unfused
    /// remainder from the shadow slots. On by default.
    pub dop_fusion: bool,
    /// Whether the lifetime trace-health subsystem runs: per-trace
    /// dispatch outcomes feed the cache's health ledger, and at every
    /// profiler decay epoch the demotion ladder retires traces whose
    /// completion behavior has rotted (see
    /// [`trace_cache::HealthLedger`]). On by default; `false` restores
    /// the fast-trigger-only behavior (entry-exit streak quarantine).
    pub health: bool,
}

impl EngineConfig {
    /// Paper parameters, optimizer off (pure trace execution), DOp
    /// fusion and trace health on.
    pub fn paper_default() -> Self {
        EngineConfig {
            jit: TraceJitConfig::paper_default(),
            optimize: false,
            dop_fusion: true,
            health: true,
        }
    }

    /// Returns this configuration with the optimizer toggled.
    pub fn with_optimizer(mut self, on: bool) -> Self {
        self.optimize = on;
        self
    }

    /// No-op: traces always run in register form and are never fused.
    /// Kept only because the frozen `e2ebench` package still calls it;
    /// the next change to that package removes it.
    pub fn with_superinstructions(self, _on: bool) -> Self {
        self
    }

    /// No-op: register-IR lowering is the only trace lowering. Kept only
    /// because the frozen `e2ebench` package still calls it; the next
    /// change to that package removes it.
    pub fn with_reg_ir(self, _on: bool) -> Self {
        self
    }

    /// Returns this configuration with decoded-stream DOp fusion toggled.
    pub fn with_dop_fusion(mut self, on: bool) -> Self {
        self.dop_fusion = on;
        self
    }

    /// Returns this configuration with the trace-health subsystem toggled.
    pub fn with_health(mut self, on: bool) -> Self {
        self.health = on;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// What a warm boot ([`TracingVm::load_snapshot`]) or an AOT replay
/// ([`TracingVm::aot_replay`]) accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmBootReport {
    /// Snapshot profile nodes merged into already-live nodes.
    pub nodes_merged: usize,
    /// Snapshot profile nodes newly created in the live profiler.
    pub nodes_created: usize,
    /// Trace objects installed from the snapshot (warm boot) or
    /// re-admitted by the constructor replay (AOT).
    pub traces_installed: usize,
    /// Entry links live in the cache after the operation.
    pub links_installed: usize,
    /// Quarantine blacklist entries restored.
    pub quarantine_restored: usize,
    /// Trace artifacts pre-built (compiled and lowered) before serving.
    pub artifacts_prebuilt: usize,
}

/// Reads virtual register `r` without a release-mode bounds check.
///
/// `lower_reg` numbers every operand below the trace's `num_regs` and
/// [`Engine::execute`] grows the register file to at least
/// that length on entry, so all register accesses are in range by
/// construction (the same argument as the interpreter's slab `slot`).
#[inline(always)]
fn rget(regs: &[Value], r: crate::reg::Reg) -> Value {
    debug_assert!((r as usize) < regs.len(), "lowered register bounds");
    // SAFETY: see above — register numbers are bounded by the lowering.
    unsafe { *regs.get_unchecked(r as usize) }
}

/// Writes virtual register `r` without a release-mode bounds check
/// (see [`rget`]).
#[inline(always)]
fn rset(regs: &mut [Value], r: crate::reg::Reg, v: Value) {
    debug_assert!((r as usize) < regs.len(), "lowered register bounds");
    // SAFETY: see `rget` — register numbers are bounded by the lowering.
    unsafe { *regs.get_unchecked_mut(r as usize) = v }
}

enum TraceRun {
    Completed,
    SideExited {
        /// The trace exited before completing even its first block — the
        /// entry guard failed immediately. A streak of these means the
        /// link serves a path the program no longer takes.
        immediate: bool,
        /// Guard site: how many blocks completed before the exit. Feeds
        /// the health ledger's per-guard side-exit histogram.
        site: u32,
    },
}

/// One private-mode trace id's compiled form, in a table indexed by
/// [`TraceId::index`]. Both terminal states are permanent: a trace id's
/// blocks never change.
#[derive(Debug, Clone, Default)]
enum ArtifactSlot {
    /// Not compiled yet.
    #[default]
    Unbuilt,
    /// Compiled and lowered.
    Built(Rc<RegTrace>),
    /// Compilation failed, or the register lowering refused it: never
    /// entered.
    Refused,
}

/// Consecutive immediate entry side-exits of the same trace before the
/// engine quarantines it: the trace costs an entry + guard evaluation
/// every dispatch and never makes progress, so it is retired and its
/// key blacklisted until the cooldown decays.
const ENTRY_EXIT_STREAK_LIMIT: u32 = 8;

/// Quarantine cooldown (refused construction attempts) applied by the
/// engine's fault triggers — corrupt artifacts and entry-exit streaks.
const QUARANTINE_COOLDOWN: u32 = 4;

/// The trace-executing VM: the decoded interpreter loop with the engine
/// (profiler + trace cache + trace compiler + guarded trace execution)
/// attached as its block hook.
#[derive(Debug)]
pub struct TracingVm<'p> {
    /// The program in decoded threaded form — the only representation the
    /// execution paths read. Read-only during a run; DOp fusion rewrites
    /// it once, when the first run completes.
    decoded: DecodedProgram,
    /// Rewrite report of the applied DOp-fusion plan, once fused.
    dop_fusion_report: Option<FusionReport>,
    // Run state, lent to the interpreter loop for each run.
    heap: Heap,
    arena: FrameArena,
    stats: ExecStats,
    checksum: u64,
    output: Vec<OutputItem>,
    /// Everything that runs at a block dispatch.
    engine: Engine<'p>,
}

/// The engine's block hook: profiler, constructor, trace cache, compiled
/// artifacts and the register-trace executor.
#[derive(Debug)]
struct Engine<'p> {
    program: &'p Program,
    config: EngineConfig,
    bcg: BranchCorrelationGraph,
    constructor: TraceConstructor,
    cache: TraceCache,
    /// Private-mode artifact table, indexed by [`TraceId::index`].
    artifacts: Vec<ArtifactSlot>,
    /// Compiled traces [`lower_reg`] refused (never entered).
    reg_refused: u64,
    opt_stats: OptStats,
    reg_stats: RegStats,
    /// Block-visit profile accumulated during the first run; input to
    /// the DOp-fusion selection (see [`jvm_vm::fuse`]).
    block_visits: BlockCounts,
    /// Whether this run counts block visits for DOp fusion.
    profile_fusion: bool,
    trace_stats: TraceExecStats,
    prev_block: Option<BlockId>,
    /// Reusable register file for register-trace execution: sized (and
    /// constant-seeded) per trace on entry, recycled across entries so
    /// the hot path never allocates.
    reg_file: Vec<Value>,
    /// Reusable signal drain buffer: the dispatch hook never allocates.
    signal_buf: Vec<Signal>,
    /// Shared-cache session, when this VM dispatches against a cache
    /// other VMs share. Signals then go to the off-thread constructor as
    /// bounded snapshots instead of being handled inline, and trace
    /// lookups/artifacts resolve through the shared cache.
    shared: Option<SharedSession>,
    /// Per-VM memo of shared-cache artifacts (`None` = trace exists but
    /// has no artifact, e.g. its chain stopped matching the program flow;
    /// both outcomes are permanent for a given id).
    shared_lowered: HashMap<TraceId, Option<Arc<RegTrace>>>,
    /// Monomorphic memo in front of `shared_lowered`: the last shared
    /// artifact that dispatched.
    hot_shared: Option<(TraceId, Arc<RegTrace>)>,
    /// `(trace id, consecutive immediate entry side-exits)` — the
    /// engine-side quarantine trigger (see [`ENTRY_EXIT_STREAK_LIMIT`]).
    entry_exit_streak: Option<(TraceId, u32)>,
    /// Dispatch outcomes accumulated since the last health flush,
    /// run-length encoded: a hot loop dispatches the same trace with the
    /// same outcome over and over, so the common case is bumping the
    /// tail counter, not pushing. Fed to the cache's health ledger in
    /// one batch at each decay epoch (and at run exit) — one ledger
    /// lookup per run, not per dispatch.
    outcome_buf: Vec<(OutcomeRecord, u64)>,
    /// The profiler decay epoch the health ladder last ran at
    /// ([`trace_bcg::BranchCorrelationGraph::decay_epoch`]).
    last_health_epoch: u64,
}

/// The engine's view of whichever cache it dispatches against — the
/// single policy path shared by private and shared modes. Takes the two
/// fields (not `&mut self`) so callers keep disjoint borrows of the
/// profiler and outcome buffer.
fn store_mut<'a>(
    shared: &'a mut Option<SharedSession>,
    cache: &'a mut TraceCache,
) -> &'a mut dyn TraceStore {
    match shared {
        Some(sess) => &mut sess.cache,
        None => cache,
    }
}

impl<'p> TracingVm<'p> {
    /// Assembles the engine for a program, running the one-time decode
    /// pass.
    pub fn new(program: &'p Program, config: EngineConfig) -> Self {
        TracingVm {
            decoded: DecodedProgram::decode(program),
            dop_fusion_report: None,
            heap: Heap::new(config.jit.vm.gc_threshold),
            arena: FrameArena::new(),
            stats: ExecStats::default(),
            checksum: 0,
            output: Vec::new(),
            engine: Engine {
                program,
                config,
                bcg: BranchCorrelationGraph::new(config.jit.bcg_config()),
                constructor: TraceConstructor::new(config.jit.constructor_config()),
                cache: TraceCache::new(),
                artifacts: Vec::new(),
                reg_refused: 0,
                opt_stats: OptStats::default(),
                reg_stats: RegStats::default(),
                block_visits: BlockCounts::for_program(program),
                profile_fusion: false,
                trace_stats: TraceExecStats::default(),
                prev_block: None,
                reg_file: Vec::new(),
                signal_buf: Vec::new(),
                shared: None,
                shared_lowered: HashMap::new(),
                hot_shared: None,
                entry_exit_streak: None,
                outcome_buf: Vec::new(),
                last_health_epoch: 0,
            },
        }
    }

    /// Assembles an engine that dispatches against a shared cache: trace
    /// lookups hit `session.cache`, and profiler signals are shipped to
    /// the session's off-thread constructor instead of being handled
    /// inline (dropped batches are deferred and re-raised by decay — see
    /// [`crate::shared`]). The session must belong to `program`.
    pub fn new_shared(program: &'p Program, config: EngineConfig, session: SharedSession) -> Self {
        let mut vm = Self::new(program, config);
        vm.engine.shared = Some(session);
        vm
    }

    /// The trace cache (shared structure with the base system).
    pub fn cache(&self) -> &TraceCache {
        &self.engine.cache
    }

    /// The shared-cache session, when running in shared mode.
    pub fn shared(&self) -> Option<&SharedSession> {
        self.engine.shared.as_ref()
    }

    /// The decoded program the engine executes from.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }

    /// Cumulative inline-constructor counters (private mode; shared-mode
    /// construction happens on the session's service thread). Lets a
    /// harness separate boot-time replay work from in-run construction.
    pub fn constructor_stats(&self) -> ConstructorStats {
        self.engine.constructor.stats()
    }

    /// Aggregated optimizer statistics over all compiled traces.
    pub fn opt_stats(&self) -> OptStats {
        self.engine.opt_stats
    }

    /// Aggregated register-lowering statistics over all compiled traces
    /// (registers allocated, stack ops eliminated, guards fused).
    pub fn reg_stats(&self) -> RegStats {
        self.engine.reg_stats
    }

    /// The artifacts compiled so far (private mode).
    fn built(&self) -> impl Iterator<Item = &RegTrace> {
        self.engine.artifacts.iter().filter_map(|s| match s {
            ArtifactSlot::Built(a) => Some(&**a),
            _ => None,
        })
    }

    /// Number of traces compiled (and lowered) so far.
    pub fn compiled_count(&self) -> usize {
        self.built().count()
    }

    /// Number of compiled traces running in register form: every built
    /// artifact is a register trace, so this equals
    /// [`Self::compiled_count`]. Kept only because the frozen `e2ebench`
    /// package still calls it; the next change to that package removes
    /// it.
    pub fn reg_lowered_count(&self) -> usize {
        self.compiled_count()
    }

    /// Number of compiled traces the register lowering refused
    /// ([`lower_reg`] returned `None`; private mode). Such traces are
    /// never entered: the loop keeps interpreting them.
    pub fn reg_refused_count(&self) -> u64 {
        self.engine.reg_refused
    }

    /// Real byte footprint of all lowered traces.
    pub fn lowered_memory(&self) -> usize {
        self.built().map(RegTrace::memory_estimate).sum()
    }

    /// Output captured from print intrinsics during the most recent run
    /// (when `jit.vm.capture_output` is enabled).
    pub fn output(&self) -> &[OutputItem] {
        &self.output
    }

    /// Execution counters of the most recent run, also after an error.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The cache policy surface this VM dispatches against.
    fn store(&self) -> &dyn TraceStore {
        match &self.engine.shared {
            Some(sess) => &sess.cache,
            None => &self.engine.cache,
        }
    }

    /// Health-ledger counters of whichever cache this VM dispatches
    /// against (private or shared) — recorded outcomes, epochs judged,
    /// probations, demotions, re-admissions under watch.
    pub fn health_stats(&self) -> HealthStats {
        self.store().health_stats()
    }

    /// Lifetime health telemetry for one tracked trace (a snapshot).
    pub fn trace_health(&self, tid: TraceId) -> Option<TraceHealth> {
        self.store().trace_health(tid)
    }

    /// Construction-service health gauges (shared mode only).
    pub fn service_health(&self) -> Option<trace_cache::ServiceHealthSnapshot> {
        self.engine
            .shared
            .as_ref()
            .map(|sess| sess.health.snapshot())
    }

    /// Machine-readable reason the runtime is running degraded, if it
    /// is: `"constructor-degraded"` when the shared construction service
    /// is permanently down (dispatch keeps interpreting, never wrong),
    /// `"health-off"` when the trace-health subsystem is disabled by
    /// configuration. `None` means fully healthy.
    pub fn degraded_reason(&self) -> Option<&'static str> {
        if let Some(sess) = &self.engine.shared {
            if sess.health.is_degraded() {
                return Some("constructor-degraded");
            }
        }
        if !self.engine.config.health {
            return Some("health-off");
        }
        None
    }

    /// Executes the program, returning the same [`RunReport`] the base
    /// system produces.
    ///
    /// # Errors
    ///
    /// Propagates runtime traps and resource limits as [`VmError`].
    pub fn run(&mut self, args: &[Value]) -> Result<RunReport, VmError> {
        // Profiler/cache/artifacts persist across runs; the run state is
        // reset by the loop.
        let e = &mut self.engine;
        e.prev_block = None;
        e.bcg.begin_stream();
        // DOp fusion profiles the first run and rewrites when it
        // completes; afterwards the streams are already fused.
        e.profile_fusion = e.config.dop_fusion && self.dop_fusion_report.is_none();

        let mut st = RunState {
            program: e.program,
            decoded: &self.decoded,
            heap: std::mem::take(&mut self.heap),
            arena: std::mem::take(&mut self.arena),
            stats: ExecStats::default(),
            checksum: 0,
            output: std::mem::take(&mut self.output),
            config: e.config.jit.vm,
        };
        let result = run_with_hook(&mut st, args, e);
        self.heap = st.heap;
        self.arena = st.arena;
        self.stats = st.stats;
        self.checksum = st.checksum;
        self.output = st.output;
        let result = result?;

        if self.engine.profile_fusion {
            self.apply_dop_fusion();
        }

        // Settle pending outcomes so health telemetry read between runs
        // reflects everything this run dispatched. The demotion epoch
        // itself only runs at decay boundaries.
        let e = &mut self.engine;
        if !e.outcome_buf.is_empty() {
            store_mut(&mut e.shared, &mut e.cache).record_outcome_runs(&e.outcome_buf);
            e.outcome_buf.clear();
        }

        Ok(RunReport {
            result,
            checksum: self.checksum,
            exec: self.stats,
            profiler: e.bcg.stats(),
            traces: e.trace_stats,
            constructor: e.constructor.stats(),
            cache: e.cache.stats(),
        })
    }

    /// Applies the profile-driven DOp-fusion selection to the decoded
    /// streams, using the block visits counted during the first run.
    /// Quickening is in place (stream length, targets and side-exit
    /// dpcs unchanged), so compiled traces and resume points stay valid.
    fn apply_dop_fusion(&mut self) {
        let visits = std::mem::take(&mut self.engine.block_visits);
        let profile = FusionProfile::collect(&self.decoded, visits);
        let plan = FusionPlan::select(profile, &FusionConfig::default());
        self.dop_fusion_report = Some(jvm_vm::fuse::apply(&mut self.decoded, &plan));
    }

    /// The DOp-fusion rewrite report: per-function candidates
    /// considered, fusions applied and estimated dispatches eliminated.
    /// `None` until the profiling (first) run completes or when
    /// `dop_fusion` is off.
    pub fn dop_fusion_report(&self) -> Option<&FusionReport> {
        self.dop_fusion_report.as_ref()
    }

    /// Serializes the VM's profile and trace-cache contents as a
    /// versioned, checksummed snapshot container (see `trace-persist`).
    /// Private mode only: in shared mode the profile/cache of record
    /// live in the session, not in this VM.
    ///
    /// # Panics
    ///
    /// Panics if the VM runs in shared-cache mode.
    pub fn snapshot(&self) -> Vec<u8> {
        let e = &self.engine;
        assert!(
            e.shared.is_none(),
            "snapshot() captures the private profile/cache; this VM is in shared mode"
        );
        Snapshot::capture(program_hash(e.program), &e.bcg, &e.cache).to_bytes()
    }

    /// Warm boot: decodes a snapshot, **merges** its profile into the
    /// live profiler (saturating counter adds; deferred decay state
    /// re-enters the lazy-decay discipline clamped to the window edge,
    /// so stale counts age out at the next slow-path visit instead of
    /// pinning predictions), restores the cache contents — budget sweep
    /// and quarantine blacklist included — and pre-builds artifacts for
    /// every restored trace.
    ///
    /// No partial state on failure: every decode and validation error
    /// surfaces before the profiler or cache is touched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on malformed, corrupt, version-skewed or stale
    /// (wrong program hash) input.
    ///
    /// # Panics
    ///
    /// Panics if the VM runs in shared-cache mode.
    pub fn load_snapshot(&mut self, bytes: &[u8]) -> Result<WarmBootReport, SnapshotError> {
        let e = &mut self.engine;
        assert!(
            e.shared.is_none(),
            "load_snapshot() targets the private profile/cache; this VM is in shared mode"
        );
        let snap = SnapshotReader::new().read(bytes, program_hash(e.program))?;
        // `merge_into` validates the profile image before mutating, and
        // the cache image was validated by the reader, so from here on
        // nothing fails.
        let merge = trace_bcg::image::merge_into(&mut e.bcg, &snap.bcg)?;
        let restore = snap.cache.restore_into(&mut e.cache)?;
        let artifacts_prebuilt = e.prebuild_artifacts(&self.decoded);
        Ok(WarmBootReport {
            nodes_merged: merge.nodes_merged,
            nodes_created: merge.nodes_created,
            traces_installed: restore.traces_installed,
            links_installed: restore.links_installed,
            quarantine_restored: restore.quarantine_restored,
            artifacts_prebuilt,
        })
    }

    /// AOT replay: decodes a snapshot, merges its profile like
    /// [`Self::load_snapshot`], but restores only the cache's
    /// **admission controls** (payload budget and quarantine blacklist)
    /// — not the trace contents. It then re-raises a hot-state signal
    /// for every traceable node and routes the batch through the live
    /// trace constructor, so every trace is re-derived and re-admitted
    /// under the current budget and blacklist before serving, exactly
    /// as it would have been built online. Artifacts are pre-built for
    /// whatever the constructor admitted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] as for [`Self::load_snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the VM runs in shared-cache mode.
    pub fn aot_replay(&mut self, bytes: &[u8]) -> Result<WarmBootReport, SnapshotError> {
        let e = &mut self.engine;
        assert!(
            e.shared.is_none(),
            "aot_replay() targets the private profile/cache; this VM is in shared mode"
        );
        let snap = SnapshotReader::new().read(bytes, program_hash(e.program))?;
        let merge = trace_bcg::image::merge_into(&mut e.bcg, &snap.bcg)?;
        e.cache.set_budget(snap.cache.budget.map(|b| b as usize));
        let mut quarantine_restored = 0;
        for q in &snap.cache.quarantine {
            e.cache
                .restore_quarantine(q.entry, q.blocks.clone(), q.cooldown);
            quarantine_restored += 1;
        }
        let signals: Vec<Signal> = e
            .bcg
            .iter()
            .filter(|(_, n)| n.state().is_traceable())
            .map(|(idx, n)| Signal {
                node: idx,
                branch: n.branch(),
                kind: SignalKind::StateChange {
                    old: NodeState::NewlyCreated,
                    new: n.state(),
                },
            })
            .collect();
        let admitted = e
            .constructor
            .handle_batch(&signals, &mut e.bcg, &mut e.cache);
        let links_installed = e.cache.iter_links().count();
        let artifacts_prebuilt = e.prebuild_artifacts(&self.decoded);
        Ok(WarmBootReport {
            nodes_merged: merge.nodes_merged,
            nodes_created: merge.nodes_created,
            traces_installed: admitted as usize,
            links_installed,
            quarantine_restored,
            artifacts_prebuilt,
        })
    }
}

impl BlockHook for Engine<'_> {
    const YIELDS: bool = true;

    /// One dispatch per basic block: profiler hook + trace entry check.
    /// Returns [`Flow::Resume`] after running a trace, [`Flow::Continue`]
    /// to fall into the block body.
    #[inline]
    fn on_block(&mut self, bid: BlockId, st: &mut RunState<'_>) -> Result<Flow, VmError> {
        if self.profile_fusion {
            self.block_visits.counts[bid.func.index()][bid.block as usize] += 1;
        }
        let node = self.bcg.observe(bid);
        self.dispatch_signals();
        if self.config.health {
            // The health ladder is synced to the profiler's decay
            // window: flush outcomes + run the demotion epoch when the
            // dispatch count crosses an epoch boundary.
            let epoch = self.bcg.decay_epoch();
            if epoch != self.last_health_epoch {
                self.last_health_epoch = epoch;
                self.flush_health_epoch();
            }
        }
        let Some(prev) = self.prev_block.replace(bid) else {
            self.trace_stats.blocks_outside += 1;
            return Ok(Flow::Continue);
        };
        let entry = (prev, bid);
        // Entry check through the BCG node's trace-link slot: a version
        // compare against the cache, no hashing. (In private mode signals
        // were just handled, so a trace built by this very dispatch is
        // immediately enterable — the slot revalidates on the version
        // bump. In shared mode the slot stamp makes the lock-free probe
        // one version compare on the steady state.)
        let tid = {
            let store = store_mut(&mut self.shared, &mut self.cache);
            match node {
                Some(n) => store.lookup_entry_cached(&mut self.bcg, n),
                None => store.lookup_entry(entry),
            }
        };
        let ran = match tid {
            Some(tid) if self.shared.is_some() => match self.shared_lowered_for(tid, entry) {
                Some(art) => Some((tid, self.execute(&art, prev, st)?)),
                None => None,
            },
            Some(tid) => match self.artifact(tid, st.decoded) {
                Some(art) => Some((tid, self.execute(&art, prev, st)?)),
                None => None,
            },
            None => None,
        };
        let Some((tid, ran)) = ran else {
            self.trace_stats.blocks_outside += 1;
            return Ok(Flow::Continue);
        };
        if self.trace_stats.first_entry_dispatch == 0 {
            // Warm-up marker: how many block dispatches this run paid
            // before the very first trace entry.
            self.trace_stats.first_entry_dispatch = st.stats.block_dispatches;
        }
        match ran {
            TraceRun::SideExited { immediate, site } => {
                self.note_outcome(tid, entry, TraceOutcome::SideExit { site });
                if immediate {
                    self.note_immediate_entry_exit(tid, entry);
                } else {
                    self.entry_exit_streak = None;
                }
            }
            TraceRun::Completed => {
                self.note_outcome(tid, entry, TraceOutcome::Completed);
                self.entry_exit_streak = None;
            }
        }
        Ok(Flow::Resume)
    }
}

impl Engine<'_> {
    /// Pre-builds artifacts for every linked trace that lacks one (see
    /// [`Self::build_artifact`]). Returns how many artifacts were built.
    fn prebuild_artifacts(&mut self, decoded: &DecodedProgram) -> usize {
        let mut tids: Vec<TraceId> = self
            .cache
            .iter_links()
            .map(|(_, trace)| trace.id())
            .collect();
        tids.sort_unstable_by_key(|t| t.index());
        tids.dedup();
        let mut built = 0;
        for tid in tids {
            if matches!(self.slot(tid), ArtifactSlot::Unbuilt)
                && self.artifact(tid, decoded).is_some()
            {
                built += 1;
            }
        }
        built
    }

    /// The artifact-table slot of `tid`, growing the table on demand.
    fn slot(&mut self, tid: TraceId) -> &mut ArtifactSlot {
        let i = tid.index();
        if i >= self.artifacts.len() {
            self.artifacts.resize(i + 1, ArtifactSlot::Unbuilt);
        }
        &mut self.artifacts[i]
    }

    /// Drains pending profiler signals and routes them: inline
    /// construction in private mode; bounded snapshot submission to the
    /// off-thread constructor in shared mode, deferring the batch back
    /// into the profiler (for decay-driven re-raise) when the queue is
    /// full. Once the construction service is permanently degraded the
    /// signals are discarded outright — no snapshot is captured, no
    /// submit attempted, and nothing is parked for a constructor that
    /// will never come back.
    #[inline]
    fn dispatch_signals(&mut self) {
        if !self.bcg.has_signals() {
            return;
        }
        self.bcg.drain_signals_into(&mut self.signal_buf);
        match &self.shared {
            None => {
                self.constructor
                    .handle_batch(&self.signal_buf, &mut self.bcg, &mut self.cache);
            }
            Some(sess) => {
                if sess.health.is_degraded() {
                    sess.health.note_degraded_discard();
                    return;
                }
                let snap =
                    BcgSnapshot::capture_bounded(&self.bcg, &self.signal_buf, sess.snapshot_limit);
                if !sess.queue.submit(snap) {
                    self.bcg.defer_signals(&self.signal_buf);
                }
            }
        }
    }

    /// Records an immediate entry side-exit of `tid`; at
    /// [`ENTRY_EXIT_STREAK_LIMIT`] consecutive occurrences the trace is
    /// quarantined — retired from the cache with its `(entry, path)` key
    /// blacklisted — so dispatch stops paying for an entry that never
    /// makes progress.
    fn note_immediate_entry_exit(&mut self, tid: TraceId, entry: trace_bcg::Branch) {
        let streak = match self.entry_exit_streak {
            Some((t, n)) if t == tid => n + 1,
            _ => 1,
        };
        if streak >= ENTRY_EXIT_STREAK_LIMIT {
            self.entry_exit_streak = None;
            store_mut(&mut self.shared, &mut self.cache).quarantine(entry, QUARANTINE_COOLDOWN);
            self.hot_shared = None;
        } else {
            self.entry_exit_streak = Some((tid, streak));
        }
    }

    /// Buffers one trace-dispatch outcome for the health ledger (no-op
    /// with health off). The buffer is run-length encoded: an outcome
    /// matching a recent record bumps that record's counter instead of
    /// pushing. The ledger's streak logic only depends on each trace's
    /// *own* outcome subsequence, so merging across records of *other*
    /// traces is sound — the backward scan stops at the first record of
    /// the same trace (its order must be preserved) and is capped at a
    /// few slots so loop nests that alternate between traces still
    /// coalesce. Flushed at epoch boundaries and run exit.
    #[inline]
    fn note_outcome(&mut self, tid: TraceId, entry: trace_bcg::Branch, outcome: TraceOutcome) {
        if self.config.health {
            let rec = OutcomeRecord {
                tid,
                entry,
                outcome,
            };
            for (slot, n) in self.outcome_buf.iter_mut().rev().take(4) {
                if slot.tid == rec.tid {
                    if *slot == rec {
                        *n += 1;
                        return;
                    }
                    break;
                }
            }
            self.outcome_buf.push((rec, 1));
        }
    }

    /// Epoch boundary: feed buffered outcomes to the health ledger and
    /// run the demotion ladder through the unified [`TraceStore`] path.
    /// Any applied demotion invalidates the shared-mode hot-artifact memo
    /// and the streak counter — the retired trace must not be served
    /// from a stale handle.
    fn flush_health_epoch(&mut self) {
        let store = store_mut(&mut self.shared, &mut self.cache);
        store.record_outcome_runs(&self.outcome_buf);
        let applied = run_health_epoch(store);
        self.outcome_buf.clear();
        if applied > 0 {
            self.hot_shared = None;
            self.entry_exit_streak = None;
        }
    }

    /// Resolves a linked private-mode trace id to its artifact through
    /// the artifact table, compiling on first use. `None` means the
    /// trace is never entered.
    #[inline]
    fn artifact(&mut self, tid: TraceId, decoded: &DecodedProgram) -> Option<Rc<RegTrace>> {
        match self.artifacts.get(tid.index()) {
            Some(ArtifactSlot::Built(art)) => return Some(Rc::clone(art)),
            Some(ArtifactSlot::Refused) => return None,
            _ => {}
        }
        let built = self.build_artifact(tid, decoded);
        *self.slot(tid) = match &built {
            Some(art) => ArtifactSlot::Built(Rc::clone(art)),
            None => ArtifactSlot::Refused,
        };
        built
    }

    /// Compiles + lowers the artifact for a linked trace: optimize (as
    /// configured), then register-lower. `None` on a compile error or a
    /// lowering refusal (counted); either way the trace is never entered.
    fn build_artifact(&mut self, tid: TraceId, decoded: &DecodedProgram) -> Option<Rc<RegTrace>> {
        let mut ct = compile(self.program, self.cache.trace(tid)).ok()?;
        if self.config.optimize {
            let s = optimize_trace(&mut ct);
            self.opt_stats.before += s.before;
            self.opt_stats.after += s.after;
            self.opt_stats.folds += s.folds;
            self.opt_stats.eliminations += s.eliminations;
            self.opt_stats.identities += s.identities;
            self.opt_stats.reductions += s.reductions;
        }
        let Some(rt) = lower_reg(self.program, decoded, &ct) else {
            self.reg_refused += 1;
            return None;
        };
        let s = rt.stats;
        self.reg_stats.before += s.before;
        self.reg_stats.after += s.after;
        self.reg_stats.regs += s.regs;
        self.reg_stats.eliminated += s.eliminated;
        self.reg_stats.guards_fused += s.guards_fused;
        Some(Rc::new(rt))
    }

    /// Shared-mode analogue of [`Self::artifact`]: resolves a
    /// shared-cache id to its published artifact through a per-VM memo.
    /// Both outcomes are permanent for a given id (the builder runs once
    /// per hash-consed chain, and ids are never reused), so the memo
    /// never revalidates.
    ///
    /// Failures surface as "no artifact" — the VM keeps interpreting. A
    /// corrupt artifact additionally quarantines the trace so every VM
    /// stops dispatching it and the constructor cools down before
    /// rebuilding the key.
    fn shared_lowered_for(
        &mut self,
        tid: TraceId,
        entry: trace_bcg::Branch,
    ) -> Option<Arc<RegTrace>> {
        if let Some((hot_tid, art)) = &self.hot_shared {
            if *hot_tid == tid {
                return Some(Arc::clone(art));
            }
        }
        if let Some(memo) = self.shared_lowered.get(&tid) {
            let art = memo.clone()?;
            self.hot_shared = Some((tid, Arc::clone(&art)));
            return Some(art);
        }
        let mut corrupt = false;
        let resolved = {
            let sess = self.shared.as_ref().expect("shared mode");
            match sess.cache.artifact_checked(tid) {
                Ok(artifact) => {
                    #[cfg(feature = "debug-invariants")]
                    if let Some(art) = &artifact {
                        assert_eq!(
                            art.src_blocks.first().copied(),
                            Some(entry.1),
                            "published artifact must start at the linked entry's target"
                        );
                    }
                    artifact
                }
                Err(trace_cache::TraceCacheError::CorruptArtifact(_)) => {
                    corrupt = true;
                    None
                }
                // Evicted (link outlived its trace by one probe) or
                // unknown: ids are never reused, so "no artifact" is
                // permanent.
                Err(_) => None,
            }
        };
        if corrupt {
            // Never execute a corrupt artifact: retire the trace for
            // everyone — through the same policy path every other
            // quarantine takes — and blacklist its key until the
            // cooldown decays.
            store_mut(&mut self.shared, &mut self.cache).quarantine(entry, QUARANTINE_COOLDOWN);
        }
        let art = self.shared_lowered.entry(tid).or_insert(resolved).clone()?;
        self.hot_shared = Some((tid, Arc::clone(&art)));
        Some(art)
    }

    /// Side-exit bookkeeping: re-anchors the top frame at the guarded
    /// instruction `dpc` of block `block` and accounts for that block's
    /// dispatch **eagerly** — the resume pc sits past the block's entry
    /// marker, so the loop will not re-fire it — in the exact order the
    /// loop would (dispatch count, observe, signal handling, prev-block
    /// update, outside-block count). The resumed block never re-enters
    /// the trace whose guard just failed: the remainder of the block
    /// runs in the loop before the next dispatch point, as in the real
    /// system.
    fn side_exit(
        &mut self,
        st: &mut RunState<'_>,
        (func, dpc, block): (FuncId, u32, u32),
        src_blocks: &[BlockId],
        pre_entry: BlockId,
        blocks_done: u32,
        instrs: u64,
    ) -> TraceRun {
        {
            let t = st.arena.top_mut();
            debug_assert_eq!(t.func, func);
            t.pc = dpc;
        }
        self.trace_stats.exited_early += 1;
        self.trace_stats.blocks_in_partial += u64::from(blocks_done);
        self.trace_stats.instrs_in_partial += instrs;
        let prev = match blocks_done {
            0 => pre_entry,
            n => src_blocks[n as usize - 1],
        };
        self.bcg.set_context(prev);
        st.stats.block_dispatches += 1;
        let bid = BlockId::new(func, block);
        let _ = self.bcg.observe(bid);
        self.dispatch_signals();
        self.prev_block = Some(bid);
        self.trace_stats.blocks_outside += 1;
        TraceRun::SideExited {
            immediate: blocks_done == 0,
            site: blocks_done,
        }
    }

    /// Completion bookkeeping: the top frame is re-anchored at the final
    /// terminator (`dpc`), which the loop executes and charges fuel for
    /// after [`Flow::Resume`]; it counts as an in-trace instruction here.
    fn complete(
        &mut self,
        st: &mut RunState<'_>,
        dpc: u32,
        src_blocks: &[BlockId],
        instrs: u64,
    ) -> TraceRun {
        st.arena.top_mut().pc = dpc;
        self.trace_stats.completed += 1;
        self.trace_stats.blocks_in_completed += src_blocks.len() as u64;
        self.trace_stats.instrs_in_completed += instrs + 1;
        let last = *src_blocks.last().expect("traces are nonempty");
        self.bcg.set_context(last);
        self.prev_block = Some(last);
        TraceRun::Completed
    }

    /// Executes one register-lowered trace, entered from block
    /// `pre_entry`, in the tight register-file loop: a flat `Vec<Value>`
    /// register frame, no per-op operand-stack bookkeeping. Fuel is
    /// charged in batches (each instruction's weight covers the stack
    /// ops folded into it), which is observationally identical to per-op
    /// ticking — see [`crate::reg`].
    fn execute(
        &mut self,
        rt: &RegTrace,
        pre_entry: BlockId,
        st: &mut RunState<'_>,
    ) -> Result<TraceRun, VmError> {
        self.trace_stats.entered += 1;
        let mut regs = std::mem::take(&mut self.reg_file);
        // The lowering is single-assignment: every non-constant register
        // is written before it is read, so stale values from an earlier
        // trace are never observable and the file only needs to grow to
        // this trace's high-water mark — no per-entry zero fill. Hot
        // short traces are entered millions of times, so this setup cost
        // is the dominant fixed overhead.
        if regs.len() < rt.num_regs as usize {
            regs.resize(rt.num_regs as usize, Value::default());
        }
        for &(r, v) in &rt.consts {
            rset(&mut regs, r, v);
        }
        let mut instrs = 0u64;
        let run = self.run_reg_trace(rt, pre_entry, st, &mut regs, &mut instrs);
        self.reg_file = regs;
        // Fuel is counted against a local budget inside the trace and
        // folded into the run-wide counter here, on every way out, traps
        // included. Nothing the trace reaches reads the counter.
        if matches!(run, Err(VmError::OutOfFuel)) {
            // Saturate exactly where per-op ticking would stop.
            st.stats.instructions = st.config.max_steps;
        } else {
            st.stats.instructions += instrs;
        }
        run
    }

    /// The register-file loop of [`Self::execute`]; `instrs`
    /// counts the source instructions executed.
    fn run_reg_trace(
        &mut self,
        rt: &RegTrace,
        pre_entry: BlockId,
        st: &mut RunState<'_>,
        regs: &mut [Value],
        instrs: &mut u64,
    ) -> Result<TraceRun, VmError> {
        let budget = st.config.max_steps - st.stats.instructions;
        // Slab index of the current frame's first local.
        let mut base = st.arena.top().base as usize;

        macro_rules! tick_n {
            ($n:expr) => {{
                let n = $n as u64;
                if n > budget - *instrs {
                    return Err(VmError::OutOfFuel);
                }
                *instrs += n;
            }};
        }
        // A guard whose operands trap: the branch or call it guards
        // would have been charged before trapping.
        macro_rules! guard_trap {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => {
                        tick_n!(1u32);
                        return Err(e);
                    }
                }
            };
        }
        macro_rules! reg_exit {
            ($idx:expr) => {{
                let exit = &rt.exits[$idx as usize];
                materialize(&mut st.arena, &rt.images[exit.image as usize], regs);
                let site = (exit.func, exit.dpc, exit.block);
                let (src, done) = (&rt.src_blocks, exit.blocks_done);
                return Ok(self.side_exit(st, site, src, pre_entry, done, *instrs));
            }};
        }
        macro_rules! bin_i {
            ($a:expr, $b:expr, $f:expr) => {{
                // Type errors surface in interpreter pop order: right
                // operand first.
                let vb = rget(regs, $b).as_int()?;
                let va = rget(regs, $a).as_int()?;
                Value::Int($f(va, vb))
            }};
        }
        macro_rules! bin_f {
            ($a:expr, $b:expr, $f:expr) => {{
                let vb = rget(regs, $b).as_float()?;
                let va = rget(regs, $a).as_float()?;
                Value::Float($f(va, vb))
            }};
        }
        macro_rules! un_f {
            ($a:expr, $f:expr) => {
                Value::Float($f(rget(regs, $a).as_float()?))
            };
        }

        for t in rt.code.iter() {
            match t {
                RInstr::PullStack { dst } => {
                    // Pure data movement from the real entry stack; no
                    // source instruction, no fuel.
                    let top = st.arena.top_mut();
                    debug_assert!(top.sp > top.stack_base, "lowering tracked the entry stack");
                    top.sp -= 1;
                    let i = top.sp as usize;
                    rset(regs, *dst, st.arena.slab[i]);
                }
                RInstr::LoadLocal { slot, dst, w } => {
                    tick_n!(*w);
                    rset(regs, *dst, st.arena.slab[base + *slot as usize]);
                }
                RInstr::IncLocal { slot, dst, imm, w } => {
                    tick_n!(*w);
                    let v = st.arena.slab[base + *slot as usize].as_int()?;
                    rset(regs, *dst, Value::Int(v.wrapping_add(*imm as i64)));
                }
                RInstr::IncReg { src, dst, imm, w } => {
                    tick_n!(*w);
                    let v = rget(regs, *src).as_int()?;
                    rset(regs, *dst, Value::Int(v.wrapping_add(*imm as i64)));
                }
                RInstr::Bin { op, a, b, dst, w } => {
                    tick_n!(*w);
                    let v = match op {
                        RBin::IAdd => bin_i!(*a, *b, |x: i64, y: i64| x.wrapping_add(y)),
                        RBin::ISub => bin_i!(*a, *b, |x: i64, y: i64| x.wrapping_sub(y)),
                        RBin::IMul => bin_i!(*a, *b, |x: i64, y: i64| x.wrapping_mul(y)),
                        RBin::IDiv | RBin::IRem => {
                            let vb = rget(regs, *b).as_int()?;
                            let va = rget(regs, *a).as_int()?;
                            if vb == 0 {
                                return Err(VmError::DivisionByZero);
                            }
                            Value::Int(if *op == RBin::IDiv {
                                va.wrapping_div(vb)
                            } else {
                                va.wrapping_rem(vb)
                            })
                        }
                        RBin::IShl => {
                            bin_i!(*a, *b, |x: i64, y: i64| x.wrapping_shl(y as u32 & 63))
                        }
                        RBin::IShr => {
                            bin_i!(*a, *b, |x: i64, y: i64| x.wrapping_shr(y as u32 & 63))
                        }
                        RBin::IUShr => {
                            bin_i!(*a, *b, |x: i64, y: i64| ((x as u64) >> (y as u32 & 63))
                                as i64)
                        }
                        RBin::IAnd => bin_i!(*a, *b, |x: i64, y: i64| x & y),
                        RBin::IOr => bin_i!(*a, *b, |x: i64, y: i64| x | y),
                        RBin::IXor => bin_i!(*a, *b, |x: i64, y: i64| x ^ y),
                        RBin::FAdd => bin_f!(*a, *b, |x: f64, y: f64| x + y),
                        RBin::FSub => bin_f!(*a, *b, |x: f64, y: f64| x - y),
                        RBin::FMul => bin_f!(*a, *b, |x: f64, y: f64| x * y),
                        RBin::FDiv => bin_f!(*a, *b, |x: f64, y: f64| x / y),
                    };
                    rset(regs, *dst, v);
                }
                RInstr::Un { op, a, dst, w } => {
                    tick_n!(*w);
                    let v = match op {
                        RUn::INeg => Value::Int(rget(regs, *a).as_int()?.wrapping_neg()),
                        RUn::FNeg => Value::Float(-rget(regs, *a).as_float()?),
                        RUn::I2F => Value::Float(rget(regs, *a).as_int()? as f64),
                        RUn::F2I => Value::Int(rget(regs, *a).as_float()? as i64),
                    };
                    rset(regs, *dst, v);
                }
                RInstr::Intrinsic { i, a, b, dst, w } => {
                    tick_n!(*w);
                    let v = match i {
                        Intrinsic::Sqrt => un_f!(*a, f64::sqrt),
                        Intrinsic::Sin => un_f!(*a, f64::sin),
                        Intrinsic::Cos => un_f!(*a, f64::cos),
                        Intrinsic::Exp => un_f!(*a, f64::exp),
                        Intrinsic::Log => un_f!(*a, f64::ln),
                        Intrinsic::AbsF => un_f!(*a, f64::abs),
                        Intrinsic::AbsI => Value::Int(rget(regs, *a).as_int()?.wrapping_abs()),
                        Intrinsic::MinI => bin_i!(*a, *b, |x: i64, y: i64| x.min(y)),
                        Intrinsic::MaxI => bin_i!(*a, *b, |x: i64, y: i64| x.max(y)),
                        Intrinsic::PrintInt => {
                            let v = rget(regs, *a).as_int()?;
                            if st.config.capture_output {
                                st.output.push(OutputItem::Int(v));
                            }
                            continue;
                        }
                        Intrinsic::PrintFloat => {
                            let v = rget(regs, *a).as_float()?;
                            if st.config.capture_output {
                                st.output.push(OutputItem::Float(v));
                            }
                            continue;
                        }
                        Intrinsic::Checksum => {
                            let v = rget(regs, *a).as_int()?;
                            st.checksum = fold_checksum(st.checksum, v);
                            continue;
                        }
                    };
                    rset(regs, *dst, v);
                }
                RInstr::GetField { obj, field, dst, w } => {
                    tick_n!(*w);
                    let o = rget(regs, *obj).as_ref_id()?;
                    match st.heap.get(o) {
                        HeapObj::Object { fields, .. } => {
                            let v = *fields.get(*field as usize).ok_or(VmError::BadField {
                                field: *field,
                                num_fields: fields.len() as u16,
                            })?;
                            rset(regs, *dst, v);
                        }
                        HeapObj::Array { .. } => {
                            return Err(VmError::TypeError {
                                expected: "object",
                                found: "array",
                            })
                        }
                    }
                }
                RInstr::PutField { obj, val, field, w } => {
                    tick_n!(*w);
                    let o = rget(regs, *obj).as_ref_id()?;
                    let v = rget(regs, *val);
                    match st.heap.get_mut(o) {
                        HeapObj::Object { fields, .. } => {
                            let len = fields.len();
                            *fields.get_mut(*field as usize).ok_or(VmError::BadField {
                                field: *field,
                                num_fields: len as u16,
                            })? = v;
                        }
                        HeapObj::Array { .. } => {
                            return Err(VmError::TypeError {
                                expected: "object",
                                found: "array",
                            })
                        }
                    }
                }
                RInstr::ALoad { arr, idx, dst, w } => {
                    tick_n!(*w);
                    let iv = rget(regs, *idx).as_int()?;
                    let av = rget(regs, *arr).as_ref_id()?;
                    rset(regs, *dst, array_elem(&st.heap, av, iv)?);
                }
                RInstr::AStore { arr, idx, val, w } => {
                    tick_n!(*w);
                    let v = rget(regs, *val);
                    let iv = rget(regs, *idx).as_int()?;
                    let av = rget(regs, *arr).as_ref_id()?;
                    *array_elem_mut(&mut st.heap, av, iv)? = v;
                }
                RInstr::ArrayLen { arr, dst, w } => {
                    tick_n!(*w);
                    let av = rget(regs, *arr).as_ref_id()?;
                    match st.heap.get(av) {
                        HeapObj::Array { elems } => {
                            rset(regs, *dst, Value::Int(elems.len() as i64));
                        }
                        HeapObj::Object { .. } => {
                            return Err(VmError::TypeError {
                                expected: "array",
                                found: "object",
                            })
                        }
                    }
                }
                RInstr::NewObj {
                    class,
                    nfields,
                    dst,
                    image,
                    w,
                } => {
                    tick_n!(*w);
                    // Root every live register through the real frame,
                    // collect, then pull the stack back (the values stay
                    // in registers).
                    let img = &rt.images[*image as usize];
                    materialize(&mut st.arena, img, regs);
                    maybe_collect(st);
                    let r = st.heap.alloc_object(*class, *nfields);
                    truncate_to_image(&mut st.arena, img);
                    rset(regs, *dst, Value::Ref(r));
                }
                RInstr::NewArray { len, dst, image, w } => {
                    tick_n!(*w);
                    // The interpreter pops the length before collecting.
                    let lv = rget(regs, *len).as_int()?;
                    let img = &rt.images[*image as usize];
                    materialize(&mut st.arena, img, regs);
                    maybe_collect(st);
                    let r = st.heap.alloc_array(lv)?;
                    truncate_to_image(&mut st.arena, img);
                    rset(regs, *dst, Value::Ref(r));
                }
                RInstr::GuardCond {
                    kind,
                    a,
                    b,
                    expected_taken,
                    exit,
                    pre,
                } => {
                    tick_n!(*pre);
                    let taken = guard_trap!(kind.taken(rget(regs, *a), rget(regs, *b)));
                    if taken != *expected_taken {
                        reg_exit!(*exit);
                    }
                    tick_n!(1u32);
                    st.stats.branches += 1;
                    if taken {
                        st.stats.taken_branches += 1;
                    }
                }
                RInstr::GuardSwitch {
                    low,
                    targets,
                    default,
                    expected,
                    selector,
                    exit,
                    pre,
                } => {
                    tick_n!(*pre);
                    let v = guard_trap!(rget(regs, *selector).as_int());
                    let idx = v.wrapping_sub(*low);
                    let actual = if idx >= 0 && (idx as usize) < targets.len() {
                        targets[idx as usize]
                    } else {
                        *default
                    };
                    if actual != *expected {
                        reg_exit!(*exit);
                    }
                    tick_n!(1u32);
                    st.stats.branches += 1;
                    st.stats.taken_branches += 1;
                }
                RInstr::EnterStatic {
                    callee,
                    ret,
                    image,
                    w,
                } => {
                    tick_n!(*w);
                    // Arguments cross the real stack: materialize, then
                    // let the frame push consume them.
                    materialize(&mut st.arena, &rt.images[*image as usize], regs);
                    st.arena.top_mut().pc = *ret;
                    enter_call(st, *callee)?;
                    base = st.arena.top().base as usize;
                }
                RInstr::GuardVirtual {
                    slot,
                    argc: _,
                    recv,
                    expected,
                    ret,
                    exit,
                    pre,
                } => {
                    tick_n!(*pre);
                    let rid = guard_trap!(rget(regs, *recv).as_ref_id());
                    let callee = guard_trap!(resolve_virtual(st, rid, *slot));
                    if callee != *expected {
                        reg_exit!(*exit);
                    }
                    tick_n!(1u32);
                    st.stats.virtual_calls += 1;
                    // The exit's image doubles as the call
                    // materialization: both need the full frame.
                    let img_idx = rt.exits[*exit as usize].image;
                    materialize(&mut st.arena, &rt.images[img_idx as usize], regs);
                    st.arena.top_mut().pc = *ret;
                    enter_call(st, callee)?;
                    base = st.arena.top().base as usize;
                }
                RInstr::RetStatic { w } => {
                    tick_n!(*w);
                    st.stats.returns += 1;
                    // The return value (if any) lives in a register; the
                    // callee frame just goes away.
                    st.arena.pop_frame();
                    base = st.arena.top().base as usize;
                }
                RInstr::GuardReturn {
                    has_value,
                    retval,
                    expected,
                    exit,
                    pre,
                } => {
                    tick_n!(*pre);
                    if !returns_to(st, *expected) {
                        reg_exit!(*exit);
                    }
                    tick_n!(1u32);
                    st.stats.returns += 1;
                    st.arena.pop_frame();
                    if *has_value {
                        push_real(&mut st.arena, rget(regs, *retval));
                    }
                    base = st.arena.top().base as usize;
                }
                RInstr::Finish { exit, pre } => {
                    tick_n!(*pre);
                    let e = &rt.exits[*exit as usize];
                    materialize(&mut st.arena, &rt.images[e.image as usize], regs);
                    return Ok(self.complete(st, e.dpc, &rt.src_blocks, *instrs));
                }
            }
        }
        unreachable!("compiled traces end in Finish")
    }
}

/// Writes a frame image back into the top frame: dirty locals first, then
/// the register stack on top of the frame's real prefix. Used at side
/// exits (full deopt), calls (arguments cross the real stack),
/// allocations (collection roots) and completion.
#[inline]
fn materialize(arena: &mut FrameArena, image: &FrameImage, regs: &[Value]) {
    let t = arena.frames.last_mut().expect("frame exists");
    for &(slot, r) in image.dirty.iter() {
        arena.slab[t.base as usize + slot as usize] = rget(regs, r);
    }
    debug_assert_eq!(
        t.sp,
        t.stack_base + image.base,
        "real stack prefix must match the lowering's model"
    );
    let sp = t.sp as usize;
    for (i, &r) in image.stack.iter().enumerate() {
        arena.slab[sp + i] = rget(regs, r);
    }
    t.sp += image.stack.len() as u32;
    debug_assert!(t.sp <= t.limit, "verified max_stack bound");
}

/// Drops the register stack [`materialize`] pushed for `image`.
#[inline]
fn truncate_to_image(arena: &mut FrameArena, image: &FrameImage) {
    let t = arena.top_mut();
    t.sp = t.stack_base + image.base;
}

/// Pushes `v` onto the top frame's real operand stack.
#[inline]
fn push_real(arena: &mut FrameArena, v: Value) {
    let t = arena.frames.last_mut().expect("frame exists");
    debug_assert!(t.sp < t.limit, "verified max_stack bound");
    arena.slab[t.sp as usize] = v;
    t.sp += 1;
}

/// Collects if the heap asks for it; the frames' live regions are the
/// roots (top-frame `sp` must be flushed).
#[inline]
fn maybe_collect(st: &mut RunState<'_>) {
    if st.heap.should_collect() {
        st.heap.collect(st.arena.roots());
    }
}

/// Pushes an in-trace callee frame. The trace absorbs the callee's
/// entry dispatch, so the callee starts past its entry marker. The
/// caller's continuation `pc` and `sp` must already be flushed.
fn enter_call(st: &mut RunState<'_>, callee: FuncId) -> Result<(), VmError> {
    if st.arena.depth() >= st.config.max_frames {
        return Err(VmError::CallStackOverflow);
    }
    st.stats.calls += 1;
    let df = st.decoded.func(callee);
    let argc = u32::from(df.num_params);
    st.arena
        .push_call(callee, u32::from(df.num_locals), df.frame_size, argc);
    st.arena.top_mut().pc = 1;
    st.stats.max_frame_depth = st.stats.max_frame_depth.max(st.arena.depth());
    Ok(())
}

/// Resolves vtable `slot` on receiver `recv`.
fn resolve_virtual(st: &RunState<'_>, recv: jvm_vm::RefId, slot: u16) -> Result<FuncId, VmError> {
    match st.heap.get(recv) {
        HeapObj::Object { class, .. } => Ok(st.program.class(*class).resolve(slot)),
        HeapObj::Array { .. } => Err(VmError::TypeError {
            expected: "object receiver",
            found: "array",
        }),
    }
}

/// Whether returning from the top frame lands in block `expected`: the
/// caller's saved `pc` names the continuation. Returning from the
/// outermost frame ends the program, which only the loop may do.
fn returns_to(st: &RunState<'_>, expected: BlockId) -> bool {
    let frames = &st.arena.frames;
    let Some(caller) = frames.len().checked_sub(2).map(|i| frames[i]) else {
        return false;
    };
    let block = st.decoded.func(caller.func).block_of[caller.pc as usize];
    BlockId::new(caller.func, block) == expected
}

/// The array element `arr[idx]`, with the interpreter's trap order.
fn array_elem(heap: &Heap, arr: jvm_vm::RefId, idx: i64) -> Result<Value, VmError> {
    match heap.get(arr) {
        HeapObj::Array { elems } => elems
            .get(usize::try_from(idx).unwrap_or(usize::MAX))
            .copied()
            .ok_or(VmError::IndexOutOfBounds {
                index: idx,
                len: elems.len(),
            }),
        HeapObj::Object { .. } => Err(VmError::TypeError {
            expected: "array",
            found: "object",
        }),
    }
}

/// The array element slot `arr[idx]`, with the interpreter's trap order.
fn array_elem_mut(heap: &mut Heap, arr: jvm_vm::RefId, idx: i64) -> Result<&mut Value, VmError> {
    match heap.get_mut(arr) {
        HeapObj::Array { elems } => {
            let len = elems.len();
            elems
                .get_mut(usize::try_from(idx).unwrap_or(usize::MAX))
                .ok_or(VmError::IndexOutOfBounds { index: idx, len })
        }
        HeapObj::Object { .. } => Err(VmError::TypeError {
            expected: "array",
            found: "object",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::{CmpOp, ProgramBuilder};
    use jvm_vm::{NullObserver, Vm};

    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        b.load(acc).load(0).iadd().store(acc);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        pb.build(f).unwrap()
    }

    #[test]
    fn engine_matches_interpreter_on_hot_loop() {
        let program = loop_program();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(20_000)], &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(20_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(engine.compiled_count() > 0, "traces must actually compile");
        assert!(report.traces.entered > 0);
        assert!(report.traces.completed > 0);
    }

    #[test]
    fn engine_dispatches_far_less_than_interpreter() {
        let program = loop_program();
        let mut plain = Vm::new(&program);
        plain.run(&[Value::Int(20_000)], &mut NullObserver).unwrap();

        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(20_000)]).unwrap();
        assert!(
            report.exec.block_dispatches * 2 < plain.stats().block_dispatches,
            "engine {} vs interpreter {}",
            report.exec.block_dispatches,
            plain.stats().block_dispatches
        );
    }

    #[test]
    fn side_exits_preserve_semantics() {
        // A loop whose branch flips behaviour part-way: traces built in
        // phase 1 must side-exit cleanly in phase 2.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        let second = b.new_label();
        let cont = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        // if i < 5000: acc += 1 else acc += 2  (phase change at 5000)
        b.load(0).iconst(5000).if_icmp(CmpOp::Lt, second);
        b.load(acc).iconst(2).iadd().store(acc).goto(cont);
        b.bind(second);
        b.load(acc).iconst(1).iadd().store(acc);
        b.bind(cont);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        let program = pb.build(f).unwrap();

        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(10_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(
            report.traces.exited_early > 0,
            "phase change must cause side exits"
        );
    }

    #[test]
    fn optimizer_reduces_executed_instructions() {
        // A hot loop with foldable constant arithmetic in the body.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        let acc = b.alloc_local();
        b.iconst(0).store(acc);
        let head = b.bind_new_label();
        let exit = b.new_label();
        b.load(0).if_i(CmpOp::Le, exit);
        // acc += (3*4) + i*1 + 0   — plenty to fold.
        b.load(acc)
            .iconst(3)
            .iconst(4)
            .imul()
            .iadd()
            .load(0)
            .iconst(1)
            .imul()
            .iadd()
            .iconst(0)
            .iadd()
            .store(acc);
        b.iinc(0, -1).goto(head);
        b.bind(exit);
        b.load(acc).ret();
        let program = pb.build(f).unwrap();

        let mut base = TracingVm::new(&program, EngineConfig::paper_default());
        let r0 = base.run(&[Value::Int(20_000)]).unwrap();
        let mut opt = TracingVm::new(&program, EngineConfig::paper_default().with_optimizer(true));
        let r1 = opt.run(&[Value::Int(20_000)]).unwrap();

        assert_eq!(r0.result, r1.result, "optimizer must preserve semantics");
        assert!(
            r1.exec.instructions < r0.exec.instructions,
            "optimized {} vs baseline {}",
            r1.exec.instructions,
            r0.exec.instructions
        );
        let s = opt.opt_stats();
        assert!(s.folds + s.identities + s.eliminations + s.reductions > 0);
        assert!(s.savings() > 0.0);
    }

    #[test]
    fn engine_handles_calls_and_virtual_dispatch() {
        let mut pb = ProgramBuilder::new();
        let am = pb.declare_function("A.step", 2, true);
        pb.function_mut(am).load(1).iconst(1).iadd().ret();
        let bm = pb.declare_function("B.step", 2, true);
        pb.function_mut(bm).load(1).iconst(2).iadd().ret();
        let f = pb.declare_function("main", 1, true);
        let a = pb.declare_class("A", None, 0);
        let slot = pb.add_method(a, am);
        let bclass = pb.declare_class("B", Some(a), 0);
        pb.override_method(bclass, slot, bm);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            let obj = b.alloc_local();
            b.new_obj(a).store(obj);
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.load(obj).load(acc).invoke_virtual(slot, 2).store(acc);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(10_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(report.traces.completed > 0, "call-crossing traces must run");
    }

    #[test]
    fn engine_is_reusable_and_warm_cache_helps() {
        let program = loop_program();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let r1 = engine.run(&[Value::Int(5_000)]).unwrap();
        let r2 = engine.run(&[Value::Int(5_000)]).unwrap();
        assert_eq!(r1.result, r2.result);
        // Second run starts with a warm cache: at least as many trace
        // entries in the same instruction budget.
        assert!(r2.traces.entered >= r1.traces.entered);
    }

    #[test]
    fn switch_guards_pass_and_side_exit() {
        // A loop whose switch selector is 2 for the first phase and 0 for
        // the second: traces learn the first arm, then must side-exit.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            let c0 = b.new_label();
            let c1 = b.new_label();
            let c2 = b.new_label();
            let cont = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            // selector = (i >= 5000) ? 2 : 0
            let hi = b.new_label();
            let sw = b.new_label();
            b.load(0).iconst(5000).if_icmp(CmpOp::Ge, hi);
            b.iconst(0).goto(sw);
            b.bind(hi);
            b.iconst(2);
            b.bind(sw);
            b.table_switch(0, &[c0, c1, c2], c1);
            b.bind(c0);
            b.load(acc).iconst(1).iadd().store(acc).goto(cont);
            b.bind(c1);
            b.load(acc).iconst(10).iadd().store(acc).goto(cont);
            b.bind(c2);
            b.load(acc).iconst(100).iadd().store(acc);
            b.bind(cont);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(10_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
        assert!(report.traces.completed > 0, "switch traces must complete");
        assert!(
            report.traces.exited_early > 0,
            "selector phase change must side-exit a switch guard"
        );
    }

    #[test]
    fn virtual_guard_side_exits_on_megamorphic_site() {
        // Receiver class alternates every iteration: a trace recorded for
        // one class must side-exit when the other arrives.
        let mut pb = ProgramBuilder::new();
        let am = pb.declare_function("A.v", 1, true);
        pb.function_mut(am).iconst(1).ret();
        let bm = pb.declare_function("B.v", 1, true);
        pb.function_mut(bm).iconst(2).ret();
        let f = pb.declare_function("main", 1, true);
        let a = pb.declare_class("A", None, 0);
        let slot = pb.add_method(a, am);
        let bc = pb.declare_class("B", Some(a), 0);
        pb.override_method(bc, slot, bm);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            let oa = b.alloc_local();
            let ob = b.alloc_local();
            b.new_obj(a).store(oa);
            b.new_obj(bc).store(ob);
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            let use_b = b.new_label();
            let call = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.load(0).iconst(1).iand().if_i(CmpOp::Ne, use_b);
            b.load(oa).goto(call);
            b.bind(use_b);
            b.load(ob);
            b.bind(call);
            b.invoke_virtual(slot, 1).load(acc).iadd().store(acc);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(5_000)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        let report = engine.run(&[Value::Int(5_000)]).unwrap();
        assert_eq!(report.result, want);
        assert_eq!(report.exec.instructions, plain.stats().instructions);
    }

    #[test]
    fn runtime_traps_inside_traces_propagate() {
        // Division by a loop-carried value that reaches zero: the trap
        // fires inside a hot (traced) loop and must surface identically.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        {
            let b = pb.function_mut(f);
            let acc = b.alloc_local();
            b.iconst(0).store(acc);
            let head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).iconst(-5000).if_icmp(CmpOp::Le, exit);
            b.load(acc).iconst(1000).load(0).idiv().iadd().store(acc);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.load(acc).ret();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        let want = plain.run(&[Value::Int(10_000)], &mut NullObserver);
        assert_eq!(want, Err(VmError::DivisionByZero));
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        assert_eq!(
            engine.run(&[Value::Int(10_000)]),
            Err(VmError::DivisionByZero)
        );
    }

    #[test]
    fn print_output_matches_interpreter_through_traces() {
        // Prints inside a hot (traced) loop must appear identically, in
        // order, from the engine's intrinsic handling.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, false);
        {
            let b = pb.function_mut(f);
            let head = b.bind_new_label();
            let exit = b.new_label();
            b.load(0).if_i(CmpOp::Le, exit);
            b.load(0).intrinsic(jvm_bytecode::Intrinsic::PrintInt);
            b.iinc(0, -1).goto(head);
            b.bind(exit);
            b.ret_void();
        }
        let program = pb.build(f).unwrap();
        let mut plain = Vm::new(&program);
        plain.run(&[Value::Int(500)], &mut NullObserver).unwrap();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        engine.run(&[Value::Int(500)]).unwrap();
        assert_eq!(engine.output(), plain.output());
        assert_eq!(engine.output().len(), 500);
    }

    #[test]
    fn fuel_limit_applies_inside_traces() {
        let program = loop_program();
        let mut cfg = EngineConfig::paper_default();
        cfg.jit.vm.max_steps = 50_000;
        let mut engine = TracingVm::new(&program, cfg);
        assert_eq!(
            engine.run(&[Value::Int(1_000_000)]),
            Err(VmError::OutOfFuel)
        );
    }

    #[test]
    fn lowered_traces_report_memory_and_share_pools() {
        let program = loop_program();
        let mut engine = TracingVm::new(&program, EngineConfig::paper_default());
        engine.run(&[Value::Int(20_000)]).unwrap();
        assert!(engine.compiled_count() > 0);
        assert!(engine.lowered_memory() > 0);
        // Trace lowering reuses the program pools; the tiny loop adds no
        // novel constants without the optimizer.
        assert!(engine.decoded().iconsts.len() < 16);
    }

    #[test]
    fn warm_boot_prebuilds_and_preserves_semantics() {
        let program = loop_program();
        let mut warm = TracingVm::new(&program, EngineConfig::paper_default());
        let want = warm.run(&[Value::Int(20_000)]).unwrap();
        assert!(warm.compiled_count() > 0);
        let bytes = warm.snapshot();

        let mut booted = TracingVm::new(&program, EngineConfig::paper_default());
        let report = booted.load_snapshot(&bytes).unwrap();
        assert!(report.nodes_created > 0, "fresh VM: every node is new");
        assert_eq!(report.nodes_merged, 0);
        assert!(report.links_installed > 0);
        assert!(
            report.artifacts_prebuilt > 0,
            "restored traces must pre-lower against the frozen decoded program"
        );
        let got = booted.run(&[Value::Int(20_000)]).unwrap();
        assert_eq!(got.result, want.result);
        assert_eq!(got.checksum, want.checksum);
        assert_eq!(got.exec.instructions, want.exec.instructions);
        // The warm boot pays measurably less warm-up: its first trace
        // entry lands earlier in the dispatch stream than cold start's.
        assert!(got.traces.first_entry_dispatch > 0);
        assert!(
            got.traces.first_entry_dispatch < want.traces.first_entry_dispatch,
            "warm {} vs cold {}",
            got.traces.first_entry_dispatch,
            want.traces.first_entry_dispatch
        );
        // A snapshot of a freshly booted VM round-trips canonically:
        // boot → snapshot → boot → snapshot is byte-identical.
        let mut v1 = TracingVm::new(&program, EngineConfig::paper_default());
        v1.load_snapshot(&bytes).unwrap();
        let rebytes = v1.snapshot();
        let mut v2 = TracingVm::new(&program, EngineConfig::paper_default());
        v2.load_snapshot(&rebytes).unwrap();
        assert_eq!(rebytes, v2.snapshot());
    }

    #[test]
    fn aot_replay_rebuilds_traces_through_the_constructor() {
        let program = loop_program();
        let mut warm = TracingVm::new(&program, EngineConfig::paper_default());
        let want = warm.run(&[Value::Int(20_000)]).unwrap();
        let bytes = warm.snapshot();

        let mut aot = TracingVm::new(&program, EngineConfig::paper_default());
        let report = aot.aot_replay(&bytes).unwrap();
        assert!(
            report.traces_installed > 0,
            "constructor replay must re-admit traces from the merged profile"
        );
        assert!(report.links_installed > 0);
        assert!(report.artifacts_prebuilt > 0);
        let got = aot.run(&[Value::Int(20_000)]).unwrap();
        assert_eq!(got.result, want.result);
        assert_eq!(got.checksum, want.checksum);
        assert_eq!(got.exec.instructions, want.exec.instructions);
        assert!(got.traces.first_entry_dispatch < want.traces.first_entry_dispatch);
    }

    #[test]
    fn stale_and_corrupt_snapshots_are_rejected_without_state_change() {
        let program = loop_program();
        let mut warm = TracingVm::new(&program, EngineConfig::paper_default());
        warm.run(&[Value::Int(20_000)]).unwrap();
        let bytes = warm.snapshot();

        // Same shape, different constant: a different program hash.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 1, true);
        let b = pb.function_mut(f);
        b.iconst(42).ret();
        let other = pb.build(f).unwrap();
        let mut vm = TracingVm::new(&other, EngineConfig::paper_default());
        assert!(matches!(
            vm.load_snapshot(&bytes),
            Err(SnapshotError::StaleProgram { .. })
        ));
        assert_eq!(vm.cache().trace_count(), 0);

        // A flipped payload byte fails the section CRC and leaves the
        // target untouched.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let mut vm = TracingVm::new(&program, EngineConfig::paper_default());
        assert!(vm.load_snapshot(&corrupt).is_err());
        assert_eq!(vm.cache().trace_count(), 0);
        assert_eq!(vm.compiled_count(), 0);
    }
}
