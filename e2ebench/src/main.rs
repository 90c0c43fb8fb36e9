//! End-to-end cost ledger for the trace-cache engine.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload javac-warm --seed 7 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, a closed loop with one client. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` runs the
//! per-layer breakdown with spans on. Human-readable lines go first, a
//! detailed record is written under `out/` next to this package's
//! manifest, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod check;
mod e2e;
mod layers;
mod spans;
mod stats;
mod tiers;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use trace_workloads::registry::Scale;

use check::{Input, Ledger, STREAM_LEN};
use stats::Summary;

/// How a workload's operation treats the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One run of an engine already warmed by this many runs.
    Warm { runs: usize },
    /// A fresh engine plus one run.
    Cold,
}

impl Mode {
    /// Untimed runs before the first timed operation.
    pub fn warmup_runs(self) -> usize {
        match self {
            Mode::Warm { runs } => runs,
            Mode::Cold => 0,
        }
    }
}

/// A benchmark workload: a registry program and how it is driven.
pub struct Spec {
    pub name: &'static str,
    pub program: &'static str,
    pub scale: Scale,
    pub mode: Mode,
}

/// Warm workloads are timed in steady state. A warm engine's trace set
/// changes at run 64: a branch taken once per run leaves the profiler's
/// start state after `start_delay` (64) executions and only then becomes
/// traceable. Serving a stream of inputs, it settles by run 128.
const WARM: Mode = Mode::Warm { runs: 130 };

pub const SPECS: [Spec; 3] = [
    // Trace entries dominate: almost every dispatch enters a trace.
    Spec {
        name: "mpegaudio-warm",
        program: "mpegaudio",
        scale: Scale::Test,
        mode: WARM,
    },
    // Out-of-trace interpretation dominates: most dispatches run outside traces.
    Spec {
        name: "javac-warm",
        program: "javac",
        scale: Scale::Test,
        mode: WARM,
    },
    // The write side of the cache: every operation constructs, compiles and links.
    Spec {
        name: "soot-cold",
        program: "soot",
        scale: Scale::Small,
        mode: Mode::Cold,
    },
];

struct Args {
    workload: &'static Spec,
    seed: Option<i64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                let spec = SPECS.iter().find(|s| s.name == value);
                workload = Some(spec.ok_or(bad(&format!("one of {names:?}")))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("whole seconds"))?;
                if !(1..=600).contains(&seconds) {
                    return Err(bad("1 to 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit, direction, and its sample
/// summary when it is a timing.
struct Line {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
    summary: Option<Summary>,
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn summary_json(s: &Summary) -> String {
    let tail = s.tail.map_or("null".to_string(), |(k, v)| {
        format!("{{\"percentile\": {k}, \"value\": {}}}", json_num(v))
    });
    format!(
        "{{\"n\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}, \"tail\": {tail}}}",
        s.n,
        json_num(s.p25),
        json_num(s.median),
        json_num(s.p75)
    )
}

fn e2e_lines(r: &e2e::E2e) -> Vec<Line> {
    let timing = |name, s: Option<Summary>, unit| Line {
        name,
        value: s.map_or(f64::NAN, |s| s.median),
        unit,
        better: "lower",
        summary: s,
    };
    vec![
        timing("run_rel", r.run_rel, "ratio"),
        timing("vm_run_rel", r.vm_run_rel, "ratio"),
        timing("setup_s", r.setup_s, "s"),
        Line {
            name: "engine_bytes",
            value: r.engine_bytes as f64,
            unit: "bytes",
            better: "lower",
            summary: None,
        },
    ]
}

fn print_line(l: &Line) {
    let mut s = format!(
        "{:<36} {:>14} {:<11} {}",
        l.name,
        json_num(l.value),
        l.unit,
        l.better
    );
    if let Some(sum) = &l.summary {
        let _ = write!(s, "  p25={} p75={}", json_num(sum.p25), json_num(sum.p75));
        if let Some((k, v)) = sum.tail {
            let _ = write!(s, " p{k}={}", json_num(v));
        }
        let _ = write!(s, " n={}", sum.n);
    }
    println!("{s}");
}

/// Re-executes this process with address-space layout randomisation off,
/// once. Code and heap addresses then repeat from run to run: with them
/// random, the interpreter loops' speed shifts by several percent
/// between otherwise identical runs (branch-predictor and cache aliasing),
/// which no amount of sampling inside one run averages out. When the
/// host refuses, the run goes on with randomised addresses.
#[cfg(target_os = "linux")]
fn pin_address_layout() {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: personality(2) only reads or sets this process's execution
    // domain flags; it takes no pointers and touches no memory.
    let current = unsafe { personality(QUERY) };
    let Ok(current) = c_ulong::try_from(current) else {
        return;
    };
    if current & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above.
    if unsafe { personality(current | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // `exec` replaces this process image and returns only on failure.
        let err = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .exec();
        eprintln!("e2e-bench: running with randomised addresses: {err}");
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_address_layout() {}

fn main() -> ExitCode {
    pin_address_layout();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let Some(input) = Input::new(spec.program, spec.scale, args.seed) else {
        eprintln!(
            "e2e-bench: registry program {} is unavailable",
            spec.program
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let budget = Duration::from_secs(args.seconds);
    let mut ledger = Ledger::default();
    println!(
        "workload={} program={} scale={:?} seed={} inputs={STREAM_LEN} registry_seed={} trace={} \
         seconds={} nproc={nproc}",
        spec.name,
        spec.program,
        spec.scale,
        input.seed,
        input.registry_seed,
        u8::from(args.trace),
        args.seconds
    );

    let mut host = String::from("null");
    let mut spans = (String::from("null"), String::from("null"));
    let lines: Vec<Line> = if args.trace {
        let l = layers::measure(&input, spec.mode, budget, &mut ledger);
        spans = (l.tracer.totals_json(), l.tracer.to_json());
        l.metrics
            .iter()
            .map(|m| Line {
                name: m.name,
                value: m.value,
                unit: m.unit,
                better: layers::better(m.name),
                summary: None,
            })
            .collect()
    } else {
        let r = e2e::measure(&input, spec.mode, budget, &mut ledger);
        if let Some(s) = &r.ref_run_s {
            println!(
                "host: nproc={nproc} yardstick ReferenceVm::run median={}s iqr={}s n={}",
                json_num(s.median),
                json_num(s.p75 - s.p25),
                s.n
            );
            let run = r.run_s.as_ref().map_or("null".to_string(), summary_json);
            host = format!(
                "{{\"nproc\": {nproc}, \"ref_run_s\": {}, \"run_s\": {run}}}",
                summary_json(s)
            );
        }
        e2e_lines(&r)
    };
    for l in &lines {
        print_line(l);
    }
    println!(
        "{:<36} {:>14} {:<11} lower  ({} of {} operations failed)",
        "fail_frac",
        json_num(ledger.fail_frac()),
        "share",
        ledger.failed,
        ledger.attempted
    );
    for n in &ledger.notes {
        eprintln!("e2e-bench: FAILED {n}");
    }

    let mut metrics = String::new();
    let mut detail = String::new();
    for (i, l) in lines.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let v = json_num(l.value);
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            l.name, l.unit
        );
        let sum = l.summary.as_ref().map_or("null".to_string(), summary_json);
        let _ = write!(
            detail,
            "{sep}\n    \"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"better\": \"{}\", \"samples\": {sum}}}",
            l.name, l.unit, l.better
        );
    }
    let notes: Vec<String> = ledger.notes.iter().map(|n| format!("{n:?}")).collect();
    let record = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"inputs\": {STREAM_LEN},\n  \"registry_seed\": {},\n  \"trace\": {},\n  \
         \"seconds\": {},\n  \"host\": {host},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"fail_frac\": {},\n  \"failures\": [{}],\n  \"metrics\": {{{detail}\n  }},\n  \
         \"span_totals\": {},\n  \"spans\": {}\n}}\n",
        spec.name,
        input.seed,
        input.registry_seed,
        u8::from(args.trace),
        args.seconds,
        ledger.attempted,
        ledger.failed,
        json_num(ledger.fail_frac()),
        notes.join(", "),
        spans.0,
        spans.1
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        input.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("e2e-bench: cannot write {}: {e}", file.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short warm-up keeps the debug-build tests quick.
    const QUICK: Mode = Mode::Warm { runs: 2 };

    #[test]
    fn planted_wrong_expectation_is_a_counted_failure() {
        let mut input = Input::new("javac", Scale::Test, None).expect("registry program");
        input.expected_checksum ^= 1;
        let mut ledger = Ledger::default();
        let r = e2e::measure(&input, QUICK, Duration::ZERO, &mut ledger);
        // Every operation on the registry seed's input fails, and only those.
        assert!(
            ledger.failed > 0 && ledger.failed < ledger.attempted,
            "{ledger:?}"
        );
        assert!(
            ledger.notes[0].contains("workload predicts"),
            "{:?}",
            ledger.notes
        );
        assert!(r.run_rel.is_some());
    }

    #[test]
    fn second_seed_runs_clean_on_every_workload() {
        for spec in &SPECS {
            let input = Input::new(spec.program, Scale::Test, Some(7)).expect("registry program");
            let mode = if spec.mode == Mode::Cold {
                Mode::Cold
            } else {
                QUICK
            };
            let mut ledger = Ledger::default();
            let r = e2e::measure(&input, mode, Duration::ZERO, &mut ledger);
            assert_eq!(ledger.failed, 0, "{}: {:?}", spec.name, ledger.notes);
            assert!(r.run_rel.is_some() && r.engine_bytes > 0, "{}", spec.name);
        }
    }

    /// The traced run emits exactly the per-layer metrics BENCHMARK.json
    /// declares, with the same units and directions, in both modes.
    #[test]
    fn traced_run_emits_every_declared_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let field = |entry: &str, key: &str| -> String {
            let from = entry.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
            entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
        };
        let mut declared: Vec<[String; 3]> = per_layer
            .split('{')
            .skip(1)
            .map(|e| [field(e, "name"), field(e, "unit"), field(e, "better")])
            .collect();
        declared.sort();
        for mode in [QUICK, Mode::Cold] {
            let input = Input::new("soot", Scale::Test, None).expect("registry program");
            let mut ledger = Ledger::default();
            let l = layers::measure(&input, mode, Duration::ZERO, &mut ledger);
            assert_eq!(ledger.failed, 0, "{:?}", ledger.notes);
            let mut emitted: Vec<[String; 3]> = l
                .metrics
                .iter()
                .map(|m| [m.name, m.unit, layers::better(m.name)].map(String::from))
                .collect();
            emitted.sort();
            assert_eq!(emitted, declared);
        }
    }
}
