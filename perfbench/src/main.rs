//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <cold-debloat|warm-service|registry-ship>
//!           --seed <n> --seconds <s> --trace <0|1> [--setup-only 1]
//! perfbench --print-fingerprint
//! ```
//!
//! Untraced (`--trace 0`) a run reports the end-to-end metrics; traced
//! (`--trace 1`) it records spans around the calls it makes into each
//! layer and reports the per-layer metrics. Both print every metric as
//! a `# name = value unit` line and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod cold;
mod ship;
mod trace;
mod util;
mod warm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use negativa_repro::ml::{cached_bundle, cached_indexes, FrameworkKind};

use trace::Tracer;

/// End-to-end metrics (reported untraced), with units. Every workload
/// reports each of them; `README.md` gives each one's meaning per
/// workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("debloated_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported traced), with units. A layer a workload
/// bypasses reports 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("simml.bundle_gen_ms", "ms"),
    ("simml.run_ms", "ms"),
    ("detect.ms", "ms"),
    ("detect.count", "count"),
    ("plan.locate_ms", "ms"),
    ("plan.cache_hit_ratio", "ratio"),
    ("compact.ms", "ms"),
    ("compact.bytes_copied_mb", "MB"),
    ("compact.bytes_shared_mb", "MB"),
    ("verify.ms", "ms"),
    ("verify.memo_hit_ms", "ms"),
    ("verify.memo_hit_ratio", "ratio"),
    ("codec.bundle_fingerprint_ms", "ms"),
    ("codec.content_hash_mb_s", "MB/s"),
    ("service.mean_batch_size", "count"),
    ("service.queue_depth_max", "count"),
    ("service.shed", "count"),
    ("loadgen.lag_ms", "ms"),
    ("registry.publish_ms", "ms"),
    ("registry.objects_pooled", "count"),
    ("registry.objects_deduped", "count"),
    ("registry.local_pull_ms", "ms"),
    ("net.pull_ms", "ms"),
    ("net.bytes_received_mb", "MB"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.faults_injected", "count"),
    ("manifest.decode_plan_ms", "ms"),
    ("store.load_bundle_ms", "ms"),
    ("registry.cold_verify_ms", "ms"),
    ("op.unattributed_ms", "ms"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metrics printed as `#` lines only: the per-workload names the
/// generic end-to-end metrics stand for, plus failure accounting.
const INFO: [(&str, &str); 12] = [
    ("debloat_p50_ms", "ms"),
    ("debloat_p90_ms", "ms"),
    ("debloats_per_s", "1/s"),
    ("goodput_rps", "1/s"),
    ("offered_rps", "1/s"),
    ("publish_p50_ms", "ms"),
    ("pull_p50_ms", "ms"),
    ("pull_p90_ms", "ms"),
    ("shipped_mb", "MB"),
    ("cold_verify_p50_ms", "ms"),
    ("failed_frac", "ratio"),
    ("samples", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdDebloat,
    WarmService,
    RegistryShip,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-debloat" => Some(Workload::ColdDebloat),
            "warm-service" => Some(Workload::WarmService),
            "registry-ship" => Some(Workload::RegistryShip),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdDebloat => "cold-debloat",
            Workload::WarmService => "warm-service",
            Workload::RegistryShip => "registry-ship",
        }
    }
}

/// One run's settings, from the command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up once, print the set-up time and exit (see [`set_up`]).
    pub setup_only: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check mismatches; any fails the run.
    pub mismatches: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed correctness check; it counts as a failed op.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.mismatches.push(what);
    }
}

/// Set up `reps` times and return this process's set-up and the
/// median set-up time in seconds. A set-up generates and indexes the
/// four frameworks' bundles through the program's process-wide caches
/// (`cached_bundle`, `cached_indexes`), then runs `prepare` (warm-up,
/// artifact prep). Those caches fill once per process, so all but the
/// last set-up run first, one at a time, each in a fresh child process
/// (`--setup-only 1`) that sets up once, prints its time and exits.
pub fn set_up<T>(
    reps: usize,
    args: &Args,
    tracer: &Tracer,
    prepare: impl FnOnce() -> T,
) -> (T, f64) {
    let mut times: Vec<f64> =
        if args.setup_only { Vec::new() } else { (1..reps).map(|_| child_set_up(args)).collect() };
    let started = Instant::now();
    for framework in FrameworkKind::ALL {
        tracer.time("simml.bundle_gen", 0, None, || {
            cached_bundle(framework);
            cached_indexes(framework);
        });
    }
    let prepared = prepare();
    let took = started.elapsed().as_secs_f64();
    if args.setup_only {
        println!("{took}");
        std::process::exit(0);
    }
    times.push(took);
    times.sort_by(f64::total_cmp);
    (prepared, times[times.len() / 2])
}

/// One set-up in a child process of this executable; its time in seconds.
fn child_set_up(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let output = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0", "--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .expect("starting a set-up child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(seconds) if output.status.success() => seconds,
        _ => panic!("set-up child failed ({}): {stdout}", output.status),
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-fingerprint") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            cold::print_fingerprint();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload {
        Workload::ColdDebloat => cold::run(&args, &tracer),
        Workload::WarmService => warm::run(&args, &tracer),
        Workload::RegistryShip => ship::run(&args, &tracer),
    };
    outcome.set("peak_rss_mb", util::peak_rss_mb());
    outcome.set("failed_frac", outcome.failed as f64 / outcome.attempted.max(1) as f64);
    if args.trace {
        let path = PathBuf::from(".perfbench-trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
    }

    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in reported {
        let value = match outcome.values.get(name) {
            Some(&value) => value,
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload.name()),
        };
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&INFO) {
        if let Some(value) = outcome.values.get(name) {
            println!("# {name} = {value} {unit}");
        }
    }
    if outcome.attempted == 0 {
        // Nothing was measured: a set-up that failed before any op.
        eprintln!("perfbench: no operation ran");
        return ExitCode::FAILURE;
    }
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
