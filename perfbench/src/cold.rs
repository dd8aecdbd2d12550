//! `cold-debloat`: a closed loop with one client. Every op is a fresh
//! `Debloater` (private plan cache and memos) on a 2-worker pool that
//! runs the paper's first-deployment path on a seeded draw from the
//! catalogue: normalize → detect → plan (locate) → apply (compact) →
//! verify_all (real runs). Service, store, registry and net are
//! bypassed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use negativa_repro::ml::{cached_bundle, cached_indexes, run_workload_indexed, RunConfig};
use negativa_repro::negativa::{Debloater, NegativaError, PlanCache, Totals, WorkerPool};

use crate::trace::Tracer;
use crate::util::{self, fleet, Item, Rng, Rounds, GPU};
use crate::{set_up, Args, Outcome};

/// What one op produced, for the correctness checks and byte counts.
struct Op {
    totals: Totals,
    /// Workloads the detection measured (one baseline each).
    detected: usize,
    bytes_copied: u64,
    bytes_shared: u64,
    baselines: Vec<u64>,
    verified: Vec<u64>,
}

/// One cold debloat of `item`, each phase a child span of the op.
fn debloat(item: &Item, pool: &Arc<WorkerPool>, tracer: &Tracer, op: u64) -> Result<Op, String> {
    let root = tracer.open("op", op, None);
    let mut debloater =
        Debloater::new(GPU).with_pool(pool.clone()).with_plan_cache(Arc::new(PlanCache::new(4)));
    if item.fleet {
        debloater = debloater.with_fleet(fleet());
    }
    let session = debloater.session(item.framework());
    let result = (|| -> Result<Op, NegativaError> {
        let normalized = tracer.time("normalize", op, root, || {
            item.set.iter().map(|w| session.normalize(w)).collect::<Result<Vec<_>, _>>()
        })?;
        let detection = tracer.time("detect", op, root, || session.detect(&normalized))?;
        let plan = tracer.time("plan", op, root, || session.plan(&detection))?;
        let (reports, libraries) = tracer.time("apply", op, root, || session.apply(&plan))?;
        let outcomes = tracer
            .time("verify_all", op, root, || session.verify_all(&normalized, &plan, &libraries))?;
        Ok(Op {
            totals: Totals::sum(&reports),
            detected: detection.baselines.len(),
            bytes_copied: reports.iter().map(|r| r.bytes_copied).sum(),
            bytes_shared: reports.iter().map(|r| r.bytes_shared).sum(),
            baselines: plan.baselines.iter().map(|b| b.checksum).collect(),
            verified: outcomes.iter().map(|o| o.checksum).collect(),
        })
    })();
    tracer.close(root);
    result.map_err(|e| e.to_string())
}

/// The output checksum of `item`'s first workload run once on the
/// original bundle — the run detection and verification repeat.
fn original_run(item: &Item, tracer: &Tracer, op: u64) -> Option<u64> {
    let framework = item.framework();
    let (bundle, indexes) = (cached_bundle(framework), cached_indexes(framework));
    let mut workload = item.set[0].clone();
    workload.devices = vec![GPU; workload.devices.len()];
    tracer.time("simml.run", op, None, || {
        run_workload_indexed(&workload, bundle.libraries(), Some(&indexes), &RunConfig::default())
            .ok()
            .map(|outcome| outcome.checksum)
    })
}

/// Print the behaviour fingerprint of the current code: one line per
/// Table-1 row (the format of `table1.fingerprint`).
pub fn print_fingerprint() {
    let pool = WorkerPool::new(2);
    let off = Tracer::new(false);
    for item in util::cold_catalogue() {
        if let Some(label) = item.table1_label() {
            let op = debloat(&item, &pool, &off, 0).expect("Table-1 rows debloat");
            println!("{}", util::fingerprint_line(&label, &op.totals, op.baselines[0]));
        }
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let catalogue = util::cold_catalogue();
    let pool = WorkerPool::new(2);
    let off = Tracer::new(false);
    // The warm-up op faults code and allocator pages in before timing.
    let (warm, setup_s) = set_up(5, args, tracer, || debloat(&catalogue[0], &pool, &off, 0));
    if let Err(e) = warm {
        out.attempted += 1; // the set-up counts as one failed op
        out.mismatch(format!("warm-up debloat failed: {e}"));
    }
    out.set("setup_s", setup_s);

    let mut draw = Rounds::new(Rng::new(args.seed, 1), catalogue.len());
    let (mut plain_ms, mut traced_ms, mut debloated_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut copied, mut shared, mut detected) = (0u64, 0u64, 0usize);
    let deadline = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut finished = started;
    let mut op = 0u64;
    while started.elapsed() < deadline {
        op += 1;
        let item = &catalogue[draw.draw()];
        // A traced run alternates traced and untraced ops; their
        // difference is the tracing overhead.
        let traced = tracer.enabled() && op % 2 == 1;
        let begun = Instant::now();
        let result = debloat(item, &pool, if traced { tracer } else { &off }, op);
        let elapsed = util::ms(begun.elapsed());
        finished = Instant::now();
        out.attempted += 1;
        let done = match result {
            Ok(done) => done,
            Err(e) => {
                out.mismatch(format!("op {op} ({:?}) failed: {e}", item.set[0].label()));
                continue;
            }
        };
        let fingerprint_ok = item
            .table1_label()
            .is_none_or(|label| util::matches_fingerprint(&label, &done.totals, done.baselines[0]));
        if done.verified != done.baselines || !fingerprint_ok {
            out.mismatch(format!("op {op}: output differs from its baselines or fingerprint"));
            continue;
        }
        debloated_mb.push(util::mb(done.totals.file_after));
        if !traced {
            plain_ms.push(elapsed);
            continue;
        }
        traced_ms.push(elapsed);
        copied += done.bytes_copied;
        shared += done.bytes_shared;
        detected += done.detected;
        if original_run(item, tracer, op) != Some(done.baselines[0]) {
            out.mismatch(format!("op {op}: the original bundle no longer gives the baseline"));
        }
    }
    let good = (plain_ms.len() + traced_ms.len()) as f64;
    let per_s = good / (finished - started).as_secs_f64().max(1e-9);
    for (name, value) in [
        ("op_p50_ms", util::percentile(&plain_ms, 50.0)),
        ("op_p90_ms", util::percentile(&plain_ms, 90.0)),
        ("ops_per_s", per_s),
        ("debloated_mb", util::mean(&debloated_mb)),
        ("debloat_p50_ms", util::percentile(&plain_ms, 50.0)),
        ("debloat_p90_ms", util::percentile(&plain_ms, 90.0)),
        ("debloats_per_s", per_s),
        ("samples", plain_ms.len() as f64),
    ] {
        out.set(name, value);
    }
    if tracer.enabled() {
        let spans = tracer.by_name();
        let get = |name: &str| spans.get(name).copied().unwrap_or_default();
        let traced_ops = traced_ms.len().max(1) as f64;
        let root = get("op");
        for (metric, span) in [
            ("simml.bundle_gen_ms", "simml.bundle_gen"),
            ("simml.run_ms", "simml.run"),
            ("detect.ms", "detect"),
            ("plan.locate_ms", "plan"),
            ("compact.ms", "apply"),
            ("verify.ms", "verify_all"),
            ("op.unattributed_ms", "op"),
        ] {
            out.set(metric, get(span).mean_self_ms());
        }
        for (metric, value) in [
            ("detect.count", detected as f64 / traced_ops),
            ("compact.bytes_copied_mb", util::mb(copied) / traced_ops),
            ("compact.bytes_shared_mb", util::mb(shared) / traced_ops),
            ("trace.coverage_frac", 1.0 - root.self_ns as f64 / root.total_ns.max(1) as f64),
            ("trace.overhead_frac", util::overhead(&traced_ms, &plain_ms)),
        ] {
            out.set(metric, value);
        }
        if out.values["trace.coverage_frac"] < 0.9 {
            out.mismatch("phase spans cover less than 90% of op wall time".into());
        }
    }
    out
}
