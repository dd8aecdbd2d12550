//! `warm-service`: an open loop into one `DebloatService` (2 executors,
//! a 2-worker pool, a plan cache larger than the catalogue). Requests
//! arrive on a seeded schedule at one fixed rate below saturation and
//! draw Zipf-skewed from a 12-set catalogue over all four frameworks,
//! warmed before timing: plan-cache hits, batching, copy-on-write
//! fan-out, compaction and memo-hit verification. Detect and locate
//! are bypassed.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use negativa_repro::ml::GeneratedLibrary;
use negativa_repro::negativa::plan::bundle_fingerprint;
use negativa_repro::negativa::service::{DebloatService, ServiceError, ServiceStats, Ticket};
use negativa_repro::negativa::{
    Debloater, MultiDebloatReport, NegativaError, PlanCache, PoolStats, WorkerPool,
};

use crate::trace::{SpanId, Tracer};
use crate::util::{self, Item, Rng, GPU};
use crate::{set_up, Args, Outcome};

/// Offered load in requests per second: one fixed rate, half of the
/// highest rate swept on a 2-vCPU host (40 rps: p90 128 ms, no sheds,
/// no growing queue), so the service runs loaded but unsaturated.
const RATE_RPS: f64 = 20.0;

/// A request counts toward goodput when answered, verified, within
/// this many milliseconds of its due time: twice the untraced p90
/// latency measured at `RATE_RPS` on a 2-vCPU host (median of ten
/// seeds, 84 ms), so goodput drops as soon as the tail grows.
const LATENCY_LIMIT_MS: f64 = 170.0;

/// Zipf exponent of the catalogue draw (rank 1 is the most popular).
const ZIPF_S: f64 = 1.0;

/// Bytes and checksums a set's verified response must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    file_after: u64,
    checksums: Vec<u64>,
}

/// Check one report: every workload verified against its baseline,
/// Table-1 rows equal to the fingerprint.
fn expected_of(item: &Item, report: &MultiDebloatReport) -> Result<Expected, String> {
    let totals = report.totals();
    let checksums: Vec<u64> = report.workloads.iter().map(|w| w.verified_checksum).collect();
    if !report.all_verified()
        || report.workloads.iter().any(|w| w.baseline_checksum != w.verified_checksum)
    {
        return Err(format!("{} did not verify against its baselines", item.set[0].label()));
    }
    if let Some(label) = item.table1_label() {
        if !util::matches_fingerprint(&label, &totals, checksums[0]) {
            return Err(format!("{label} differs from the Table-1 fingerprint"));
        }
    }
    Ok(Expected { file_after: totals.file_after, checksums })
}

/// Start a service and warm every catalogue set through it.
fn start(catalogue: &[Item]) -> Result<(DebloatService, Vec<Expected>), String> {
    let service = DebloatService::builder(GPU)
        .service_workers(2)
        .pool(WorkerPool::new(2))
        .cache_capacity(64)
        .build();
    let handle = service.handle();
    let tickets: Vec<Ticket> = catalogue
        .iter()
        .map(|item| handle.submit(item.set.clone()))
        .collect::<Result<_, NegativaError>>()
        .map_err(|e| e.to_string())?;
    let mut expected = Vec::with_capacity(catalogue.len());
    for (item, ticket) in catalogue.iter().zip(tickets) {
        let response = ticket.wait().map_err(|e| e.to_string())?;
        expected.push(expected_of(item, &response.report)?);
    }
    Ok((service, expected))
}

/// The arrival schedule: `RATE_RPS × seconds` requests at seeded
/// uniform times in the window (a Poisson process conditioned on its
/// count, so every seed offers the same load), each naming a
/// Zipf-drawn catalogue index.
fn schedule(seed: u64, seconds: f64, sets: usize) -> Vec<(Duration, usize)> {
    let mut rng = Rng::new(seed, 2);
    let count = (RATE_RPS * seconds).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    let weights: Vec<f64> = (1..=sets).map(|rank| 1.0 / (rank as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    due.into_iter()
        .map(|at| {
            let mut pick = rng.unit() * total;
            let index = weights
                .iter()
                .position(|w| {
                    pick -= w;
                    pick < 0.0
                })
                .unwrap_or(sets - 1);
            (Duration::from_secs_f64(at), index)
        })
        .collect()
}

/// One submission handed from the generator to the collector.
struct Sent {
    index: usize,
    due: Instant,
    traced: bool,
    span: Option<SpanId>,
    ticket: Result<Ticket, NegativaError>,
}

/// What the collector observed.
#[derive(Default)]
struct Observed {
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    good: u64,
    failed: u64,
    mismatches: Vec<String>,
    debloated_mb: Vec<f64>,
    kept: Vec<Arc<Vec<GeneratedLibrary>>>,
    last: Option<Instant>,
}

/// Wait for every answer in submission order and check it.
fn collect(
    rx: mpsc::Receiver<Sent>,
    catalogue: &[Item],
    expected: &[Expected],
    tracer: &Tracer,
) -> Observed {
    let mut seen = Observed::default();
    for sent in rx {
        let answer = sent.ticket.and_then(Ticket::wait);
        let latency = util::ms(sent.due.elapsed());
        seen.last = Some(Instant::now());
        tracer.close(sent.span);
        let response = match answer {
            Ok(response) => response,
            // A shed is a failed request; any other error is the
            // program's fault and fails the run.
            Err(NegativaError::Service(ServiceError::Overloaded { .. })) => {
                seen.failed += 1;
                continue;
            }
            Err(e) => {
                seen.mismatches.push(format!("request for set {} failed: {e}", sent.index));
                continue;
            }
        };
        match expected_of(&catalogue[sent.index], &response.report) {
            Ok(got) if got == expected[sent.index] => {}
            Ok(_) => {
                seen.mismatches.push(format!("set {} changed since warm-up", sent.index));
                continue;
            }
            Err(e) => {
                seen.mismatches.push(e);
                continue;
            }
        }
        seen.good += u64::from(latency <= LATENCY_LIMIT_MS);
        seen.debloated_mb.push(util::mb(expected[sent.index].file_after));
        if sent.traced {
            seen.traced_ms.push(latency);
            if seen.kept.len() < 4 {
                seen.kept.push(response.libraries.clone());
            }
        } else {
            seen.plain_ms.push(latency);
        }
    }
    seen
}

/// Counters sampled from outside the service.
struct Snapshot {
    service: ServiceStats,
    cache_hits: u64,
    cache_lookups: u64,
    detections: u64,
    pool: PoolStats,
}

fn snapshot(service: &DebloatService) -> Snapshot {
    let cache = service.plan_cache().stats();
    Snapshot {
        service: service.stats(),
        cache_hits: cache.hits,
        cache_lookups: cache.hits + cache.misses,
        detections: cache.detections,
        pool: service.pool().stats(),
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer probes after the traffic: content fingerprinting of
/// served bundles, and compaction plus memo-hit verification on a
/// private session holding the most popular set's cached plan.
fn probes(item: &Item, kept: &[Arc<Vec<GeneratedLibrary>>], tracer: &Tracer) -> Result<(), String> {
    for libraries in kept {
        std::hint::black_box(
            tracer.time("codec.bundle_fingerprint", 0, None, || bundle_fingerprint(libraries)),
        );
    }
    let session = Debloater::new(GPU)
        .with_pool(WorkerPool::new(2))
        .with_plan_cache(Arc::new(PlanCache::new(4)))
        .session(item.framework());
    let err = |e: NegativaError| e.to_string();
    let normalized = item
        .set
        .iter()
        .map(|w| session.normalize(w))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let (plan, _) = session.plan_cached(&item.set).map_err(err)?;
    let (_, libraries) = session.apply(&plan).map_err(err)?;
    session.verify_all(&normalized, &plan, &libraries).map_err(err)?;
    for _ in 0..5 {
        let (_, libraries) = tracer.time("apply", 0, None, || session.apply(&plan)).map_err(err)?;
        let outcomes = tracer
            .time("verify_all.memo_hit", 0, None, || {
                session.verify_all(&normalized, &plan, &libraries)
            })
            .map_err(err)?;
        if outcomes.iter().zip(&plan.baselines).any(|(o, b)| o.checksum != b.checksum) {
            return Err("memo-hit verification differs from the baselines".into());
        }
    }
    Ok(())
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let catalogue = util::warm_catalogue();
    let (started_service, setup_s) = set_up(3, args, tracer, || start(&catalogue));
    out.set("setup_s", setup_s);
    let (service, expected) = match started_service {
        Ok(started) => started,
        Err(e) => {
            out.attempted += 1; // the set-up counts as one failed op
            out.mismatch(format!("warm-up failed: {e}"));
            return out;
        }
    };
    let plan = schedule(args.seed, args.seconds, catalogue.len());
    let handle = service.handle();
    let before = snapshot(&service);
    let (mut lag_ms, mut queue_depth_max) = (Vec::with_capacity(plan.len()), 0u64);
    let started = Instant::now();
    let seen = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let collector = scope.spawn(|| collect(rx, &catalogue, &expected, tracer));
        for (n, &(offset, index)) in plan.iter().enumerate() {
            let due = started + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag_ms.push(util::ms(due.elapsed()));
            // A traced run alternates traced and untraced requests.
            let traced = tracer.enabled() && n % 2 == 1;
            let span = if traced { tracer.open("request", n as u64, None) } else { None };
            let ticket = tracer.time("try_submit", n as u64, span, || {
                handle.try_submit(catalogue[index].set.clone())
            });
            queue_depth_max = queue_depth_max.max(service.stats().queue_depth);
            tx.send(Sent { index, due, traced, span, ticket }).expect("collector is running");
        }
        drop(tx);
        collector.join().expect("collector panicked")
    });
    let after = snapshot(&service);
    drop(handle);
    service.shutdown();

    out.attempted = plan.len() as u64;
    out.failed = seen.failed;
    for e in seen.mismatches {
        out.mismatch(e);
    }
    let window = (seen.last.unwrap_or(started) - started).as_secs_f64().max(1e-9);
    let goodput = seen.good as f64 / window;
    let timed = &seen.plain_ms;
    for (name, value) in [
        ("op_p50_ms", util::percentile(timed, 50.0)),
        ("op_p90_ms", util::percentile(timed, 90.0)),
        ("ops_per_s", goodput),
        ("debloated_mb", util::mean(&seen.debloated_mb)),
        ("debloat_p50_ms", util::percentile(timed, 50.0)),
        ("debloat_p90_ms", util::percentile(timed, 90.0)),
        ("goodput_rps", goodput),
        ("offered_rps", plan.len() as f64 / args.seconds),
        ("loadgen.lag_ms", util::mean(&lag_ms)),
        ("samples", timed.len() as f64),
    ] {
        out.set(name, value);
    }
    if !tracer.enabled() {
        return out;
    }
    if let Err(e) = probes(&catalogue[0], &seen.kept, tracer) {
        out.mismatch(format!("probe failed: {e}"));
    }
    let (s0, s1) = (&before.service, &after.service);
    let served = (s1.completed - s0.completed).max(1);
    let (v_runs, v_deduped) = (
        after.pool.verify_runs - before.pool.verify_runs,
        after.pool.verify_deduped - before.pool.verify_deduped,
    );
    let spans = tracer.by_name();
    let get = |name: &str| spans.get(name).copied().unwrap_or_default().mean_self_ms();
    for (name, value) in [
        ("simml.bundle_gen_ms", get("simml.bundle_gen")),
        ("codec.bundle_fingerprint_ms", get("codec.bundle_fingerprint")),
        ("compact.ms", get("apply")),
        ("verify.memo_hit_ms", get("verify_all.memo_hit")),
        (
            "plan.cache_hit_ratio",
            ratio(after.cache_hits - before.cache_hits, after.cache_lookups - before.cache_lookups),
        ),
        ("detect.count", (after.detections - before.detections) as f64 / served as f64),
        ("verify.memo_hit_ratio", ratio(v_deduped, v_runs + v_deduped)),
        ("compact.bytes_copied_mb", util::mb(s1.bytes_copied - s0.bytes_copied) / served as f64),
        ("compact.bytes_shared_mb", util::mb(s1.bytes_shared - s0.bytes_shared) / served as f64),
        (
            "service.mean_batch_size",
            ratio(s1.batched_requests - s0.batched_requests, s1.batches - s0.batches),
        ),
        ("service.queue_depth_max", queue_depth_max as f64),
        ("service.shed", (s1.shed - s0.shed) as f64),
        ("trace.overhead_frac", util::overhead(&seen.traced_ms, &seen.plain_ms)),
    ] {
        out.set(name, value);
    }
    out
}
