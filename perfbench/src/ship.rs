//! `registry-ship`: set-up prepares eight artifacts in memory (two per
//! framework, with overlapping workload sets). Each cycle publishes all
//! of them into a fresh origin registry (the write path, with
//! cross-artifact dedup), serves the origin on loopback and wire-pulls
//! each into a fresh mirror in seeded order — first full, then deltas
//! (the read path) — and cold-verifies two of them from the mirror.
//! The only workload that exercises store, manifest, codec, registry
//! and net; detect, locate, compact and service are bypassed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use negativa_repro::ml::{cached_bundle, cached_indexes, run_workload_indexed, RunConfig};
use negativa_repro::negativa::codec::content_hash;
use negativa_repro::negativa::{
    DebloatArtifact, Debloater, FaultInjector, PlanCache, Registry, RegistryServer, RemoteRegistry,
    RetryPolicy, TcpDialer, WorkerPool,
};

use crate::trace::Tracer;
use crate::util::{self, Item, Rng, GPU};
use crate::{set_up, Args, Outcome};

/// Cold verifications per cycle.
const VERIFIES_PER_CYCLE: usize = 2;

/// Faulty connections the fault-injected pull must survive.
const FAULT_BUDGET: u64 = 4;

/// Debloat every catalogue set into a publishable artifact, checking
/// each report (and Table-1 rows against the fingerprint).
fn prepare(catalogue: &[Item]) -> Result<Vec<DebloatArtifact>, String> {
    let debloater = Debloater::new(GPU)
        .with_pool(WorkerPool::new(2))
        .with_plan_cache(Arc::new(PlanCache::new(8)));
    let mut artifacts = Vec::with_capacity(catalogue.len());
    for item in catalogue {
        let artifact = debloater
            .session(item.framework())
            .debloat_many_artifact(&item.set)
            .map_err(|e| e.to_string())?;
        let report = &artifact.report;
        if !report.all_verified() {
            return Err(format!("{} did not verify", item.set[0].label()));
        }
        if let Some(label) = item.table1_label() {
            let checksum = report.workloads[0].verified_checksum;
            if !util::matches_fingerprint(&label, &report.totals(), checksum) {
                return Err(format!("{label} differs from the Table-1 fingerprint"));
            }
        }
        artifacts.push(artifact);
    }
    Ok(artifacts)
}

/// Directory (inside the checkout) for one run's registry roots.
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("registry-ship-{}", std::process::id()))
}

fn wipe(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("removing a benchmark registry root");
    }
}

/// Whether every file under `a/sub` exists under `b/sub` with the same
/// bytes, and the other way round.
fn same_files(a: &Path, b: &Path, sub: &str) -> Result<bool, std::io::Error> {
    let names = |root: &Path| -> Result<Vec<String>, std::io::Error> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(root.join(sub))? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    };
    let ours = names(a)?;
    if ours != names(b)? {
        return Ok(false);
    }
    for name in &ours {
        if std::fs::read(a.join(sub).join(name))? != std::fs::read(b.join(sub).join(name))? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Measurements accumulated over the cycles.
#[derive(Default)]
struct Samples {
    publish_ms: Vec<f64>,
    pull_ms: Vec<f64>,
    traced_pull_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    debloated_mb: Vec<f64>,
    /// Per untraced cycle: milliseconds of its eight wire pulls.
    cycle_pull_ms: Vec<f64>,
    /// Per untraced cycle: milliseconds of its publishes, pulls and
    /// cold verifies.
    cycle_busy_ms: Vec<f64>,
    shipped: u64,
    cycles: u64,
    traced_cycles: u64,
    received: u64,
    pooled: u64,
    deduped: u64,
    hashed_bytes: u64,
    hash_ns: u64,
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let catalogue = util::ship_catalogue();
    let (prepared, setup_s) = set_up(3, args, tracer, || prepare(&catalogue));
    out.set("setup_s", setup_s);
    let artifacts = match prepared {
        Ok(artifacts) => artifacts,
        Err(e) => {
            out.attempted += 1; // the set-up counts as one failed op
            out.mismatch(format!("artifact prep failed: {e}"));
            return out;
        }
    };
    let ids: Vec<String> = artifacts.iter().map(|a| a.key.artifact_id()).collect();
    let base = work_dir();
    wipe(&base);
    let (origin, mirror, local) = (base.join("origin"), base.join("mirror"), base.join("local"));
    let server = match RegistryServer::serve(Registry::at(&origin), "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            out.attempted += 1; // the set-up counts as one failed op
            out.mismatch(format!("serving the origin failed: {e}"));
            return out;
        }
    };
    let client = RemoteRegistry::connect(&server.url()).expect("the server's own URL parses");

    let start = Rng::new(args.seed, 3).below(ids.len());
    let mut s = Samples::default();
    let deadline = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while started.elapsed() < deadline {
        s.cycles += 1;
        let cycle = s.cycles;
        // A traced run alternates traced and untraced cycles.
        let traced = tracer.enabled() && cycle % 2 == 0;
        let off = Tracer::new(false);
        let t = if traced { tracer } else { &off };
        for dir in [&origin, &mirror, &local] {
            wipe(dir);
        }
        let (origin_reg, mirror_reg, local_reg) =
            (Registry::at(&origin), Registry::at(&mirror), Registry::at(&local));
        let received_before = client.stats().bytes_received;
        let root = t.open("cycle", cycle, None);
        let (mut busy_ms, mut pull_ms) = (0.0, 0.0);

        for artifact in &artifacts {
            out.attempted += 1;
            let begun = Instant::now();
            let published =
                t.time("registry.publish", cycle, root, || origin_reg.publish(artifact));
            let took = util::ms(begun.elapsed());
            busy_ms += took;
            match published {
                Ok(_) => s.publish_ms.push(took),
                Err(e) => {
                    out.mismatch(format!("publish failed: {e}"));
                }
            }
        }

        // Cycle c pulls the catalogue rotated by (start + c): over any
        // eight cycles every artifact is pulled once at every position,
        // so every seed sees the same mix of full and delta pulls.
        let rotation = (start + cycle as usize) % ids.len();
        let order: Vec<usize> = (0..ids.len()).map(|k| (k + rotation) % ids.len()).collect();
        for &i in &order {
            out.attempted += 1;
            let begun = Instant::now();
            let pulled = t.time("net.pull", cycle, root, || client.pull_into(&mirror_reg, &ids[i]));
            let took = util::ms(begun.elapsed());
            busy_ms += took;
            pull_ms += took;
            let report = match pulled {
                Ok(report) => report,
                Err(e) => {
                    out.mismatch(format!("wire pull of {} failed: {e}", ids[i]));
                    continue;
                }
            };
            s.shipped += report.bytes_shipped;
            s.debloated_mb.push(util::mb(artifacts[i].report.totals().file_after));
            if traced {
                s.traced_pull_ms.push(took);
                if let Err(e) = t.time("registry.local_pull", cycle, root, || {
                    local_reg.pull(&origin_reg, &ids[i])
                }) {
                    out.mismatch(format!("local pull of {} failed: {e}", ids[i]));
                }
            } else {
                s.pull_ms.push(took);
            }
        }

        for k in 0..VERIFIES_PER_CYCLE {
            let i = order[k * ids.len() / VERIFIES_PER_CYCLE];
            out.attempted += 1;
            let begun = Instant::now();
            let verified = t.time("registry.cold_verify", cycle, root, || {
                mirror_reg.open(&ids[i]).and_then(|artifact| artifact.verify())
            });
            let took = util::ms(begun.elapsed());
            busy_ms += took;
            let ok = match &verified {
                Ok(v) => {
                    v.all_verified()
                        && catalogue[i].table1_label().is_none_or(|label| {
                            let report = &artifacts[i].report;
                            util::matches_fingerprint(
                                &label,
                                &report.totals(),
                                v.workloads[0].verified_checksum,
                            )
                        })
                }
                Err(_) => false,
            };
            if !ok {
                out.mismatch(format!("cold verify of {} failed: {verified:?}", ids[i]));
                continue;
            }
            s.verify_ms.push(took);
            if traced {
                probe_stored(&mirror_reg, &ids[i], &catalogue[i], t, cycle, &mut s, &mut out);
            }
        }
        t.close(root);

        if traced {
            s.traced_cycles += 1;
            s.received += client.stats().bytes_received - received_before;
            let stats = origin_reg.stats();
            s.pooled += stats.objects_pooled;
            s.deduped += stats.objects_deduped;
        } else {
            s.cycle_pull_ms.push(pull_ms);
            s.cycle_busy_ms.push(busy_ms);
        }
        for sub in ["objects", "manifests"] {
            if !matches!(same_files(&origin, &mirror, sub), Ok(true)) {
                out.mismatch(format!("cycle {cycle}: mirror {sub} differ from the origin's"));
            }
        }
    }

    // Once per run, one pull through a seeded fault injector, after the
    // timed cycles and on the only connection: it must converge within
    // its retry budget and cold-verify byte-perfect.
    drop(client);
    let faulty_root = base.join("faulty");
    let pick = Rng::new(args.seed, 5).below(ids.len());
    let injector = Arc::new(FaultInjector::new(Arc::new(TcpDialer), args.seed, FAULT_BUDGET));
    let policy = RetryPolicy {
        attempts: 12,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        chunk_len: 64 * 1024,
        ..RetryPolicy::default()
    };
    let faulty = RemoteRegistry::connect_with(&server.url(), injector.clone(), policy)
        .expect("the server's own URL parses");
    let faulty_reg = Registry::at(&faulty_root);
    out.attempted += 1;
    let converged = faulty
        .pull_into(&faulty_reg, &ids[pick])
        .and_then(|_| faulty_reg.verify(&ids[pick]))
        .map(|v| v.all_verified());
    if !matches!(converged, Ok(true)) {
        out.mismatch(format!("fault-injected pull of {} failed: {converged:?}", ids[pick]));
    }
    let net = faulty.stats();
    drop(faulty);
    drop(server);
    wipe(&base);
    if let Some(parent) = base.parent() {
        std::fs::remove_dir(parent).ok(); // only if no other run uses it
    }

    // The gated figures are per cycle, so every sample pulls the same
    // eight artifacts (each cycle ships 0.2 to 13 MB per pull).
    let median_busy_s = (util::percentile(&s.cycle_busy_ms, 50.0) / 1e3).max(1e-9);
    for (name, value) in [
        ("op_p50_ms", util::percentile(&s.cycle_pull_ms, 50.0)),
        ("op_p90_ms", util::percentile(&s.cycle_pull_ms, 90.0)),
        ("ops_per_s", ids.len() as f64 / median_busy_s),
        ("debloated_mb", util::mean(&s.debloated_mb)),
        ("publish_p50_ms", util::percentile(&s.publish_ms, 50.0)),
        ("pull_p50_ms", util::percentile(&s.pull_ms, 50.0)),
        ("pull_p90_ms", util::percentile(&s.pull_ms, 90.0)),
        ("shipped_mb", util::mb(s.shipped) / s.cycles.max(1) as f64),
        ("cold_verify_p50_ms", util::percentile(&s.verify_ms, 50.0)),
        ("samples", s.cycle_pull_ms.len() as f64),
    ] {
        out.set(name, value);
    }
    if tracer.enabled() {
        let spans = tracer.by_name();
        let get = |name: &str| spans.get(name).copied().unwrap_or_default().mean_self_ms();
        let per_cycle = |n: u64| n as f64 / s.traced_cycles.max(1) as f64;
        for (name, value) in [
            ("simml.bundle_gen_ms", get("simml.bundle_gen")),
            ("simml.run_ms", get("simml.run")),
            ("registry.publish_ms", get("registry.publish")),
            ("registry.local_pull_ms", get("registry.local_pull")),
            ("net.pull_ms", get("net.pull")),
            ("registry.cold_verify_ms", get("registry.cold_verify")),
            ("manifest.decode_plan_ms", get("manifest.decode_plan")),
            ("store.load_bundle_ms", get("store.load_bundle")),
            ("registry.objects_pooled", per_cycle(s.pooled)),
            ("registry.objects_deduped", per_cycle(s.deduped)),
            ("net.bytes_received_mb", util::mb(s.received) / s.traced_cycles.max(1) as f64),
            ("net.retries", net.retries as f64),
            ("net.reconnects", net.reconnects as f64),
            ("net.faults_injected", injector.faults_injected() as f64),
            ("codec.content_hash_mb_s", s.hashed_bytes as f64 * 1e3 / s.hash_ns.max(1) as f64),
            ("trace.overhead_frac", util::overhead(&s.traced_pull_ms, &s.pull_ms)),
        ] {
            out.set(name, value);
        }
    }
    out
}

/// Traced-cycle probes of one verified artifact, each on a fresh open
/// so no read is served from the handle's object cache: plan decode,
/// bundle load, one run of its first workload on the original bundle,
/// and content hashing of that bundle.
fn probe_stored(
    mirror: &Registry,
    id: &str,
    item: &Item,
    t: &Tracer,
    cycle: u64,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let plan = mirror
        .open(id)
        .and_then(|artifact| t.time("manifest.decode_plan", cycle, None, || artifact.load_plan()));
    let bundle = mirror
        .open(id)
        .and_then(|artifact| t.time("store.load_bundle", cycle, None, || artifact.load_bundle()));
    if let Err(e) = plan.and(bundle) {
        out.mismatch(format!("probing {id} failed: {e}"));
    }
    let framework = item.framework();
    let (original, indexes) = (cached_bundle(framework), cached_indexes(framework));
    let mut workload = item.set[0].clone();
    workload.devices = vec![GPU; workload.devices.len()];
    let run = t.time("simml.run", cycle, None, || {
        run_workload_indexed(&workload, original.libraries(), Some(&indexes), &RunConfig::default())
    });
    if let Err(e) = run {
        out.mismatch(format!("original-bundle run of {} failed: {e}", item.set[0].label()));
    }
    let begun = Instant::now();
    for library in original.libraries() {
        std::hint::black_box(
            t.time("codec.content_hash", cycle, None, || content_hash(library.image.bytes())),
        );
        s.hashed_bytes += library.image.bytes().len() as u64;
    }
    s.hash_ns += begun.elapsed().as_nanos() as u64;
}
