//! The workload executor.
//!
//! [`run_workload`] drives a [`Workload`] against a generated library set
//! on the simulated CUDA runtime, reproducing the control flow the
//! paper's tool observes: libraries are dlopened, GPU modules load
//! eagerly or lazily, each kernel is resolved *once* through
//! `cuModuleGetFunction` (the hook Negativa-ML subscribes to), host
//! dispatch chains execute per step, and kernels launch with modelled
//! compute times. A deterministic output checksum folds every host
//! function body hash and kernel code hash the run touches — byte-level
//! change in any executed code changes the checksum, which is how the
//! debloater's verification phase detects semantic breakage.
//!
//! Steady-state iterations beyond [`RunConfig::sample_steps`] are
//! fast-forwarded on the virtual clock (every step is identical, so one
//! measured step is enough), keeping million-step workloads cheap while
//! preserving the paper's relative time comparisons.
//!
//! Multi-GPU workloads run one worker (thread + private [`CudaSim`]) per
//! device via [`simcuda::multi::run_workers`], merging rank metrics and
//! asserting rank-identical checksums.

use std::collections::HashMap;
use std::sync::Arc;

use simcuda::cupti::CuptiSubscriber;
use simcuda::{CostModel, CudaSim, FnHandle, GpuModel, LibraryId, ModuleId};

use crate::bundle::GeneratedLibrary;
use crate::error::SimmlError;
use crate::metrics::WorkloadMetrics;
use crate::namegen::stable_hash;
use crate::ops::{OpFamily, OpInstance};
use crate::scale;
use crate::workload::{Operation, Workload};
use crate::Result;

const MIB: u64 = 1 << 20;
/// Model bytes staged host→device per sample in a batch transfer.
const BYTES_PER_SAMPLE: u64 = 256 * 1024;

/// Factory handing out one CUPTI subscriber per rank of a distributed
/// run; see [`RunConfig::rank_subscribers`].
pub type RankSubscriberFactory = dyn Fn(usize) -> Arc<dyn CuptiSubscriber> + Send + Sync;

/// A named per-rank subscriber factory. The name identifies the
/// profiler mix (e.g. for cache keying) *without* invoking the factory,
/// which is called exactly once per rank, during the run.
#[derive(Clone)]
pub struct RankSubscriberSpec {
    /// Identifies what the factory attaches (like
    /// [`CuptiSubscriber::name`] for shared subscribers).
    pub name: String,
    /// Called once per rank with the rank index.
    pub factory: Arc<RankSubscriberFactory>,
}

impl RankSubscriberSpec {
    /// A named factory.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn(usize) -> Arc<dyn CuptiSubscriber> + Send + Sync + 'static,
    ) -> RankSubscriberSpec {
        RankSubscriberSpec { name: name.into(), factory: Arc::new(factory) }
    }
}

impl std::fmt::Debug for RankSubscriberSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankSubscriberSpec").field("name", &self.name).finish()
    }
}

/// Knobs for one execution.
#[derive(Clone)]
pub struct RunConfig {
    /// CUPTI subscribers to attach before the run (profiling tools; the
    /// debloater's kernel detector rides here). Every rank of a
    /// distributed run shares these same subscriber instances.
    pub subscribers: Vec<Arc<dyn CuptiSubscriber>>,
    /// Per-rank subscriber factories: each spec's factory is called once
    /// per rank with the rank index, and the returned subscriber is
    /// attached to *that rank's* simulator only. This is how the
    /// debloater collects rank-specific usage maps from a distributed
    /// workload (single-GPU runs count as rank 0) instead of funneling
    /// every rank through one merged detector. Multiple specs compose:
    /// the debloater pushes its detector factory alongside any the
    /// caller already installed.
    pub rank_subscribers: Vec<RankSubscriberSpec>,
    /// Steps executed in full before fast-forwarding the remainder.
    pub sample_steps: u64,
    /// Model-byte scale factor (see [`simcuda::CudaSim::with_config`]).
    pub byte_scale: u64,
    /// Virtual-time cost model.
    pub cost: CostModel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            subscribers: Vec::new(),
            rank_subscribers: Vec::new(),
            sample_steps: 2,
            byte_scale: scale::BYTE_SCALE,
            cost: CostModel::default(),
        }
    }
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("subscribers", &self.subscribers.len())
            .field("rank_subscribers", &self.rank_subscribers.len())
            .field("sample_steps", &self.sample_steps)
            .field("byte_scale", &self.byte_scale)
            .finish()
    }
}

/// The result of one workload execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Deterministic output checksum. Identical across reruns; identical
    /// before and after a *correct* debloat; different if any executed
    /// code byte changed.
    pub checksum: u64,
    /// Runtime metrics (merged across ranks for distributed runs).
    pub metrics: WorkloadMetrics,
}

/// FNV-1a-style order-sensitive checksum fold. It defines the output
/// checksums the Table-1 behaviour fingerprint pins, so it stays as is.
fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
}

/// One op's resolved execution recipe.
struct OpPlan {
    lib_index: usize,
    dispatch_fn: String,
    entry_kernel: Option<String>,
    launches_per_step: u32,
    compute_ns: u64,
}

/// Execute `workload` against `libraries` (a bundle's library list, or a
/// debloated copy of one).
///
/// # Errors
///
/// [`SimmlError::NoProvider`] if no library implements a required op
/// family, and [`SimmlError::Cuda`] for runtime faults — including the
/// [`simcuda::CudaError::KernelNotFound`] / `FunctionFault` integrity
/// errors an over-compacted library produces.
pub fn run_workload(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    config: &RunConfig,
) -> Result<RunOutcome> {
    run_workload_indexed(workload, libraries, None, config)
}

/// Like [`run_workload`], but opening each library through a pre-built
/// [`simelf::ElfIndex`] so per-open symbol-table parsing is skipped.
///
/// `indexes[i]` must describe `libraries[i]` — either built from it
/// directly or from the original it was compacted from (compaction
/// preserves offsets, so one index set serves the baseline, detection,
/// and verification opens). Pass `None` to parse per open.
///
/// # Errors
///
/// As [`run_workload`], plus [`SimmlError::Cuda`] wrapping
/// [`simcuda::CudaError::InvalidHandle`] for a stale index.
pub fn run_workload_indexed(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    indexes: Option<&[simelf::ElfIndex]>,
    config: &RunConfig,
) -> Result<RunOutcome> {
    let world = workload.devices.len();
    let Some(&first_device) = workload.devices.first() else {
        return Err(SimmlError::InvalidWorkload {
            reason: format!("workload {} names no devices", workload.label()),
        });
    };
    if world == 1 {
        return run_rank(workload, libraries, indexes, config, first_device, 0, 1);
    }
    let results = simcuda::multi::run_workers(world, |rank| {
        run_rank(workload, libraries, indexes, config, workload.devices[rank], rank, world)
    });
    let mut outcomes = Vec::with_capacity(world);
    for r in results {
        outcomes.push(r?);
    }
    let checksum = outcomes[0].checksum;
    if let Some((rank, outcome)) = outcomes.iter().enumerate().find(|(_, o)| o.checksum != checksum)
    {
        return Err(SimmlError::RankDivergence {
            rank,
            expected: checksum,
            actual: outcome.checksum,
        });
    }
    let metrics = WorkloadMetrics::merge_ranks(
        &outcomes.iter().map(|o| o.metrics.clone()).collect::<Vec<_>>(),
    );
    Ok(RunOutcome { checksum, metrics })
}

fn run_rank(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    indexes: Option<&[simelf::ElfIndex]>,
    config: &RunConfig,
    device: GpuModel,
    rank: usize,
    world: usize,
) -> Result<RunOutcome> {
    let mut sim = CudaSim::with_config(&[device], config.cost, config.byte_scale);
    for sub in &config.subscribers {
        sim.subscribe(sub.clone());
    }
    for spec in &config.rank_subscribers {
        sim.subscribe((spec.factory)(rank));
    }
    let mut checksum = stable_hash(&[&workload.label()]);

    // ---- framework load: dlopen everything, load GPU modules ----------
    let mut lib_ids: Vec<LibraryId> = Vec::with_capacity(libraries.len());
    for (i, lib) in libraries.iter().enumerate() {
        lib_ids.push(match indexes.and_then(|ix| ix.get(i)) {
            Some(index) => sim.open_library_indexed(&lib.image, index)?,
            None => sim.open_library(&lib.image)?,
        });
    }
    let mut modules: HashMap<usize, ModuleId> = HashMap::new();
    for (i, lib) in libraries.iter().enumerate() {
        if lib.manifest.has_gpu_code {
            modules.insert(i, sim.load_module(lib_ids[i], 0, workload.load_mode)?);
        }
    }
    // Framework import executes every infrastructure function once.
    for (i, lib) in libraries.iter().enumerate() {
        for f in &lib.manifest.infra_fns {
            mix(&mut checksum, sim.host_call(lib_ids[i], f)?);
        }
    }

    // ---- resolve the op plan ------------------------------------------
    let mut ops = workload.model.ops(workload.operation);
    if world > 1 {
        // Distributed execution adds a collective per step.
        let family = match workload.operation {
            Operation::Train => OpFamily::AllReduce,
            Operation::Inference => OpFamily::AllGather,
        };
        ops.push(OpInstance { family, launches_per_step: 2, compute_ns: 60_000, shape_id: 0 });
    }
    let plans = resolve_plan(workload, libraries, &ops)?;

    // ---- model/state memory -------------------------------------------
    sim.alloc_host(workload.dataset.pipeline_host_mb() * MIB);
    let weights = workload.model.weights_mb() * MIB / world as u64;
    sim.alloc_device(0, weights)?;
    if workload.operation == Operation::Train {
        // Gradients plus optimizer moments.
        sim.alloc_device(0, 2 * weights)?;
    }
    let per_sample = (weights / 100).clamp(MIB, 256 * MIB);
    sim.alloc_device(0, per_sample * workload.batch_size as u64)?;
    if workload.operation == Operation::Inference && workload.inference_steps > 1 {
        // KV cache sized by decode horizon.
        sim.alloc_device(0, (workload.inference_steps as u64 * 4 * MIB) / world as u64)?;
    }

    // ---- steps: sample fully, fast-forward the rest -------------------
    let total_steps = workload.total_steps().max(1);
    let sample_steps = config.sample_steps.clamp(1, total_steps);
    let batch_bytes = workload.batch_size as u64 * BYTES_PER_SAMPLE;
    let mut handles: HashMap<String, FnHandle> = HashMap::new();
    let mut step_digest = 0u64;
    let sampling_started = sim.elapsed_ns();
    for step in 0..sample_steps {
        let mut this_step = stable_hash(&["step"]);
        sim.memcpy_h2d(0, batch_bytes)?;
        for plan in &plans {
            mix(&mut this_step, sim.host_call(lib_ids[plan.lib_index], &plan.dispatch_fn)?);
            if let Some(kernel) = &plan.entry_kernel {
                let handle = match handles.get(kernel) {
                    Some(h) => h.clone(),
                    None => {
                        let module = modules[&plan.lib_index];
                        let h = sim.get_function(module, kernel)?;
                        handles.insert(kernel.clone(), h.clone());
                        h
                    }
                };
                for _ in 0..plan.launches_per_step {
                    mix(&mut this_step, sim.launch(&handle, plan.compute_ns)?);
                }
            }
        }
        sim.synchronize();
        if step == 0 {
            step_digest = this_step;
        }
        mix(&mut checksum, this_step);
    }
    // Remainder-exact fast-forward: advancing by the *truncated*
    // per-step average would drift up to `sample_steps - 1` ns behind a
    // fully executed run for every remaining step.
    let measured_total = sim.elapsed_ns() - sampling_started;
    let remaining = total_steps - sample_steps;
    let skipped_ns =
        (u128::from(measured_total) * u128::from(remaining) / u128::from(sample_steps)) as u64;
    sim.advance_clock(skipped_ns);
    for _ in 0..remaining {
        mix(&mut checksum, step_digest);
    }

    let mut metrics = WorkloadMetrics::from_stats(&sim.stats());
    metrics.load_ns = sampling_started;
    Ok(RunOutcome { checksum, metrics })
}

/// Map each op instance to its provider library, dispatch function, and
/// (for GPU ops) entry kernel. Provider = first library in bundle order
/// offering the family; kernel/dispatch variants are selected by hashing
/// the model's variant tag and the op's shape class, which is what makes
/// different models — and train vs inference — use largely different
/// kernels while sharing dispatch code (paper Table 4).
fn resolve_plan(
    workload: &Workload,
    libraries: &[GeneratedLibrary],
    ops: &[OpInstance],
) -> Result<Vec<OpPlan>> {
    let variant = workload.model.variant_tag().to_owned();
    let op_name = workload.operation.name();
    let mut plans = Vec::with_capacity(ops.len());
    for op in ops {
        let needs_gpu = op.launches_per_step > 0;
        let lib_index = libraries
            .iter()
            .position(|lib| {
                lib.manifest.families.get(&op.family).is_some_and(|fam| {
                    !fam.dispatch_fns.is_empty()
                        && (!needs_gpu
                            || (lib.manifest.has_gpu_code && !fam.entry_kernels.is_empty()))
                })
            })
            .ok_or(SimmlError::NoProvider { family: op.family.token() })?;
        let fam = &libraries[lib_index].manifest.families[&op.family];
        let shape = op.shape_id.to_string();
        let d = stable_hash(&[&variant, op_name, op.family.token(), "dispatch", &shape]);
        let dispatch_fn = fam.dispatch_fns[(d % fam.dispatch_fns.len() as u64) as usize].clone();
        let entry_kernel = needs_gpu.then(|| {
            let k = stable_hash(&[&variant, op_name, op.family.token(), "kernel", &shape]);
            fam.entry_kernels[(k % fam.entry_kernels.len() as u64) as usize].clone()
        });
        plans.push(OpPlan {
            lib_index,
            dispatch_fn,
            entry_kernel,
            launches_per_step: op.launches_per_step,
            compute_ns: op.compute_ns,
        });
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::cached_bundle;
    use crate::model::ModelKind;
    use crate::spec::FrameworkKind;
    use simcuda::cupti::NsysTracer;
    use simcuda::LoadMode;

    fn mobilenet_infer() -> Workload {
        Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Inference)
    }

    #[test]
    fn runs_are_deterministic() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let a = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        let b = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(a, b);
        assert!(a.metrics.launches > 0);
        assert!(a.metrics.elapsed_ns > 0);
        assert!(a.metrics.peak_device_bytes[0] > 0);
    }

    #[test]
    fn train_and_inference_use_different_kernels() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let train =
            Workload::paper(FrameworkKind::PyTorch, ModelKind::MobileNetV2, Operation::Train);
        let infer = mobilenet_infer();
        let a = run_workload(&train, bundle.libraries(), &RunConfig::default()).unwrap();
        let b = run_workload(&infer, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_ne!(a.checksum, b.checksum);
        assert!(a.metrics.get_function_calls > b.metrics.get_function_calls);
    }

    #[test]
    fn kernels_resolve_once_regardless_of_steps() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let one = RunConfig { sample_steps: 1, ..RunConfig::default() };
        // Fully execute all 64 steps so the handle cache is what keeps
        // the resolution count flat.
        let many = RunConfig { sample_steps: 64, ..RunConfig::default() };
        let a = run_workload(&w, bundle.libraries(), &one).unwrap();
        let mut w2 = w.clone();
        w2.inference_steps = 64;
        let b = run_workload(&w2, bundle.libraries(), &many).unwrap();
        assert_eq!(
            a.metrics.get_function_calls, b.metrics.get_function_calls,
            "get_function fires once per kernel, not per step"
        );
    }

    #[test]
    fn fast_forward_clock_matches_full_execution() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut w = mobilenet_infer();
        w.inference_steps = 64;
        // 3 does not divide the 61 fast-forwarded steps' cost evenly, so
        // truncating per-step division would fall behind the fully
        // executed clock here.
        let sampled = run_workload(
            &w,
            bundle.libraries(),
            &RunConfig { sample_steps: 3, ..RunConfig::default() },
        )
        .unwrap();
        let full = run_workload(
            &w,
            bundle.libraries(),
            &RunConfig { sample_steps: 64, ..RunConfig::default() },
        )
        .unwrap();
        assert_eq!(sampled.checksum, full.checksum, "fast-forward must not change output");
        assert_eq!(
            sampled.metrics.elapsed_ns, full.metrics.elapsed_ns,
            "fast-forwarded clock must match full execution exactly"
        );
    }

    #[test]
    fn lazy_loading_moves_less_gpu_code_than_eager() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut w = mobilenet_infer();
        w.load_mode = LoadMode::Eager;
        let eager = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        w.load_mode = LoadMode::Lazy;
        let lazy = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(eager.checksum, lazy.checksum, "loading mode must not change output");
        assert!(lazy.metrics.gpu_code_bytes < eager.metrics.gpu_code_bytes);
        assert!(lazy.metrics.peak_device_bytes[0] < eager.metrics.peak_device_bytes[0]);
    }

    #[test]
    fn attached_tracer_slows_the_run_but_not_its_output() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let plain = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        let tracer = Arc::new(NsysTracer::new());
        let config = RunConfig { subscribers: vec![tracer.clone()], ..RunConfig::default() };
        let traced = run_workload(&w, bundle.libraries(), &config).unwrap();
        assert_eq!(plain.checksum, traced.checksum);
        assert!(traced.metrics.elapsed_ns > plain.metrics.elapsed_ns);
        assert!(tracer.event_count() > 0);
    }

    #[test]
    fn indexed_run_matches_parsed_run_exactly() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let indexes = crate::bundle::cached_indexes(FrameworkKind::PyTorch);
        let w = mobilenet_infer();
        let plain = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        let indexed =
            run_workload_indexed(&w, bundle.libraries(), Some(&indexes), &RunConfig::default())
                .unwrap();
        assert_eq!(plain, indexed, "skipping the per-open parse must not change anything");
    }

    #[test]
    fn load_phase_is_split_out_of_total_time() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let outcome =
            run_workload(&mobilenet_infer(), bundle.libraries(), &RunConfig::default()).unwrap();
        let (load, steady) = outcome.metrics.load_time_split_ns();
        assert!(load > 0, "framework load takes time");
        assert!(steady > 0, "steps take time");
        assert_eq!(load + steady, outcome.metrics.elapsed_ns);
    }

    #[test]
    fn rank_subscribers_attach_one_per_rank() {
        let bundle = cached_bundle(FrameworkKind::Vllm);
        let model = ModelKind::leaderboard_top9().remove(1); // 7.7 B — cheapest
        let w = Workload::distributed_a100(FrameworkKind::Vllm, model);
        let tracers: Vec<Arc<NsysTracer>> =
            (0..w.devices.len()).map(|_| Arc::new(NsysTracer::new())).collect();
        let spec = {
            let tracers = tracers.clone();
            RankSubscriberSpec::new("per-rank-nsys", move |rank| {
                tracers[rank].clone() as Arc<dyn CuptiSubscriber>
            })
        };
        let config = RunConfig { rank_subscribers: vec![spec], ..RunConfig::default() };
        run_workload(&w, bundle.libraries(), &config).unwrap();
        for (rank, tracer) in tracers.iter().enumerate() {
            assert!(tracer.event_count() > 0, "rank {rank} subscriber saw no events");
        }
    }

    #[test]
    fn distributed_ranks_agree_and_report_eight_devices() {
        let bundle = cached_bundle(FrameworkKind::Vllm);
        let model = ModelKind::leaderboard_top9().remove(1); // 7.7 B — cheapest
        let w = Workload::distributed_a100(FrameworkKind::Vllm, model);
        let outcome = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap();
        assert_eq!(outcome.metrics.peak_device_bytes.len(), 8);
        assert!(outcome.metrics.launches > 0);
    }

    #[test]
    fn empty_device_list_is_an_error_not_a_panic() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        let mut w = mobilenet_infer();
        w.devices.clear();
        let err = run_workload(&w, bundle.libraries(), &RunConfig::default()).unwrap_err();
        assert!(matches!(err, SimmlError::InvalidWorkload { .. }));
    }

    #[test]
    fn missing_provider_is_reported() {
        let bundle = cached_bundle(FrameworkKind::PyTorch);
        // Only host-only libraries: GPU ops cannot resolve.
        let hostonly: Vec<GeneratedLibrary> =
            bundle.libraries().iter().filter(|l| !l.manifest.has_gpu_code).cloned().collect();
        let err = run_workload(&mobilenet_infer(), &hostonly, &RunConfig::default()).unwrap_err();
        assert!(matches!(err, SimmlError::NoProvider { .. }));
    }
}
