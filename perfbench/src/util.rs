//! Seeded randomness, percentiles, process memory, the workload
//! catalogues and the Table-1 behaviour fingerprint.

use std::time::Duration;

use negativa_repro::cuda::{GpuModel, LoadMode};
use negativa_repro::ml::{FrameworkKind, ModelKind, Operation, Workload};
use negativa_repro::negativa::{FleetSpec, SmArch, Totals};

/// splitmix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless seeded draw from `0..n` without replacement inside each
/// round of `n`: every index appears once per round, in a fresh
/// shuffled order. Runs of different seeds then see the same mix.
#[derive(Debug)]
pub struct Rounds {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
}

impl Rounds {
    pub fn new(rng: Rng, n: usize) -> Rounds {
        Rounds { rng, order: (0..n).collect(), next: n }
    }

    pub fn draw(&mut self) -> usize {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Tracing overhead: mean traced op time over mean untraced op time,
/// minus one (0 until both kinds ran).
pub fn overhead(traced: &[f64], plain: &[f64]) -> f64 {
    if traced.is_empty() || plain.is_empty() {
        0.0
    } else {
        mean(traced) / mean(plain) - 1.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The GPU every workload targets (the paper's Table-1 T4).
pub const GPU: GpuModel = GpuModel::T4;

/// The 3-arch fleet (sm_75 + sm_80 + sm_90) of fleet-scoped debloats.
pub fn fleet() -> FleetSpec {
    FleetSpec::new(&[SmArch::SM75, SmArch::SM80, SmArch::SM90]).expect("three named archs")
}

fn row(framework: FrameworkKind, model: ModelKind, operation: Operation) -> Workload {
    Workload::paper(framework, model, operation)
}

/// Llama2 inference with lazy module loading: the second workload of
/// the LLM frameworks, which have a single Table-1 row each.
fn lazy_llama(framework: FrameworkKind) -> Workload {
    let mut workload = row(framework, ModelKind::Llama2, Operation::Inference);
    workload.load_mode = LoadMode::Lazy;
    workload
}

/// One catalogue entry: a single-framework workload set, planned for
/// the T4 alone or for the 3-arch fleet.
#[derive(Debug, Clone)]
pub struct Item {
    pub set: Vec<Workload>,
    pub fleet: bool,
}

impl Item {
    fn of(set: Vec<Workload>, fleet: bool) -> Item {
        Item { set, fleet }
    }

    pub fn framework(&self) -> FrameworkKind {
        self.set[0].framework
    }

    /// The Table-1 row this item is, when it is exactly one row on the
    /// T4 alone — the ops the behaviour fingerprint pins.
    pub fn table1_label(&self) -> Option<String> {
        (self.set.len() == 1 && !self.fleet && self.set[0].load_mode == LoadMode::Eager)
            .then(|| self.set[0].label())
    }
}

/// `cold-debloat`: the ten Table-1 rows, four same-framework 2-row
/// unions, and five fleet-scoped entries (5 of 19, about one op in
/// four).
pub fn cold_catalogue() -> Vec<Item> {
    use FrameworkKind::*;
    use ModelKind::*;
    use Operation::*;
    let mut items: Vec<Item> =
        Workload::paper_set().into_iter().map(|w| Item::of(vec![w], false)).collect();
    let unions = [
        vec![row(PyTorch, MobileNetV2, Train), row(PyTorch, MobileNetV2, Inference)],
        vec![row(PyTorch, Transformer, Train), row(PyTorch, Transformer, Inference)],
        vec![row(TensorFlow, MobileNetV2, Train), row(TensorFlow, Transformer, Inference)],
        vec![row(TensorFlow, MobileNetV2, Inference), row(TensorFlow, Transformer, Train)],
    ];
    items.extend(unions.iter().cloned().map(|set| Item::of(set, false)));
    let fleet_sets = [
        vec![row(PyTorch, MobileNetV2, Inference)],
        vec![row(TensorFlow, Transformer, Inference)],
        vec![row(Vllm, Llama2, Inference)],
        vec![row(Transformers, Llama2, Inference)],
        unions[1].clone(),
    ];
    items.extend(fleet_sets.into_iter().map(|set| Item::of(set, true)));
    items
}

/// `warm-service`: twelve sets over all four frameworks, most popular
/// first (the Zipf rank order).
pub fn warm_catalogue() -> Vec<Item> {
    use FrameworkKind::*;
    use ModelKind::*;
    use Operation::*;
    let mut items: Vec<Item> =
        Workload::paper_set().into_iter().map(|w| Item::of(vec![w], false)).collect();
    items.push(Item::of(
        vec![row(PyTorch, MobileNetV2, Train), row(PyTorch, MobileNetV2, Inference)],
        false,
    ));
    items.push(Item::of(
        vec![row(TensorFlow, Transformer, Train), row(TensorFlow, Transformer, Inference)],
        false,
    ));
    items
}

/// `registry-ship`: two artifacts per framework whose workload sets
/// overlap (the second extends the first).
pub fn ship_catalogue() -> Vec<Item> {
    use FrameworkKind::*;
    use ModelKind::*;
    use Operation::*;
    let pt = row(PyTorch, MobileNetV2, Inference);
    let tf = row(TensorFlow, MobileNetV2, Train);
    let vllm = row(Vllm, Llama2, Inference);
    let hft = row(Transformers, Llama2, Inference);
    vec![
        Item::of(vec![pt.clone()], false),
        Item::of(vec![pt, row(PyTorch, Transformer, Train)], false),
        Item::of(vec![tf.clone()], false),
        Item::of(vec![tf, row(TensorFlow, Transformer, Inference)], false),
        Item::of(vec![vllm], false),
        Item::of(vec![row(Vllm, Llama2, Inference), lazy_llama(Vllm)], false),
        Item::of(vec![hft], false),
        Item::of(vec![row(Transformers, Llama2, Inference), lazy_llama(Transformers)], false),
    ]
}

/// The checked-in behaviour fingerprint: per Table-1 row, the bundle's
/// file/host/device bytes before and after debloating and the output
/// checksum every run of that row must reproduce.
const FINGERPRINT: &str = include_str!("../table1.fingerprint");

/// One fingerprint line for a row's debloat.
pub fn fingerprint_line(label: &str, totals: &Totals, checksum: u64) -> String {
    format!(
        "{label} {} {} {} {} {} {} {checksum:016x}",
        totals.file_before,
        totals.file_after,
        totals.host_before,
        totals.host_after,
        totals.device_before,
        totals.device_after
    )
}

/// Whether a row's debloat matches the checked-in fingerprint exactly.
pub fn matches_fingerprint(label: &str, totals: &Totals, checksum: u64) -> bool {
    let line = fingerprint_line(label, totals, checksum);
    FINGERPRINT.lines().any(|expected| expected == line)
}
