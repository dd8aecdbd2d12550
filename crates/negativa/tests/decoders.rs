//! Hostile-bytes tests of the three JSON decoders that read disk and
//! wire bytes: `plan.json`, the store manifest and the registry index.
//! A decoder handed a mutated document must answer `Ok` or `Err`,
//! never panic; an untouched one must round-trip byte for byte.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

use negativa_ml::manifest::{decode_plan, encode_plan, RegistryIndex, StoreManifest};
use negativa_ml::registry::Registry;
use negativa_ml::store::Store;
use negativa_ml::{BundlePlan, Debloater};
use simcuda::GpuModel;
use simml::Workload;

/// Mutants each decoder must survive.
const MUTANTS: usize = 2000;

/// The ten Table-1 plans on the T4, computed once for the test binary.
fn table1_plans() -> &'static [BundlePlan] {
    static PLANS: OnceLock<Vec<BundlePlan>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let debloater = Debloater::new(GpuModel::T4);
        Workload::paper_set()
            .into_iter()
            .map(|workload| {
                let (plan, _) = debloater
                    .session(workload.framework)
                    .plan_cached(std::slice::from_ref(&workload))
                    .expect("every Table-1 row plans");
                plan.as_ref().clone()
            })
            .collect()
    })
}

fn test_root(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("negativa-decoders-{}-{name}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    root
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn below(state: &mut u64, n: usize) -> usize {
    (xorshift(state) % n as u64) as usize
}

/// One seeded corruption: a byte flip, a truncation, a deletion of up
/// to 16 bytes, or an inserted `"`, `\`, `{`, `[` or digit.
///
/// The offset is log-uniform from the start or from the end, so the
/// fields that appear once (the version and header up front, the
/// baselines or records at the back) are hit as often as the repeated
/// entries in the middle.
fn mutate(doc: &str, state: &mut u64) -> Vec<u8> {
    const INSERTS: &[u8] = b"\"\\{[0123456789";
    let mut bytes = doc.as_bytes().to_vec();
    let span = (bytes.len() >> below(state, 16)).max(1);
    let offset = below(state, span);
    let at = if xorshift(state) & 1 == 0 { offset } else { bytes.len() - 1 - offset };
    match xorshift(state) % 4 {
        0 => bytes[at] ^= 1 + below(state, 255) as u8,
        1 => bytes.truncate(at),
        2 => {
            let end = (at + 1 + below(state, 16)).min(bytes.len());
            bytes.drain(at..end);
        }
        _ => bytes.insert(at, INSERTS[below(state, INSERTS.len())]),
    }
    bytes
}

/// Feed `MUTANTS` UTF-8 mutants of `doc` to `decode`; none may panic,
/// and some must be rejected (else the mutations never reached it).
fn survives_mutants<T>(name: &str, doc: &str, seed: u64, decode: fn(&str) -> Result<T, String>) {
    let mut state = seed;
    let (mut decoded, mut rejected) = (0, 0);
    while decoded < MUTANTS {
        let Ok(mutant) = String::from_utf8(mutate(doc, &mut state)) else {
            continue;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutant).is_err()));
        match outcome {
            Ok(is_err) => rejected += usize::from(is_err),
            Err(_) => panic!("{name}: mutant {decoded} of seed {seed:#x} panicked the decoder"),
        }
        decoded += 1;
    }
    assert!(rejected > 0, "{name}: no mutant was rejected, so none reached the decoder");
}

#[test]
fn table1_plans_round_trip_byte_identically() {
    for plan in table1_plans() {
        let text = encode_plan(plan);
        let decoded = decode_plan(&text).expect("an encoded plan decodes");
        assert_eq!(&decoded, plan, "{:?} plan survives field for field", plan.framework);
        assert_eq!(encode_plan(&decoded), text, "{:?} plan re-encodes identically", plan.framework);
    }
}

#[test]
fn decoders_never_panic_on_mutated_documents() {
    let plan = &table1_plans()[0];
    let artifact = Debloater::new(GpuModel::T4)
        .session(plan.framework)
        .debloat_many_artifact(&Workload::paper_set()[..1])
        .expect("the first Table-1 row debloats and verifies");

    let store_root = test_root("store");
    let manifest = Store::at(&store_root).publish(&artifact).expect("the store publishes").encode();
    let registry_root = test_root("registry");
    let registry = Registry::at(&registry_root);
    registry.publish(&artifact).expect("the registry publishes");
    let index = registry.index().expect("the index reads back").encode();

    survives_mutants("decode_plan", &encode_plan(plan), 0x51ed_270b_2a3d_98f1, decode_plan);
    survives_mutants(
        "StoreManifest::decode",
        &manifest,
        0x2545_f491_4f6c_dd1d,
        StoreManifest::decode,
    );
    survives_mutants("RegistryIndex::decode", &index, 0x9e37_79b9_7f4a_7c15, RegistryIndex::decode);

    fs::remove_dir_all(&store_root).ok();
    fs::remove_dir_all(&registry_root).ok();
}
