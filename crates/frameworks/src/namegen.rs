//! Deterministic symbol and kernel name generation.
//!
//! Names mimic the shape of real mangled C++/CUDA symbols so listings
//! look plausible, and are fully determined by their inputs so every
//! bundle generation is reproducible.

use crate::ops::OpFamily;

/// FNV-1a (used for stable name suffixes; independent of `simcuda`'s
/// internal hashing). It stays FNV-1a because its values pick generated
/// names and seed output checksums: changing it changes every bundle
/// and the Table-1 behaviour fingerprint that pins them.
pub fn stable_hash(parts: &[&str]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x1f;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Name of an infrastructure (always-executed) host function.
pub fn infra_fn(lib_tag: &str, index: usize) -> String {
    format!("_ZN3{lib_tag}6detail11infra_op{index:05}Ev")
}

/// Name of a cold (never-executed) host function.
pub fn cold_fn(lib_tag: &str, index: usize) -> String {
    format!("_ZN3{lib_tag}8internal10cold_fn{index:06}Ev")
}

/// Name of an op-family dispatch host function.
pub fn op_fn(lib_tag: &str, family: OpFamily, index: usize) -> String {
    format!("_ZN3{lib_tag}6native{}_dispatch_{index:04}Ev", family.token())
}

/// Name of a kernel (entry or device) in a cubin group.
///
/// `group` distinguishes variants of the same family (tile sizes, data
/// types); `kernel` indexes kernels within the group's cubin.
pub fn kernel_name(lib_tag: &str, family: OpFamily, group: usize, kernel: usize) -> String {
    let h = stable_hash(&[lib_tag, family.token()]) & 0xffff;
    format!("_ZN7{lib_tag}4cuda{}_kernel_v{group}_{kernel}_tile{h:04x}Ev", family.token())
}

/// Soname for a generated tail library.
pub fn tail_soname(framework: &str, category: &str, index: usize) -> String {
    format!("lib{framework}_{category}_{index:03}.so")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_deterministic() {
        assert_eq!(
            kernel_name("torch", OpFamily::Conv, 3, 1),
            kernel_name("torch", OpFamily::Conv, 3, 1)
        );
        assert_eq!(infra_fn("tf", 12), infra_fn("tf", 12));
    }

    #[test]
    fn names_distinguish_inputs() {
        assert_ne!(
            kernel_name("torch", OpFamily::Conv, 3, 1),
            kernel_name("torch", OpFamily::Conv, 4, 1)
        );
        assert_ne!(
            kernel_name("torch", OpFamily::Conv, 3, 1),
            kernel_name("torch", OpFamily::Softmax, 3, 1)
        );
        assert_ne!(op_fn("a", OpFamily::Conv, 0), op_fn("b", OpFamily::Conv, 0));
        assert_ne!(cold_fn("a", 1), infra_fn("a", 1));
    }

    #[test]
    fn stable_hash_sensitive_to_part_boundaries() {
        assert_ne!(stable_hash(&["ab", "c"]), stable_hash(&["a", "bc"]));
    }
}
