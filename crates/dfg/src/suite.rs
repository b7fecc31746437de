//! The benchmark DFG suite of Table 2.
//!
//! The paper extracts these loop kernels from Microbench, the ExPRESS
//! benchmarks, and Embench-IoT with LLVM. We do not ship LLVM; instead
//! each kernel is synthesized deterministically with **exactly** the
//! vertex and edge counts of Table 2, a realistic op-class profile
//! (loads at the roots, arithmetic/logical interior, stores at the
//! sinks) and accumulation self-cycles on the reduction kernels. The
//! mapper only observes graph structure and opcodes, so this exercises
//! the same code paths as LLVM-extracted DFGs (see DESIGN.md §2).

use crate::random::{random_dfg, RandomDfgConfig};
use crate::Dfg;

/// Static description of one suite kernel (one row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Kernel name as printed in Table 2.
    pub name: &'static str,
    /// Vertex count |V|.
    pub vertices: usize,
    /// Edge count |E| (including loop-carried edges).
    pub edges: usize,
    /// Number of accumulation self-cycles synthesized.
    pub self_cycles: usize,
    /// Whether this is one of the unrolled scalability kernels.
    pub unrolled: bool,
}

/// All Table 2 kernels in the paper's (alphabetical) order.
pub const KERNELS: [KernelSpec; 18] = [
    KernelSpec { name: "accumulate", vertices: 21, edges: 25, self_cycles: 1, unrolled: false },
    KernelSpec { name: "arf", vertices: 54, edges: 86, self_cycles: 0, unrolled: false },
    KernelSpec { name: "cap", vertices: 42, edges: 47, self_cycles: 0, unrolled: false },
    KernelSpec { name: "conv2", vertices: 18, edges: 20, self_cycles: 0, unrolled: false },
    KernelSpec { name: "conv3", vertices: 28, edges: 31, self_cycles: 0, unrolled: false },
    KernelSpec { name: "filter_u", vertices: 180, edges: 201, self_cycles: 0, unrolled: true },
    KernelSpec { name: "huf_u", vertices: 592, edges: 720, self_cycles: 0, unrolled: true },
    KernelSpec { name: "h2v2", vertices: 68, edges: 71, self_cycles: 0, unrolled: false },
    KernelSpec { name: "jpegdct_u", vertices: 255, edges: 295, self_cycles: 0, unrolled: true },
    KernelSpec { name: "mac", vertices: 12, edges: 14, self_cycles: 1, unrolled: false },
    KernelSpec { name: "mac2", vertices: 40, edges: 46, self_cycles: 1, unrolled: false },
    KernelSpec { name: "matmul", vertices: 26, edges: 28, self_cycles: 1, unrolled: false },
    KernelSpec { name: "mults1", vertices: 34, edges: 38, self_cycles: 0, unrolled: false },
    KernelSpec { name: "mults2", vertices: 42, edges: 48, self_cycles: 0, unrolled: false },
    KernelSpec { name: "mulul", vertices: 97, edges: 108, self_cycles: 0, unrolled: false },
    KernelSpec { name: "sort_u", vertices: 328, edges: 400, self_cycles: 0, unrolled: true },
    KernelSpec { name: "stencil_u", vertices: 141, edges: 159, self_cycles: 0, unrolled: true },
    KernelSpec { name: "sum", vertices: 8, edges: 9, self_cycles: 1, unrolled: false },
];

/// Instantiate one kernel from its spec.
#[must_use]
pub fn build(spec: &KernelSpec) -> Dfg {
    // Seed derived from the name so every kernel is unique but stable.
    let seed = spec
        .name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    let cfg = RandomDfgConfig {
        nodes: spec.vertices,
        edges: spec.edges,
        self_cycles: spec.self_cycles,
        max_fanin: 3,
        seed,
    };
    random_dfg(spec.name, &cfg)
}

/// Build the whole suite in Table 2 order.
#[must_use]
pub fn all() -> Vec<Dfg> {
    KERNELS.iter().map(build).collect()
}

/// The non-unrolled kernels used for the mapping-quality experiments
/// (Figs. 8–11, 13 of the paper use the unrolled ones separately).
#[must_use]
pub fn standard() -> Vec<Dfg> {
    KERNELS.iter().filter(|k| !k.unrolled).map(build).collect()
}

/// The unrolled kernels used for the scalability study (Fig. 13).
#[must_use]
pub fn unrolled() -> Vec<Dfg> {
    KERNELS.iter().filter(|k| k.unrolled).map(build).collect()
}

/// Look a kernel up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Dfg> {
    KERNELS.iter().find(|k| k.name == name).map(build)
}

/// A small, quick-to-map subset used by examples and smoke tests.
#[must_use]
pub fn small() -> Vec<Dfg> {
    ["sum", "mac", "conv2", "accumulate"]
        .iter()
        .map(|n| by_name(n).expect("kernel exists"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::tests::is_weakly_connected;

    #[test]
    fn table2_counts_match_exactly() {
        for spec in &KERNELS {
            let g = build(spec);
            assert_eq!(g.node_count(), spec.vertices, "{} |V|", spec.name);
            assert_eq!(g.edge_count(), spec.edges, "{} |E|", spec.name);
        }
    }

    #[test]
    fn reduction_kernels_have_self_cycles() {
        for name in ["accumulate", "mac", "mac2", "matmul", "sum"] {
            let g = by_name(name).unwrap();
            assert!(
                g.node_ids().any(|u| g.node(u).has_self_cycle),
                "{name} should carry an accumulator"
            );
        }
    }

    #[test]
    fn all_kernels_connected() {
        for g in all() {
            assert!(is_weakly_connected(&g), "{} disconnected", g.name());
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = by_name("arf").unwrap();
        let b = by_name("arf").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn standard_and_unrolled_partition_suite() {
        assert_eq!(standard().len() + unrolled().len(), KERNELS.len());
        assert_eq!(unrolled().len(), 5);
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn kernels_use_memory_and_arithmetic() {
        for g in standard() {
            let counts = g.class_counts();
            assert!(counts[1] > 0, "{} has arithmetic", g.name());
            assert!(counts[2] > 0, "{} has memory ops", g.name());
        }
    }
}
