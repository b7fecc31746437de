//! Random DFG generation for curriculum pre-training (§3.6.2).
//!
//! The paper pre-trains the agent on "a random set of DFGs ... in the
//! order of ease to hard" with 3–30 nodes. [`random_dfg`] produces
//! deterministic, connected, realistic-looking loop kernels from a seed;
//! [`curriculum`] produces the easy→hard sequence.

use crate::{Dfg, DfgBuilder, Opcode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the random DFG generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDfgConfig {
    /// Number of operations.
    pub nodes: usize,
    /// Total number of dependences (forward + loop-carried). Clamped to
    /// the feasible range `[nodes - 1, max]` internally.
    pub edges: usize,
    /// Number of accumulation self-cycles (distance-1 back edges on a
    /// node), drawn from the edge budget.
    pub self_cycles: usize,
    /// Maximum in-degree of any node (operand count cap).
    pub max_fanin: usize,
    /// RNG seed; equal seeds give identical graphs.
    pub seed: u64,
}

impl Default for RandomDfgConfig {
    fn default() -> Self {
        RandomDfgConfig { nodes: 12, edges: 15, self_cycles: 0, max_fanin: 3, seed: 0 }
    }
}

/// Generate a random connected DFG with exactly `cfg.nodes` nodes and
/// exactly `clamped(cfg.edges)` edges.
///
/// Construction: nodes are created in topological order; every node after
/// the first receives one edge from a recent predecessor (connectivity),
/// then extra forward edges are added until the budget is spent, then the
/// requested number of self-cycles. Sources become loads/constants, sinks
/// become stores, interior nodes get an arithmetic/logical mix — matching
/// the op-class profile of LLVM-extracted loop kernels.
///
/// # Panics
/// Panics if `cfg.nodes == 0` or `cfg.max_fanin == 0`.
#[must_use]
// The construction loops index `fanin`/`fanout` by both endpoints of
// each edge; an enumerate() rewrite would obscure that symmetry.
#[allow(clippy::needless_range_loop)]
pub fn random_dfg(name: &str, cfg: &RandomDfgConfig) -> Dfg {
    assert!(cfg.nodes > 0, "need at least one node");
    assert!(cfg.max_fanin > 0, "max_fanin must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6d61_707a_6572_6f00);
    let n = cfg.nodes;
    let min_edges = n.saturating_sub(1);
    let self_cycles = cfg.self_cycles.min(n);
    let max_forward = max_forward_edges(n, cfg.max_fanin);
    let forward = cfg
        .edges
        .saturating_sub(self_cycles)
        .clamp(min_edges, max_forward.max(min_edges));

    // Adjacency bookkeeping during construction.
    let mut fanin = vec![0usize; n];
    let mut fanout = vec![0usize; n];
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(forward);
    let mut has = std::collections::HashSet::new();

    // Spanning structure: connect i to a recent ancestor.
    for i in 1..n {
        let window = 6.min(i);
        let j = i - 1 - rng.gen_range(0..window);
        edges.push((j, i));
        has.insert((j, i));
        fanin[i] += 1;
        fanout[j] += 1;
    }

    // Extra forward edges.
    let mut guard = 0usize;
    while edges.len() < forward && guard < forward * 200 {
        guard += 1;
        let i = rng.gen_range(1..n);
        if fanin[i] >= cfg.max_fanin {
            continue;
        }
        let window = 10.min(i);
        let j = i - 1 - rng.gen_range(0..window);
        if has.contains(&(j, i)) {
            continue;
        }
        edges.push((j, i));
        has.insert((j, i));
        fanin[i] += 1;
        fanout[j] += 1;
    }
    // Fall back to exhaustive fill if random probing stalled.
    if edges.len() < forward {
        'outer: for i in 1..n {
            for j in (0..i).rev() {
                if edges.len() >= forward {
                    break 'outer;
                }
                if fanin[i] < cfg.max_fanin && !has.contains(&(j, i)) {
                    edges.push((j, i));
                    has.insert((j, i));
                    fanin[i] += 1;
                    fanout[j] += 1;
                }
            }
        }
    }

    // Opcode assignment by role.
    let interior_pool = [
        Opcode::Add,
        Opcode::Mul,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Shl,
        Opcode::And,
        Opcode::Cmp,
        Opcode::Xor,
        Opcode::Add,
    ];
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let op = if fanin[i] == 0 {
            if rng.gen_bool(0.6) {
                Opcode::Load
            } else {
                Opcode::Const
            }
        } else if fanout[i] == 0 {
            Opcode::Store
        } else {
            interior_pool[rng.gen_range(0..interior_pool.len())]
        };
        ops.push(op);
    }
    // Guarantee the documented profile: every kernel carries at least
    // one arithmetic op (small graphs can otherwise draw all-logical
    // interiors and all-load sources).
    if !ops.iter().any(|o| o.class() == crate::OpClass::Arithmetic) {
        if let Some(i) = (0..n).find(|&i| fanin[i] > 0 && fanout[i] > 0) {
            ops[i] = Opcode::Add;
        }
    }
    let mut b = DfgBuilder::new(name);
    let mut ids = Vec::with_capacity(n);
    for &op in &ops {
        ids.push(b.node(op));
    }
    for &(j, i) in &edges {
        b.edge(ids[j], ids[i]).expect("construction guarantees validity");
    }
    // Self cycles on interior arithmetic nodes (accumulators).
    let mut candidates: Vec<usize> =
        (0..n).filter(|&i| fanin[i] > 0 && fanout[i] > 0).collect();
    if candidates.is_empty() {
        candidates = (0..n).collect();
    }
    for k in 0..self_cycles {
        let i = candidates[k % candidates.len()];
        // Skip if a duplicate self-edge would arise (possible when
        // self_cycles exceeds candidate count).
        if !b.has_edge(ids[i], ids[i]) {
            b.back_edge(ids[i], ids[i], 1).expect("valid self cycle");
        }
    }
    b.finish().expect("generator builds valid DAGs")
}

fn max_forward_edges(n: usize, max_fanin: usize) -> usize {
    // Node i can take at most min(i, max_fanin) incoming edges.
    (0..n).map(|i| i.min(max_fanin)).sum()
}

/// Generate the curriculum of §3.6.2: random DFGs ordered easy → hard
/// (node counts from `min_nodes` to `max_nodes`, `per_size` graphs each).
#[must_use]
pub fn curriculum(min_nodes: usize, max_nodes: usize, per_size: usize, seed: u64) -> Vec<Dfg> {
    let mut out = Vec::new();
    for nodes in min_nodes..=max_nodes {
        for k in 0..per_size {
            let cfg = RandomDfgConfig {
                nodes,
                edges: nodes + nodes / 4,
                self_cycles: usize::from(nodes >= 8 && k % 3 == 0),
                max_fanin: 3,
                seed: seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((nodes * 131 + k) as u64),
            };
            out.push(random_dfg(&format!("rand_{nodes}_{k}"), &cfg));
        }
    }
    out
}

/// Maximum fan-out over all nodes — a quick congestion indicator.
#[must_use]
pub fn max_fanout(dfg: &Dfg) -> usize {
    dfg.node_ids().map(|u| dfg.out_degree(u)).max().unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::NodeId;

    /// Maximum fan-in over all nodes.
    fn max_fanin_of(dfg: &Dfg) -> usize {
        dfg.node_ids().map(|u| dfg.in_degree(u)).max().unwrap_or(0)
    }

    /// Structural sanity: connected in the undirected sense (the suite
    /// tests check it too).
    pub(crate) fn is_weakly_connected(dfg: &Dfg) -> bool {
        let n = dfg.node_count();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for e in dfg.out_edges(u) {
                if !seen[e.dst.index()] {
                    seen[e.dst.index()] = true;
                    stack.push(e.dst);
                }
            }
            for e in dfg.in_edges(u) {
                if !seen[e.src.index()] {
                    seen[e.src.index()] = true;
                    stack.push(e.src);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    #[test]
    fn exact_node_and_edge_counts() {
        for seed in 0..10 {
            let cfg = RandomDfgConfig { nodes: 20, edges: 26, self_cycles: 1, seed, ..Default::default() };
            let g = random_dfg("t", &cfg);
            assert_eq!(g.node_count(), 20);
            assert_eq!(g.edge_count(), 26, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomDfgConfig { nodes: 15, edges: 20, seed: 42, ..Default::default() };
        let a = random_dfg("a", &cfg);
        let b = random_dfg("a", &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            random_dfg("x", &RandomDfgConfig { nodes: 15, edges: 20, seed, ..Default::default() })
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn generated_graphs_are_connected() {
        for seed in 0..20 {
            let cfg = RandomDfgConfig { nodes: 10, edges: 13, seed, ..Default::default() };
            assert!(is_weakly_connected(&random_dfg("c", &cfg)));
        }
    }

    #[test]
    fn fanin_cap_respected() {
        let cfg = RandomDfgConfig { nodes: 30, edges: 70, max_fanin: 2, seed: 7, ..Default::default() };
        let g = random_dfg("f", &cfg);
        // Self cycles excluded: cfg requests none.
        assert!(max_fanin_of(&g) <= 2);
    }

    #[test]
    fn curriculum_is_ordered_easy_to_hard() {
        let c = curriculum(3, 10, 2, 99);
        assert_eq!(c.len(), 16);
        // Graphs grow (never shrink) from the first to the last.
        let sizes: Vec<usize> = c.iter().map(Dfg::node_count).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        assert!(sizes.first() < sizes.last());
    }

    #[test]
    fn single_node_graph_supported() {
        let cfg = RandomDfgConfig { nodes: 1, edges: 0, ..Default::default() };
        let g = random_dfg("one", &cfg);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edge_budget_clamped_to_feasible_range() {
        // Requesting absurdly many edges still terminates with the max.
        let cfg = RandomDfgConfig { nodes: 5, edges: 1000, max_fanin: 3, ..Default::default() };
        let g = random_dfg("clamp", &cfg);
        assert_eq!(g.node_count(), 5);
        assert!(g.edge_count() <= 1 + 2 + 3 + 3);
    }
}
