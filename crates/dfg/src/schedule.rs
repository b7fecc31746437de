//! Resource-constrained modulo scheduling.
//!
//! The paper folds scheduling into placement ("scheduling is contained in
//! placement", §1): each DFG node gets a time slice, and its *modulo* time
//! slice (`time % II`) selects which copy of the CGRA in the modulo
//! routing resource graph it may occupy. This module produces that time
//! assignment with a modulo list scheduler.

use crate::mii::{mii, ResourceModel};
use crate::{Dfg, NodeId, OpClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A modulo schedule: a start time per node under a given II.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    ii: u32,
    time: Vec<u32>,
    /// `time % ii` per node, kept because the search reads it per
    /// unplaced node on every dead-state check.
    slot: Vec<u32>,
}

impl Schedule {
    /// The initiation interval this schedule satisfies.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Absolute start time slice of `node`.
    #[must_use]
    pub fn time(&self, node: NodeId) -> u32 {
        self.time[node.index()]
    }

    /// Modulo time slice (`time % II`) of `node`.
    #[must_use]
    pub fn modulo_slot(&self, node: NodeId) -> u32 {
        self.slot[node.index()]
    }

    /// Total schedule length (latest start time + 1).
    #[must_use]
    pub fn makespan(&self) -> u32 {
        self.time.iter().copied().max().map_or(0, |t| t + 1)
    }

    /// Number of nodes sharing the modulo slice of `node`
    /// (feature (9) of §3.2.1, including the node itself).
    #[must_use]
    pub fn modulo_peers(&self, node: NodeId) -> usize {
        let slot = self.modulo_slot(node);
        self.time
            .iter()
            .enumerate()
            .filter(|&(i, &t)| t % self.ii == slot && i != node.index())
            .count()
            + 1
    }

    /// Nodes grouped by modulo slice, each inner vector in node-id order.
    #[must_use]
    pub fn slots(&self) -> Vec<Vec<NodeId>> {
        let mut slots = vec![Vec::new(); self.ii as usize];
        for (i, &t) in self.time.iter().enumerate() {
            slots[(t % self.ii) as usize].push(NodeId(i as u32));
        }
        slots
    }
}

/// Why modulo scheduling failed at a particular II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The fabric has no PE for a functional class the DFG needs.
    UnsupportedClass(OpClass),
    /// No schedule satisfying the resource and recurrence constraints was
    /// found at the requested II.
    Infeasible { ii: u32 },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnsupportedClass(c) => {
                write!(f, "fabric has no PE supporting {c} operations")
            }
            ScheduleError::Infeasible { ii } => {
                write!(f, "no modulo schedule exists at II = {ii}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Compute a modulo schedule for `dfg` at exactly the given `ii`.
///
/// Uses list scheduling in topological order: each node starts at the
/// earliest slice satisfying its forward dependences, then slides later
/// until its modulo slice has spare capacity (total and per functional
/// class). Loop-carried deadlines (`t(src) <= t(dst) + dist*II - latency`)
/// are verified afterwards; violation means infeasibility at this II.
///
/// # Errors
/// [`ScheduleError::UnsupportedClass`] if a needed class has no capable
/// PE; [`ScheduleError::Infeasible`] if no schedule exists at `ii`.
pub fn modulo_schedule_at(
    dfg: &Dfg,
    res: &ResourceModel,
    ii: u32,
) -> Result<Schedule, ScheduleError> {
    for class in OpClass::ALL {
        if dfg.class_counts()[class.index()] > 0 && res.per_class[class.index()] == 0 {
            return Err(ScheduleError::UnsupportedClass(class));
        }
    }
    let n = dfg.node_count();
    let mut time = vec![0u32; n];
    // Occupancy per modulo slot: total and per class.
    let mut used_total = vec![0usize; ii as usize];
    let mut used_class = vec![[0usize; 3]; ii as usize];
    // Bound how far a node may slide: beyond n*ii extra slots the modulo
    // pattern repeats, so nothing new can free up.
    let horizon = (n as u32 + 2) * ii;

    for &u in dfg.topological_order() {
        let mut earliest = 0u32;
        for e in dfg.in_edges(u) {
            if e.dist == 0 {
                let ready = time[e.src.index()] + dfg.node(e.src).opcode.latency();
                earliest = earliest.max(ready);
            }
        }
        let class = dfg.node(u).opcode.class().index();
        let mut t = earliest;
        let placed = loop {
            if t > earliest + horizon {
                break false;
            }
            let slot = (t % ii) as usize;
            if used_total[slot] < res.total && used_class[slot][class] < res.per_class[class] {
                break true;
            }
            t += 1;
        };
        if !placed {
            return Err(ScheduleError::Infeasible { ii });
        }
        time[u.index()] = t;
        let slot = (t % ii) as usize;
        used_total[slot] += 1;
        used_class[slot][class] += 1;
    }

    // Check loop-carried deadlines.
    for e in dfg.edges() {
        if e.dist > 0 {
            let lat = dfg.node(e.src).opcode.latency();
            if time[e.src.index()] + lat > time[e.dst.index()] + e.dist * ii {
                return Err(ScheduleError::Infeasible { ii });
            }
        }
    }
    let slot = time.iter().map(|t| t % ii).collect();
    Ok(Schedule { ii, time, slot })
}

/// Compute a modulo schedule, starting at MII and increasing the II until
/// one is found (bounded by `max_ii`).
///
/// Returns the first feasible schedule, which therefore has the smallest
/// II this scheduler can achieve.
///
/// # Errors
/// Propagates [`ScheduleError::UnsupportedClass`]; returns
/// [`ScheduleError::Infeasible`] with `ii = max_ii` when the bound is
/// exhausted.
pub fn modulo_schedule(
    dfg: &Dfg,
    res: &ResourceModel,
    max_ii: u32,
) -> Result<Schedule, ScheduleError> {
    let start = mii(dfg, res).ok_or_else(|| {
        let missing = OpClass::ALL
            .into_iter()
            .find(|c| dfg.class_counts()[c.index()] > 0 && res.per_class[c.index()] == 0)
            .unwrap_or(OpClass::Arithmetic);
        ScheduleError::UnsupportedClass(missing)
    })?;
    for ii in start..=max_ii.max(start) {
        match modulo_schedule_at(dfg, res, ii) {
            Ok(s) => return Ok(s),
            Err(ScheduleError::Infeasible { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(ScheduleError::Infeasible { ii: max_ii })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, Opcode};

    fn fanout_tree() -> Dfg {
        let mut b = DfgBuilder::new("tree");
        let root = b.node(Opcode::Load);
        let mids: Vec<_> = (0..4).map(|_| b.node(Opcode::Mul)).collect();
        let sink = b.node(Opcode::Store);
        for &m in &mids {
            b.edge(root, m).unwrap();
            b.edge(m, sink).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn schedule_respects_dependences() {
        let g = fanout_tree();
        let s = modulo_schedule(&g, &ResourceModel::homogeneous(16), 8).unwrap();
        for e in g.edges() {
            if e.dist == 0 {
                assert!(s.time(e.dst) > s.time(e.src), "edge {e:?}");
            }
        }
    }

    #[test]
    fn schedule_respects_modulo_capacity() {
        let g = fanout_tree();
        let res = ResourceModel::homogeneous(2);
        let s = modulo_schedule(&g, &res, 16).unwrap();
        let mut per_slot = vec![0usize; s.ii() as usize];
        for u in g.node_ids() {
            per_slot[s.modulo_slot(u) as usize] += 1;
        }
        assert!(per_slot.iter().all(|&c| c <= 2), "slots {per_slot:?}");
    }

    #[test]
    fn achieves_mii_on_easy_graph() {
        let g = fanout_tree(); // 6 nodes on 16 PEs: MII = 1
        let s = modulo_schedule(&g, &ResourceModel::homogeneous(16), 8).unwrap();
        assert_eq!(s.ii(), 1);
    }

    #[test]
    fn respects_per_class_capacity() {
        let mut b = DfgBuilder::new("mems");
        let l0 = b.node(Opcode::Load);
        let l1 = b.node(Opcode::Load);
        let a = b.node(Opcode::Add);
        b.edge(l0, a).unwrap();
        b.edge(l1, a).unwrap();
        let g = b.finish().unwrap();
        let res = ResourceModel { total: 8, per_class: [8, 8, 1] };
        let s = modulo_schedule(&g, &res, 8).unwrap();
        assert_eq!(s.ii(), 2);
        // The two loads land in different modulo slices.
        assert_ne!(s.modulo_slot(NodeId(0)), s.modulo_slot(NodeId(1)));
    }

    #[test]
    fn unsupported_class_reported() {
        let mut b = DfgBuilder::new("mem");
        b.node(Opcode::Load);
        let g = b.finish().unwrap();
        let res = ResourceModel { total: 4, per_class: [4, 4, 0] };
        assert_eq!(
            modulo_schedule(&g, &res, 4).unwrap_err(),
            ScheduleError::UnsupportedClass(OpClass::Memory)
        );
    }

    #[test]
    fn loop_carried_deadline_enforced() {
        // 3-long cycle carried over one iteration requires II >= 3.
        let mut b = DfgBuilder::new("rec");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Mul);
        let d = b.node(Opcode::Sub);
        b.edge(a, c).unwrap();
        b.edge(c, d).unwrap();
        b.back_edge(d, a, 1).unwrap();
        let g = b.finish().unwrap();
        let s = modulo_schedule(&g, &ResourceModel::homogeneous(16), 8).unwrap();
        assert_eq!(s.ii(), 3);
    }

    #[test]
    fn modulo_peers_counts_self() {
        let g = fanout_tree();
        let s = modulo_schedule(&g, &ResourceModel::homogeneous(16), 8).unwrap();
        assert_eq!(g.node_count(), 6);
        // With II = 1 every node shares the single slice.
        assert_eq!(s.modulo_peers(NodeId(0)), 6);
    }

    #[test]
    fn slots_partition_nodes() {
        let g = fanout_tree();
        let s = modulo_schedule(&g, &ResourceModel::homogeneous(2), 16).unwrap();
        let slots = s.slots();
        let count: usize = slots.iter().map(Vec::len).sum();
        assert_eq!(count, g.node_count());
    }
}
