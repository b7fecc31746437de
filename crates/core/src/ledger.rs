//! The modulo routing resource ledger.
//!
//! Tracks, per modulo time slice, which DFG node occupies each PE's
//! functional unit, which *signal* (producer node) occupies each PE's
//! output register and crossbar switch, and — for ADRES-style fabrics —
//! which rows' shared memory buses are held.
//!
//! All claims are journaled so the environment, the MCTS rollouts and
//! the exact branch-and-bound baseline can undo back to any checkpoint
//! in O(#claims).

use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::NodeId;

/// A single resource coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Functional unit of a PE in a modulo slice.
    Fu { pe: PeId, slot: u32 },
    /// Output register of a PE in a modulo slice (holds one signal).
    Reg { pe: PeId, slot: u32 },
    /// Crossbar switch of a PE at the boundary entering a slice.
    Switch { pe: PeId, slot: u32 },
    /// Row-shared memory bus in a modulo slice.
    MemBus { row: usize, slot: u32 },
}

/// Journaled occupancy state for one fabric at one II.
#[derive(Debug, Clone)]
pub struct Ledger {
    ii: u32,
    pes: usize,
    rows: usize,
    /// `fu[slot * pes + pe]` — the node computing there.
    fu: Vec<Option<NodeId>>,
    /// Bitset words per slot in `fu_busy`.
    words: usize,
    /// `fu_busy[slot * words ..]` — bit `pe` set iff `fu` holds a node.
    fu_busy: Vec<u64>,
    /// `reg[slot * pes + pe]` — the signal (producer node) parked there.
    reg: Vec<Option<NodeId>>,
    /// `switch[slot * pes + pe]` — the signal crossing there.
    switch: Vec<Option<NodeId>>,
    /// `row_pes[row * words ..]` — the PEs of a row, as a bitset.
    row_pes: Vec<u64>,
    /// `bus_busy[slot * words ..]` — bit `pe` set iff `pe`'s row bus is
    /// held in that slot.
    bus_busy: Vec<u64>,
    journal: Vec<Resource>,
}

/// A checkpoint into the ledger journal; undoing to it releases every
/// claim made after it was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

impl Ledger {
    /// Fresh, empty ledger for `cgra` at initiation interval `ii`.
    ///
    /// # Panics
    /// Panics if `ii == 0`.
    #[must_use]
    pub fn new(cgra: &Cgra, ii: u32) -> Self {
        assert!(ii > 0, "II must be positive");
        let pes = cgra.pe_count();
        let rows = cgra.rows();
        let n = ii as usize * pes;
        let words = pes.div_ceil(64);
        let mut row_pes = vec![0u64; rows * words];
        for p in cgra.pe_ids() {
            row_pes[cgra.pe(p).row * words + p.index() / 64] |= 1u64 << (p.index() % 64);
        }
        Ledger {
            ii,
            pes,
            rows,
            fu: vec![None; n],
            words,
            fu_busy: vec![0; ii as usize * words],
            reg: vec![None; n],
            switch: vec![None; n],
            row_pes,
            bus_busy: vec![0; ii as usize * words],
            journal: Vec::new(),
        }
    }

    /// The II this ledger models.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Flat index of a `(pe, slot)` coordinate. Callers are produced by
    /// the problem's action space and the router's neighbour walks, so
    /// both components are in range by construction; the debug_asserts
    /// pin that invariant while release builds fall back to "absent /
    /// unclaimable" via the checked accessors below.
    fn idx(&self, pe: PeId, slot: u32) -> usize {
        debug_assert!(slot < self.ii, "slot {slot} out of range for II {}", self.ii);
        debug_assert!(pe.index() < self.pes, "{pe} out of range for {} PEs", self.pes);
        slot as usize * self.pes + pe.index()
    }

    /// Index into `fu_busy` of the word holding `(pe, slot)` (same
    /// invariant as [`Ledger::idx`]).
    fn busy_word(&self, pe: PeId, slot: u32) -> usize {
        slot as usize * self.words + pe.index() / 64
    }

    /// Occupied functional units of a slot as a bitset (bit `pe` set iff
    /// a node computes there).
    #[must_use]
    pub(crate) fn fu_busy(&self, slot: u32) -> &[u64] {
        let start = slot as usize * self.words;
        &self.fu_busy[start..start + self.words]
    }

    /// PEs whose row bus is held in a slot, as a bitset.
    #[must_use]
    pub(crate) fn bus_busy(&self, slot: u32) -> &[u64] {
        let start = slot as usize * self.words;
        &self.bus_busy[start..start + self.words]
    }

    /// Set (`hold`) or clear the bits of `row`'s PEs in `bus_busy` for
    /// `slot`.
    fn mark_bus(&mut self, row: usize, slot: u32, hold: bool) {
        let busy = &mut self.bus_busy[slot as usize * self.words..][..self.words];
        for (b, &r) in busy.iter_mut().zip(&self.row_pes[row * self.words..]) {
            *b = if hold { *b | r } else { *b & !r };
        }
    }

    /// Occupant of a functional unit.
    #[must_use]
    pub fn fu(&self, pe: PeId, slot: u32) -> Option<NodeId> {
        self.fu.get(self.idx(pe, slot)).copied().flatten()
    }

    /// Signal in a register.
    #[must_use]
    pub fn reg(&self, pe: PeId, slot: u32) -> Option<NodeId> {
        self.reg.get(self.idx(pe, slot)).copied().flatten()
    }

    /// Signal in a switch.
    #[must_use]
    pub fn switch(&self, pe: PeId, slot: u32) -> Option<NodeId> {
        self.switch.get(self.idx(pe, slot)).copied().flatten()
    }

    /// True when `row`'s memory bus is held in `slot`.
    fn membus_held(&self, row: usize, slot: u32) -> bool {
        let row_pes = &self.row_pes[row * self.words..][..self.words];
        self.bus_busy(slot).iter().zip(row_pes).any(|(&b, &r)| b & r != 0)
    }

    /// Take a checkpoint for later [`Ledger::undo_to`].
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.journal.len())
    }

    /// Release all claims made since `cp`.
    ///
    /// # Panics
    /// Panics if `cp` is newer than the journal (wrong ledger or already
    /// undone past it).
    pub fn undo_to(&mut self, cp: Checkpoint) {
        assert!(cp.0 <= self.journal.len(), "checkpoint from the future");
        // The loop condition guarantees the journal is non-empty.
        while self.journal.len() > cp.0 {
            let Some(r) = self.journal.pop() else { break };
            match r {
                Resource::Fu { pe, slot } => {
                    let i = self.idx(pe, slot);
                    if let Some(cell) = self.fu.get_mut(i) {
                        *cell = None;
                        let w = self.busy_word(pe, slot);
                        self.fu_busy[w] &= !(1u64 << (pe.index() % 64));
                    }
                }
                Resource::Reg { pe, slot } => {
                    let i = self.idx(pe, slot);
                    if let Some(cell) = self.reg.get_mut(i) {
                        *cell = None;
                    }
                }
                Resource::Switch { pe, slot } => {
                    let i = self.idx(pe, slot);
                    if let Some(cell) = self.switch.get_mut(i) {
                        *cell = None;
                    }
                }
                Resource::MemBus { row, slot } => self.mark_bus(row, slot, false),
            }
        }
    }

    /// Claim a functional unit for `node`. Fails (returns `false`,
    /// claiming nothing) if occupied.
    pub fn claim_fu(&mut self, pe: PeId, slot: u32, node: NodeId) -> bool {
        let i = self.idx(pe, slot);
        // An out-of-range coordinate is simply unclaimable.
        let Some(cell) = self.fu.get_mut(i) else { return false };
        if cell.is_some() {
            return false;
        }
        *cell = Some(node);
        self.journal.push(Resource::Fu { pe, slot });
        let w = self.busy_word(pe, slot);
        self.fu_busy[w] |= 1u64 << (pe.index() % 64);
        true
    }

    /// Claim a register for `signal`; sharing with the same signal is
    /// free and not journaled. Returns `false` on conflict.
    pub fn claim_reg(&mut self, pe: PeId, slot: u32, signal: NodeId) -> bool {
        let i = self.idx(pe, slot);
        let Some(cell) = self.reg.get_mut(i) else { return false };
        match *cell {
            Some(s) if s == signal => true,
            Some(_) => false,
            None => {
                *cell = Some(signal);
                self.journal.push(Resource::Reg { pe, slot });
                true
            }
        }
    }

    /// Claim a switch for `signal`; same-signal sharing allowed.
    pub fn claim_switch(&mut self, pe: PeId, slot: u32, signal: NodeId) -> bool {
        let i = self.idx(pe, slot);
        let Some(cell) = self.switch.get_mut(i) else { return false };
        match *cell {
            Some(s) if s == signal => true,
            Some(_) => false,
            None => {
                *cell = Some(signal);
                self.journal.push(Resource::Switch { pe, slot });
                true
            }
        }
    }

    /// Claim a row memory bus. Fails (returns `false`, claiming nothing)
    /// if it is held or out of range.
    pub fn claim_membus(&mut self, row: usize, slot: u32) -> bool {
        if row >= self.rows || slot >= self.ii || self.membus_held(row, slot) {
            return false;
        }
        self.journal.push(Resource::MemBus { row, slot });
        self.mark_bus(row, slot, true);
        true
    }

    /// True when the register is free or already holds `signal`.
    #[must_use]
    pub fn reg_available(&self, pe: PeId, slot: u32, signal: NodeId) -> bool {
        match self.reg(pe, slot) {
            None => true,
            Some(s) => s == signal,
        }
    }

    /// True when the switch is free or already holds `signal`.
    #[must_use]
    pub fn switch_available(&self, pe: PeId, slot: u32, signal: NodeId) -> bool {
        match self.switch(pe, slot) {
            None => true,
            Some(s) => s == signal,
        }
    }

    /// Number of free functional units in a slot.
    #[must_use]
    pub fn free_fus(&self, slot: u32) -> usize {
        (0..self.pes)
            .filter(|&p| self.fu(PeId(p as u32), slot).is_none())
            .count()
    }

    /// Occupancy of one slice as `Option<node id>` per PE, for the GAT
    /// feature encoder.
    #[must_use]
    pub fn slice_occupancy(&self, slot: u32) -> Vec<Option<usize>> {
        (0..self.pes)
            .map(|p| self.fu(PeId(p as u32), slot).map(|n| n.index()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_arch::presets;

    fn ledger() -> Ledger {
        Ledger::new(&presets::simple_mesh(2, 2), 2)
    }

    #[test]
    fn fu_exclusive() {
        let mut l = ledger();
        assert!(l.claim_fu(PeId(0), 0, NodeId(1)));
        assert!(!l.claim_fu(PeId(0), 0, NodeId(2)));
        assert!(l.claim_fu(PeId(0), 1, NodeId(2))); // other slot fine
        assert_eq!(l.fu(PeId(0), 0), Some(NodeId(1)));
    }

    #[test]
    fn registers_share_same_signal_only() {
        let mut l = ledger();
        assert!(l.claim_reg(PeId(1), 0, NodeId(7)));
        assert!(l.claim_reg(PeId(1), 0, NodeId(7))); // same signal: ok
        assert!(!l.claim_reg(PeId(1), 0, NodeId(8))); // conflict
        assert!(l.reg_available(PeId(1), 0, NodeId(7)));
        assert!(!l.reg_available(PeId(1), 0, NodeId(8)));
    }

    #[test]
    fn undo_releases_everything_after_checkpoint() {
        let mut l = ledger();
        assert!(l.claim_fu(PeId(0), 0, NodeId(1)));
        let cp = l.checkpoint();
        assert!(l.claim_fu(PeId(1), 0, NodeId(2)));
        assert!(l.claim_reg(PeId(2), 1, NodeId(2)));
        assert!(l.claim_switch(PeId(3), 0, NodeId(2)));
        assert!(l.claim_membus(0, 0));
        assert!(!l.claim_membus(0, 0), "bus already held");
        // Row 0 of the 2x2 mesh is PEs 0 and 1.
        assert_eq!(l.bus_busy(0), &[0b0011]);
        assert_eq!(l.bus_busy(1), &[0]);
        l.undo_to(cp);
        assert_eq!(l.fu(PeId(1), 0), None);
        assert_eq!(l.reg(PeId(2), 1), None);
        assert_eq!(l.switch(PeId(3), 0), None);
        assert!(!l.membus_held(0, 0));
        assert_eq!(l.bus_busy(0), &[0]);
        // The pre-checkpoint claim survives.
        assert_eq!(l.fu(PeId(0), 0), Some(NodeId(1)));
    }

    #[test]
    fn shared_claims_not_double_released() {
        let mut l = ledger();
        assert!(l.claim_reg(PeId(0), 0, NodeId(5)));
        let cp = l.checkpoint();
        // Re-claiming the same signal journals nothing…
        assert!(l.claim_reg(PeId(0), 0, NodeId(5)));
        l.undo_to(cp);
        // …so the original claim is still held.
        assert_eq!(l.reg(PeId(0), 0), Some(NodeId(5)));
    }

    #[test]
    fn free_fus_counts() {
        let mut l = ledger();
        assert_eq!(l.free_fus(0), 4);
        l.claim_fu(PeId(0), 0, NodeId(0));
        assert_eq!(l.free_fus(0), 3);
        assert_eq!(l.free_fus(1), 4);
    }

    #[test]
    fn slice_occupancy_reports_nodes() {
        let mut l = ledger();
        l.claim_fu(PeId(2), 1, NodeId(9));
        let occ = l.slice_occupancy(1);
        assert_eq!(occ[2], Some(9));
        assert_eq!(occ[0], None);
    }

    #[test]
    #[should_panic(expected = "checkpoint from the future")]
    fn stale_checkpoint_panics() {
        let mut l = ledger();
        l.claim_fu(PeId(0), 0, NodeId(0));
        let cp = l.checkpoint();
        l.undo_to(Checkpoint(0));
        l.undo_to(cp);
    }
}
