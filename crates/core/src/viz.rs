//! Human-readable rendering of mappings: per-slice ASCII grids and a
//! one-line summary.

use crate::mapping::{Mapping, RouteHop};
use mapzero_arch::Cgra;
use mapzero_dfg::Dfg;
use std::fmt::Write as _;

/// Render the mapping as one ASCII grid per modulo time slice. Each
/// cell shows the DFG node computing there (`nK`), a routing-only PE
/// (`~`), or an idle PE (`.`).
#[must_use]
pub fn ascii_grids(mapping: &Mapping, dfg: &Dfg, cgra: &Cgra) -> String {
    let mut out = String::new();
    for slot in 0..mapping.ii {
        let _ = writeln!(out, "slice {slot}/{}:", mapping.ii);
        // Compute cell contents.
        let mut cells: Vec<String> = vec![".".to_owned(); cgra.pe_count()];
        for hops in &mapping.routes {
            for hop in hops {
                let (RouteHop::Register { pe, slot: s } | RouteHop::Switch { pe, slot: s }) =
                    hop;
                if *s == slot {
                    cells[pe.index()] = "~".to_owned();
                }
            }
        }
        for u in dfg.node_ids() {
            let p = mapping.placement(u);
            if p.time % mapping.ii == slot {
                cells[p.pe.index()] = format!("n{}", u.0);
            }
        }
        let width = cells.iter().map(String::len).max().unwrap_or(1).max(3);
        for row in 0..cgra.rows() {
            out.push(' ');
            for col in 0..cgra.cols() {
                let cell = &cells[cgra.at(row, col).index()];
                let _ = write!(out, " {cell:>width$}");
            }
            out.push('\n');
        }
    }
    out
}

/// One-line summary of a mapping.
#[must_use]
pub fn summary(mapping: &Mapping, dfg: &Dfg, cgra: &Cgra) -> String {
    let used: std::collections::BTreeSet<_> =
        mapping.placements.iter().map(|p| (p.pe, p.time % mapping.ii)).collect();
    format!(
        "{}: II={} | {} ops on {} of {} PE-slices | {} routing resources",
        dfg.name(),
        mapping.ii,
        dfg.node_count(),
        used.len(),
        cgra.pe_count() * mapping.ii as usize,
        mapping.route_cost()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Placement;
    use mapzero_arch::{presets, PeId};
    use mapzero_dfg::{DfgBuilder, Opcode};

    fn setup() -> (Dfg, Cgra, Mapping) {
        let mut b = DfgBuilder::new("viz");
        let a = b.node(Opcode::Load);
        let c = b.node(Opcode::Store);
        b.edge(a, c).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(2, 2);
        let mapping = Mapping {
            ii: 2,
            placements: vec![
                Placement { pe: PeId(0), time: 0 },
                Placement { pe: PeId(1), time: 1 },
            ],
            routes: vec![vec![RouteHop::Register { pe: PeId(0), slot: 1 }]],
        };
        (dfg, cgra, mapping)
    }

    #[test]
    fn ascii_shows_ops_and_routes() {
        let (dfg, cgra, mapping) = setup();
        let grid = ascii_grids(&mapping, &dfg, &cgra);
        assert!(grid.contains("slice 0/2"));
        assert!(grid.contains("n0"));
        assert!(grid.contains("n1"));
        assert!(grid.contains('~'), "routing PE marked:\n{grid}");
    }

    #[test]
    fn summary_counts_resources() {
        let (dfg, cgra, mapping) = setup();
        let s = summary(&mapping, &dfg, &cgra);
        assert!(s.contains("II=2"));
        assert!(s.contains("1 routing resources"));
    }
}
