//! Fabric symmetries for training-data augmentation (§3.6.1).
//!
//! "By analyzing the symmetry of the target CGRA, we flip, shift, and
//! rotate the searched mapping results to get more (s, π, r) groups."
//!
//! A [`Transform`] permutes PE ids; it is *valid* for a fabric when the
//! permutation is a graph automorphism that also preserves PE
//! capabilities and, on a fabric whose rows share a memory bus, maps
//! rows to rows (so the transformed mapping is feasible iff the
//! original was).

use crate::{Cgra, PeId};
use std::collections::BTreeSet;

/// A square/rectangular-grid symmetry operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transform {
    /// Identity (always valid).
    Identity,
    /// Mirror left-right.
    FlipH,
    /// Mirror top-bottom.
    FlipV,
    /// Rotate 90° clockwise (square grids only).
    Rot90,
    /// Rotate 180°.
    Rot180,
    /// Rotate 270° clockwise (square grids only).
    Rot270,
    /// Translate by (dr, dc) with wrap-around (toroidal fabrics only).
    Shift(usize, usize),
}

impl Transform {
    /// Apply to a grid coordinate on a `rows x cols` grid.
    ///
    /// Returns `None` when the transform is undefined for the grid shape
    /// (e.g. `Rot90` on a non-square grid).
    #[must_use]
    pub fn apply(self, rows: usize, cols: usize, r: usize, c: usize) -> Option<(usize, usize)> {
        match self {
            Transform::Identity => Some((r, c)),
            Transform::FlipH => Some((r, cols - 1 - c)),
            Transform::FlipV => Some((rows - 1 - r, c)),
            Transform::Rot180 => Some((rows - 1 - r, cols - 1 - c)),
            Transform::Rot90 => (rows == cols).then(|| (c, rows - 1 - r)),
            Transform::Rot270 => (rows == cols).then(|| (cols - 1 - c, r)),
            Transform::Shift(dr, dc) => Some(((r + dr) % rows, (c + dc) % cols)),
        }
    }

    /// The PE permutation induced on `cgra`, or `None` if undefined.
    #[must_use]
    pub fn permutation(self, cgra: &Cgra) -> Option<Vec<PeId>> {
        let (rows, cols) = (cgra.rows(), cgra.cols());
        let mut perm = Vec::with_capacity(cgra.pe_count());
        for p in cgra.pe_ids() {
            let pe = cgra.pe(p);
            let (nr, nc) = self.apply(rows, cols, pe.row, pe.col)?;
            perm.push(cgra.at(nr, nc));
        }
        Some(perm)
    }

    /// True if the induced permutation is an automorphism of the fabric
    /// graph that preserves capabilities and, when rows share a memory
    /// bus, keeps every row's PEs in one row: a transform that turns
    /// rows into columns would put two same-slot memory ops of one row
    /// on distinct buses, or two of distinct rows on one.
    #[must_use]
    pub fn is_valid_for(self, cgra: &Cgra) -> bool {
        let Some(perm) = self.permutation(cgra) else {
            return false;
        };
        let row_of = |p: PeId| cgra.pe(p).row;
        for p in cgra.pe_ids() {
            let ip = perm[p.index()];
            let row_start = cgra.at(row_of(p), 0);
            if cgra.row_shared_mem_bus() && row_of(ip) != row_of(perm[row_start.index()]) {
                return false;
            }
            if cgra.pe(p).capability != cgra.pe(ip).capability {
                return false;
            }
            let mapped: BTreeSet<PeId> =
                cgra.links_from(p).iter().map(|q| perm[q.index()]).collect();
            let actual: BTreeSet<PeId> = cgra.links_from(ip).iter().copied().collect();
            if mapped != actual {
                return false;
            }
        }
        true
    }
}

/// All valid symmetry transforms of a fabric (identity always included;
/// shifts are enumerated only for fabrics whose links make them valid,
/// i.e. fully toroidal ones).
#[must_use]
pub fn valid_transforms(cgra: &Cgra) -> Vec<Transform> {
    let mut out = vec![Transform::Identity];
    let candidates = [
        Transform::FlipH,
        Transform::FlipV,
        Transform::Rot90,
        Transform::Rot180,
        Transform::Rot270,
    ];
    for t in candidates {
        if t.is_valid_for(cgra) {
            out.push(t);
        }
    }
    // Shifts: try the unit translations; if valid, all products are too,
    // but enumerating the two generators keeps augmentation cheap.
    for t in [Transform::Shift(1, 0), Transform::Shift(0, 1)] {
        if t.is_valid_for(cgra) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::{Capability, CgraBuilder, Interconnect};

    #[test]
    fn identity_always_valid() {
        for g in presets::table1() {
            assert!(Transform::Identity.is_valid_for(&g), "{}", g.name());
        }
    }

    #[test]
    fn mesh_square_has_dihedral_symmetry() {
        let g = presets::simple_mesh(4, 4);
        for t in [
            Transform::FlipH,
            Transform::FlipV,
            Transform::Rot90,
            Transform::Rot180,
            Transform::Rot270,
        ] {
            assert!(t.is_valid_for(&g), "{t:?}");
        }
        // Shifts are not automorphisms of a clipped mesh.
        assert!(!Transform::Shift(1, 0).is_valid_for(&g));
    }

    #[test]
    fn rot90_undefined_on_rectangles() {
        let g = presets::simple_mesh(2, 3);
        assert!(Transform::Rot90.permutation(&g).is_none());
        assert!(!Transform::Rot90.is_valid_for(&g));
        assert!(Transform::FlipH.is_valid_for(&g));
    }

    #[test]
    fn heterogeneous_fabric_loses_symmetries() {
        let g = presets::heterogeneous();
        // Memory on both outer columns: FlipH preserves capabilities.
        assert!(Transform::FlipH.is_valid_for(&g));
        // Logical only on the top half: FlipV breaks capabilities.
        assert!(!Transform::FlipV.is_valid_for(&g));
    }

    #[test]
    fn fully_toroidal_fabric_admits_shifts() {
        // Mesh + toroidal wrap makes every row/col translation an
        // automorphism.
        let g = CgraBuilder::new("torus", 4, 4)
            .interconnect(Interconnect::Mesh)
            .interconnect(Interconnect::Toroidal)
            .finish();
        assert!(Transform::Shift(1, 0).is_valid_for(&g));
        assert!(Transform::Shift(0, 1).is_valid_for(&g));
        let ts = valid_transforms(&g);
        assert!(ts.contains(&Transform::Shift(1, 0)));
    }

    #[test]
    fn permutation_is_bijective() {
        let g = presets::simple_mesh(4, 4);
        let perm = Transform::Rot90.permutation(&g).unwrap();
        let mut seen = [false; 16];
        for p in &perm {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn row_bus_fabrics_keep_rows_together() {
        // ADRES is a square mesh with uniform PEs, so only its row bus
        // rules out the transposing rotations.
        assert_eq!(
            valid_transforms(&presets::adres()),
            vec![Transform::Identity, Transform::FlipH, Transform::FlipV, Transform::Rot180]
        );
        let plain = CgraBuilder::new("8x8", 8, 8).interconnect(Interconnect::Mesh).finish();
        assert!(Transform::Rot90.is_valid_for(&plain));
    }

    #[test]
    fn capability_mismatch_detected() {
        let g = CgraBuilder::new("corner", 2, 2)
            .capability(0, 0, Capability::ARITH)
            .finish();
        // FlipH moves the special corner; not a valid transform.
        assert!(!Transform::FlipH.is_valid_for(&g));
    }
}
