//! Fabric connectivity: all-pairs shortest hop distances, the bound
//! behind candidate pruning's reachability test.

use crate::Cgra;
use std::collections::VecDeque;

/// All-pairs shortest hop distances (BFS per source). `None` entries
/// mean unreachable.
#[must_use]
pub fn shortest_paths(cgra: &Cgra) -> Vec<Vec<Option<u32>>> {
    let n = cgra.pe_count();
    let mut out = Vec::with_capacity(n);
    for src in cgra.pe_ids() {
        let mut dist = vec![None; n];
        dist[src.index()] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("visited");
            for &v in cgra.links_from(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        out.push(dist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, CgraBuilder, Interconnect, PeId};

    /// Longest shortest path, or `None` if some pair is unreachable.
    fn diameter(cgra: &Cgra) -> Option<u32> {
        shortest_paths(cgra).into_iter().flatten().try_fold(0, |d, hops| Some(d.max(hops?)))
    }

    #[test]
    fn mesh_diameter_is_manhattan() {
        let g = presets::simple_mesh(4, 4);
        assert_eq!(diameter(&g), Some(6)); // (0,0) -> (3,3)
        assert_eq!(shortest_paths(&g)[0][5], Some(2)); // (0,0) -> (1,1)
    }

    #[test]
    fn toroidal_wrap_shrinks_diameter() {
        let torus = CgraBuilder::new("t", 4, 4)
            .interconnect(Interconnect::Mesh)
            .interconnect(Interconnect::Toroidal)
            .finish();
        assert_eq!(diameter(&torus), Some(4)); // 2 + 2 with wrap
    }

    #[test]
    fn disconnected_fabric_detected() {
        // Extra-links-only builder with a single link: not connected.
        let g = CgraBuilder::new("d", 2, 2).link(PeId(0), PeId(1)).finish();
        let paths = shortest_paths(&g);
        assert_eq!(paths[0][1], Some(1));
        assert_eq!(paths[1][0], None, "links are directed");
        assert_eq!(diameter(&g), None);
    }
}
