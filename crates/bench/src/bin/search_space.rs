//! Reproduces the **§2.5.1** search-space size estimates (14 nodes on a
//! 4×4 CGRA ≈ 10¹³ placements, 60 nodes on an 8×8 ≈ 10⁸⁷) from the
//! paper's closed forms, plus three suite-scale cases. How far
//! candidate pruning (DESIGN.md §13) shrinks the *explored* space is
//! pinned by `tests/prune.rs` and measured end to end by the
//! performance ledger's `fig13_16x16` workload (`perf_ledger/`).

use mapzero_bench::{print_table, write_csv, Harness};
use mapzero_core::search_space::{log10_placements, log10_placements_temporal};

fn main() {
    let h = Harness::begin("§2.5.1: search-space sizes");

    let cases = [
        ("paper: 14 nodes, 4x4, II=1", 14u64, 16u64, 1u64),
        ("paper: 60 nodes, 8x8, II=1", 60, 64, 1),
        ("arf (54) on HReA (16 PEs), II=4", 54, 16, 4),
        ("huf_u (592) on 16x16 (256 PEs), II=3", 592, 256, 3),
        ("sum (8) on HyCube (16 PEs), II=1", 8, 16, 1),
    ];
    let header = ["case", "nodes", "PEs", "II", "log10(placements)"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    for (label, nodes, pes, ii) in cases {
        let lg = if ii == 1 {
            log10_placements(nodes, pes)
        } else {
            log10_placements_temporal(nodes, pes, ii)
        };
        let cell = lg.map_or_else(|| "infeasible".to_owned(), |v| format!("{v:.1}"));
        let row = vec![
            label.to_owned(),
            nodes.to_string(),
            pes.to_string(),
            ii.to_string(),
            cell,
        ];
        csv.push(row.clone());
        rows.push(row);
    }
    print_table(&header, &rows);
    h.note("\nthe paper quotes 16!/2 ~ 1e13 and 64!/4! ~ 1e87 for the first two rows");
    write_csv("search_space", &csv);

    h.finish();
}
