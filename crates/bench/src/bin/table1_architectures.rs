//! Reproduces **Table 1**: the target CGRAs and their interconnect
//! matrix.

use mapzero_arch::{presets, Interconnect};
use mapzero_bench::{print_table, write_csv, Harness};

fn main() {
    let h = Harness::begin("Table 1: Target CGRAs used in the evaluation");
    let header = ["Fabric", "Size", "Mesh", "1-hop", "Diagonal", "Toroidal", "Crossbar", "Row mem bus"];
    let mut rows = Vec::new();
    for cgra in presets::table1() {
        let mark = |s: Interconnect| {
            if cgra.interconnects().contains(&s) { "x".to_owned() } else { String::new() }
        };
        rows.push(vec![
            cgra.name().to_owned(),
            format!("{}x{}", cgra.rows(), cgra.cols()),
            mark(Interconnect::Mesh),
            mark(Interconnect::OneHop),
            mark(Interconnect::Diagonal),
            mark(Interconnect::Toroidal),
            mark(Interconnect::Crossbar),
            if cgra.row_shared_mem_bus() { "x".to_owned() } else { String::new() },
        ]);
    }
    print_table(&header, &rows);

    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    csv.extend(rows);
    write_csv("table1_architectures", &csv);
    h.finish();
}
