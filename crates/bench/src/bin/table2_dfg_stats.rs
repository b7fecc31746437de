//! Reproduces **Table 2**: statistics of the benchmark DFGs. The
//! vertex/edge counts are asserted against the paper's numbers.

use mapzero_bench::{print_table, write_csv, Harness};
use mapzero_dfg::suite;

fn main() {
    let h = Harness::begin("Table 2: Statistics of the benchmark DFGs (u = unrolled)");
    let header = ["Benchmark", "Vertices", "Edges", "Self-cycles", "Max fan-out", "Mem ops"];
    let mut rows = Vec::new();
    for spec in &suite::KERNELS {
        let dfg = suite::build(spec);
        assert_eq!(dfg.node_count(), spec.vertices, "{}", spec.name);
        assert_eq!(dfg.edge_count(), spec.edges, "{}", spec.name);
        let self_cycles = dfg.node_ids().filter(|&u| dfg.node(u).has_self_cycle).count();
        rows.push(vec![
            spec.name.to_owned(),
            dfg.node_count().to_string(),
            dfg.edge_count().to_string(),
            self_cycles.to_string(),
            mapzero_dfg::random::max_fanout(&dfg).to_string(),
            dfg.class_counts()[mapzero_dfg::OpClass::Memory.index()].to_string(),
        ]);
    }
    print_table(&header, &rows);
    h.note("\nall vertex/edge counts match Table 2 of the paper");

    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    csv.extend(rows);
    write_csv("table2_dfg_stats", &csv);
    h.finish();
}
