//! Reproduces **Fig. 9**: the number of backtracking operations MapZero
//! needs per benchmark on each target architecture.

use mapzero_bench::{headtohead_results, print_table, write_csv, BenchMode, Harness};

fn main() {
    let mode = BenchMode::from_env();
    let h = Harness::begin(format!(
        "Fig. 9: MapZero backtracking operations per benchmark ({mode:?} mode)"
    ));
    let results = headtohead_results(mode);
    let mapzero: Vec<_> = results.iter().filter(|r| r.mapper == "MapZero").collect();

    let mut fabrics: Vec<String> = mapzero.iter().map(|r| r.fabric.clone()).collect();
    fabrics.sort();
    fabrics.dedup();
    // Kernels in first-appearance order, each once (the rows come
    // grouped by fabric, so neighbours are rarely equal).
    let mut kernels: Vec<String> = Vec::new();
    for r in &mapzero {
        if !kernels.contains(&r.kernel) {
            kernels.push(r.kernel.clone());
        }
    }

    let header: Vec<&str> = std::iter::once("kernel")
        .chain(fabrics.iter().map(String::as_str))
        .collect();
    let mut rows = Vec::new();
    let mut csv =
        vec![vec!["kernel".to_owned(), "fabric".to_owned(), "backtracks".to_owned()]];
    for kernel in &kernels {
        let mut row = vec![kernel.clone()];
        for fabric in &fabrics {
            let cell = mapzero
                .iter()
                .find(|r| &r.kernel == kernel && &r.fabric == fabric)
                .map_or_else(|| "-".to_owned(), |r| r.backtracks.to_string());
            csv.push(vec![kernel.clone(), fabric.clone(), cell.clone()]);
            row.push(cell);
        }
        rows.push(row);
    }
    print_table(&header, &rows);
    let total: u64 = mapzero.iter().map(|r| r.backtracks).sum();
    h.note(format!(
        "\ntotal backtracks across {} runs: {} (the agent's decisions are highly accurate)",
        mapzero.len(),
        total
    ));
    write_csv("fig09_backtracks", &csv);
    h.finish();
}
