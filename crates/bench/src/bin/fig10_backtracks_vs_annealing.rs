//! Reproduces **Fig. 10**: MapZero backtracking operations versus the
//! annealing counts of CGRA-ME (SA) and LISA on HyCube. (The ILP column
//! is omitted, as in the paper: Gurobi's simplex iterations are not
//! comparable to backtracks.)

use mapzero_bench::{headtohead_results, print_table, write_csv, BenchMode, Harness};

fn main() {
    let mode = BenchMode::from_env();
    let h = Harness::begin(format!(
        "Fig. 10: backtracks (MapZero) vs annealings (SA, LISA) on HyCube ({mode:?} mode)"
    ));
    let results = headtohead_results(mode);
    let hycube: Vec<_> = results.iter().filter(|r| r.fabric == "HyCube").collect();

    let mut kernels: Vec<String> = hycube.iter().map(|r| r.kernel.clone()).collect();
    kernels.dedup();

    let header = ["kernel", "MapZero backtracks", "SA annealings", "LISA annealings"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    for kernel in &kernels {
        let lookup = |mapper: &str| {
            hycube
                .iter()
                .find(|r| &r.kernel == kernel && r.mapper == mapper)
                .map_or_else(|| "-".to_owned(), |r| r.backtracks.to_string())
        };
        let row = vec![kernel.clone(), lookup("MapZero"), lookup("SA"), lookup("LISA")];
        csv.push(row.clone());
        rows.push(row);
    }
    print_table(&header, &rows);
    h.note(
        "\nnote: compilation time is not proportional to annealings — each annealing\nstep performs 100 random perturbations (§4.3)",
    );
    write_csv("fig10_backtracks_vs_annealing", &csv);
    h.finish();
}
