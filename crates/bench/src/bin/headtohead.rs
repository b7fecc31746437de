//! Reproduces **Figs. 8–11** from one head-to-head run (§4.2–4.3):
//! CGRA-ME (ILP), CGRA-ME (SA), LISA and MapZero on HReA, MorphoSys,
//! ADRES and HyCube, every instance mapped once. The four figures are
//! four views of those rows:
//!
//! * **Fig. 8 (a)–(d)**: II ratio relative to MII. A ratio of 1.0 is
//!   optimal; 0.0 marks a failed mapping ("II of failed mapping is set
//!   to 0").
//! * **Fig. 9**: MapZero's backtracking operations per benchmark on each
//!   target architecture.
//! * **Fig. 10**: MapZero backtracks versus the annealing counts of SA
//!   and LISA on HyCube. (The ILP column is omitted, as in the paper:
//!   Gurobi's simplex iterations are not comparable to backtracks.)
//! * **Fig. 11 (a)–(d)**: compilation time, plus the geo-mean speedups
//!   the paper quotes (50x/45x/274x over ILP on HReA/MorphoSys/ADRES;
//!   405x over LISA and 214x/594x over ILP/SA on HyCube). Failed and
//!   timed-out pairs are excluded from the speedup geo-means, as in §4.3.
//!
//! Writes `fig08_mapping_quality.csv`, `fig09_backtracks.csv`,
//! `fig10_backtracks_vs_annealing.csv` and `fig11_compile_time.csv`,
//! plus the raw rows as `headtohead_raw.csv`.

use mapzero_bench::{
    geomean, print_table, run_all_mappers, write_csv, BenchMode, Harness, RawResult,
};
use mapzero_core::Compiler;

/// The mappers in the paper's order.
const MAPPERS: [&str; 4] = ["ILP", "SA", "LISA", "MapZero"];

fn main() {
    let mode = BenchMode::from_env();
    let limit = mode.time_limit();
    let h = Harness::begin(format!(
        "Figs. 8–11: ILP, SA, LISA and MapZero head to head\n({mode:?} mode, {limit:?} per attempt)"
    ));
    let mut compiler = Compiler::new(mode.mapzero_config());
    let mut results = Vec::new();
    for cgra in mapzero_arch::presets::evaluation_fabrics() {
        for name in mode.kernels() {
            let dfg = mapzero_dfg::suite::by_name(name).expect("kernel exists");
            h.progress(format_args!("running {} on {}", name, cgra.name()));
            let reports = run_all_mappers(&mut compiler, &dfg, &cgra, limit);
            results.extend(reports.iter().map(RawResult::from_report));
        }
    }
    write_csv("headtohead_raw", &raw_csv(&results));

    h.note("\n=== Fig. 8: II ratio relative to MII ===\n");
    write_csv("fig08_mapping_quality", &fig08(&results));
    h.note("\n=== Fig. 9: MapZero backtracking operations per benchmark ===\n");
    write_csv("fig09_backtracks", &fig09(&results));
    h.note("\n=== Fig. 10: backtracks (MapZero) vs annealings (SA, LISA) on HyCube ===\n");
    write_csv("fig10_backtracks_vs_annealing", &fig10(&results));
    h.note("\n=== Fig. 11: compilation time (seconds) ===\n");
    write_csv("fig11_compile_time", &fig11(&results));
    h.finish();
}

/// The raw rows, one per (fabric, kernel, mapper) run.
fn raw_csv(results: &[RawResult]) -> Vec<Vec<String>> {
    let header = ["mapper", "kernel", "fabric", "mii", "ii", "secs", "backtracks", "explored", "timed_out"];
    let mut csv = vec![strings(&header)];
    csv.extend(results.iter().map(|r| {
        vec![
            r.mapper.clone(),
            r.kernel.clone(),
            r.fabric.clone(),
            r.mii.to_string(),
            r.ii.to_string(),
            format!("{:.6}", r.secs),
            r.backtracks.to_string(),
            r.explored.to_string(),
            r.timed_out.to_string(),
        ]
    }));
    csv
}

/// Fig. 8: print one II-ratio table per fabric and return the CSV.
fn fig08(results: &[RawResult]) -> Vec<Vec<String>> {
    let mut csv = vec![strings(&["fabric", "kernel", "mapper", "ii_ratio"])];
    for fabric in fabrics(results) {
        println!("--- {fabric} ---");
        let mut rows = Vec::new();
        for kernel in kernels(results, |r| r.fabric == fabric) {
            let mut row = vec![kernel.to_owned()];
            for mapper in MAPPERS {
                let ratio = find(results, fabric, kernel, mapper).map_or(0.0, RawResult::ii_ratio);
                row.push(format!("{ratio:.2}"));
                csv.push(vec![
                    fabric.to_owned(),
                    kernel.to_owned(),
                    mapper.to_owned(),
                    format!("{ratio:.4}"),
                ]);
            }
            rows.push(row);
        }
        print_table(&with_kernel(&MAPPERS), &rows);
        // Per-mapper success counts, the qualitative claim of §4.2.
        for mapper in MAPPERS {
            let runs = results.iter().filter(|r| r.fabric == fabric && r.mapper == mapper);
            let (ok, total) =
                runs.fold((0, 0), |(ok, total), r| (ok + usize::from(r.ii != 0), total + 1));
            println!("  {mapper}: {ok}/{total} mapped");
        }
        println!();
    }
    csv
}

/// Fig. 9: print MapZero's backtracks, kernels by fabrics, and return
/// the CSV (one row per kernel and fabric).
fn fig09(results: &[RawResult]) -> Vec<Vec<String>> {
    let fabrics = fabrics(results);
    let mut rows = Vec::new();
    let mut csv = vec![strings(&["kernel", "fabric", "backtracks"])];
    for kernel in kernels(results, |r| r.mapper == "MapZero") {
        let mut row = vec![kernel.to_owned()];
        for &fabric in &fabrics {
            let cell = find(results, fabric, kernel, "MapZero")
                .map_or_else(|| "-".to_owned(), |r| r.backtracks.to_string());
            csv.push(vec![kernel.to_owned(), fabric.to_owned(), cell.clone()]);
            row.push(cell);
        }
        rows.push(row);
    }
    print_table(&with_kernel(&fabrics), &rows);
    let mapzero: Vec<&RawResult> = results.iter().filter(|r| r.mapper == "MapZero").collect();
    println!(
        "\ntotal backtracks across {} runs: {}",
        mapzero.len(),
        mapzero.iter().map(|r| r.backtracks).sum::<u64>()
    );
    csv
}

/// Fig. 10: print and return MapZero's backtracks next to the annealing
/// counts of SA and LISA on HyCube.
fn fig10(results: &[RawResult]) -> Vec<Vec<String>> {
    let header = ["kernel", "MapZero backtracks", "SA annealings", "LISA annealings"];
    let mut rows = Vec::new();
    for kernel in kernels(results, |r| r.fabric == "HyCube") {
        let count = |mapper| {
            find(results, "HyCube", kernel, mapper)
                .map_or_else(|| "-".to_owned(), |r| r.backtracks.to_string())
        };
        rows.push(vec![kernel.to_owned(), count("MapZero"), count("SA"), count("LISA")]);
    }
    print_table(&header, &rows);
    println!(
        "\nnote: compilation time is not proportional to annealings — each annealing\nstep performs 100 random perturbations (§4.3)"
    );
    let mut csv = vec![strings(&header)];
    csv.extend(rows);
    csv
}

/// Fig. 11: print one compile-time table per fabric with MapZero's
/// geo-mean speedups, and return the CSV.
fn fig11(results: &[RawResult]) -> Vec<Vec<String>> {
    let mut csv = vec![strings(&["fabric", "kernel", "mapper", "secs", "success"])];
    for fabric in fabrics(results) {
        println!("--- {fabric} ---");
        let mut rows = Vec::new();
        for kernel in kernels(results, |r| r.fabric == fabric) {
            let mut row = vec![kernel.to_owned()];
            for mapper in MAPPERS {
                let Some(r) = find(results, fabric, kernel, mapper) else {
                    row.push("-".to_owned());
                    continue;
                };
                csv.push(vec![
                    fabric.to_owned(),
                    kernel.to_owned(),
                    mapper.to_owned(),
                    format!("{:.4}", r.secs),
                    (r.ii != 0).to_string(),
                ]);
                let fail = if r.ii == 0 { " (fail)" } else { "" };
                row.push(format!("{:.2}{fail}", r.secs));
            }
            rows.push(row);
        }
        print_table(&with_kernel(&MAPPERS), &rows);
        for baseline in ["ILP", "SA", "LISA"] {
            let ratios = speedups(results, fabric, baseline);
            if ratios.is_empty() {
                println!("  speedup vs {baseline}: n/a (no mutually-successful cases)");
            } else {
                println!(
                    "  geo-mean speedup vs {baseline}: {:.1}x over {} cases",
                    geomean(&ratios),
                    ratios.len()
                );
            }
        }
        println!();
    }
    csv
}

/// MapZero's speedup over `baseline` on each kernel of `fabric` where
/// both mapped without hitting the time limit.
fn speedups(results: &[RawResult], fabric: &str, baseline: &str) -> Vec<f64> {
    let solved = |r: &&RawResult| r.ii != 0 && !r.timed_out;
    kernels(results, |r| r.fabric == fabric)
        .into_iter()
        .filter_map(|kernel| {
            let b = find(results, fabric, kernel, baseline).filter(solved)?;
            let m = find(results, fabric, kernel, "MapZero").filter(solved)?;
            (m.secs > 0.0).then(|| b.secs / m.secs)
        })
        .collect()
}

fn find<'a>(
    results: &'a [RawResult],
    fabric: &str,
    kernel: &str,
    mapper: &str,
) -> Option<&'a RawResult> {
    results.iter().find(|r| r.fabric == fabric && r.kernel == kernel && r.mapper == mapper)
}

/// The fabrics of the run, sorted by name.
fn fabrics(results: &[RawResult]) -> Vec<&str> {
    let mut fabrics: Vec<&str> = results.iter().map(|r| r.fabric.as_str()).collect();
    fabrics.sort_unstable();
    fabrics.dedup();
    fabrics
}

/// The kernels of the rows `keep` selects, each once, in run order.
fn kernels(results: &[RawResult], keep: impl Fn(&RawResult) -> bool) -> Vec<&str> {
    let mut kernels: Vec<&str> = Vec::new();
    for r in results.iter().filter(|r| keep(r)) {
        if !kernels.contains(&r.kernel.as_str()) {
            kernels.push(&r.kernel);
        }
    }
    kernels
}

/// A table header: "kernel" and then `columns`.
fn with_kernel<'a>(columns: &[&'a str]) -> Vec<&'a str> {
    std::iter::once("kernel").chain(columns.iter().copied()).collect()
}

fn strings(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|s| (*s).to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two fabrics × two kernels × four mappers, at MII 1 and II 2.
    /// On HyCube, SA fails `mac` and ILP maps `sum` but hits the clock.
    /// Backtracks name the fabric (ADRES in the thousands) so a view
    /// that mixes fabrics shows.
    fn rows() -> Vec<RawResult> {
        let mut rows = Vec::new();
        for (f, fabric) in ["HyCube", "ADRES"].into_iter().enumerate() {
            for (k, kernel) in ["sum", "mac"].into_iter().enumerate() {
                for (m, mapper) in MAPPERS.into_iter().enumerate() {
                    let failed = (fabric, kernel, mapper) == ("HyCube", "mac", "SA");
                    rows.push(RawResult {
                        mapper: mapper.to_owned(),
                        kernel: kernel.to_owned(),
                        fabric: fabric.to_owned(),
                        mii: 1,
                        ii: if failed { 0 } else { 2 },
                        secs: (m + 1) as f64,
                        backtracks: (1000 * f + 10 * k + m) as u64,
                        explored: 0,
                        timed_out: (fabric, kernel, mapper) == ("HyCube", "sum", "ILP"),
                    });
                }
            }
        }
        rows
    }

    #[test]
    fn four_views_of_one_run() {
        let rows = rows();

        let fig9 = fig09(&rows);
        let pairs: Vec<(&str, &str)> =
            fig9[1..].iter().map(|r| (r[0].as_str(), r[1].as_str())).collect();
        assert_eq!(
            pairs,
            [("sum", "ADRES"), ("sum", "HyCube"), ("mac", "ADRES"), ("mac", "HyCube")],
            "each (kernel, fabric) once"
        );

        let fig8 = fig08(&rows);
        assert_eq!(fig8.len(), 1 + 2 * 2 * 4);
        let ratio = |fabric: &str, kernel: &str, mapper: &str| {
            fig8.iter().find(|r| r[..3] == [fabric, kernel, mapper]).map(|r| r[3].clone())
        };
        assert_eq!(ratio("HyCube", "mac", "SA").as_deref(), Some("0.0000"), "failed run");
        assert_eq!(ratio("HyCube", "mac", "LISA").as_deref(), Some("0.5000"));

        let fig10 = fig10(&rows);
        assert_eq!(
            fig10[1..],
            [strings(&["sum", "3", "1", "2"]), strings(&["mac", "13", "11", "12"])],
            "HyCube rows only"
        );

        // HyCube: ILP's sum hit the clock and SA's mac failed, so each
        // of those geo-means covers one kernel; LISA covers both.
        assert_eq!(speedups(&rows, "HyCube", "ILP"), [0.25]);
        assert_eq!(speedups(&rows, "HyCube", "SA"), [0.5]);
        assert_eq!(speedups(&rows, "HyCube", "LISA"), [0.75, 0.75]);
        assert_eq!(speedups(&rows, "ADRES", "ILP"), [0.25, 0.25]);
        let fig11 = fig11(&rows);
        assert_eq!(fig11.len(), 1 + 2 * 2 * 4);
        assert!(fig11.contains(&strings(&["HyCube", "mac", "SA", "2.0000", "false"])));
    }
}
