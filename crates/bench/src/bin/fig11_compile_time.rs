//! Reproduces **Fig. 11 (a)–(d)**: compilation time of CGRA-ME (ILP),
//! CGRA-ME (SA), LISA and MapZero on the four target CGRAs, plus the
//! geo-mean speedups the paper quotes (50x/45x/274x over ILP on
//! HReA/MorphoSys/ADRES; 405x over LISA and 214x/594x over ILP/SA on
//! HyCube). Timeout cases are excluded from the speedup geo-means, as
//! in §4.3.

use mapzero_bench::{geomean, headtohead_results, print_table, write_csv, BenchMode, Harness};

fn main() {
    let mode = BenchMode::from_env();
    let h = Harness::begin(format!(
        "Fig. 11: compilation time (seconds, {mode:?} mode)"
    ));
    let results = headtohead_results(mode);

    let mut fabrics: Vec<String> = results.iter().map(|r| r.fabric.clone()).collect();
    fabrics.sort();
    fabrics.dedup();
    let mappers = ["ILP", "SA", "LISA", "MapZero"];

    let mut csv = vec![vec![
        "fabric".to_owned(),
        "kernel".to_owned(),
        "mapper".to_owned(),
        "secs".to_owned(),
        "success".to_owned(),
    ]];
    for fabric in &fabrics {
        h.note(format!("--- {fabric} ---"));
        let mut kernels: Vec<String> = results
            .iter()
            .filter(|r| &r.fabric == fabric)
            .map(|r| r.kernel.clone())
            .collect();
        kernels.dedup();
        let header: Vec<&str> =
            std::iter::once("kernel").chain(mappers.iter().copied()).collect();
        let mut rows = Vec::new();
        for kernel in &kernels {
            let mut row = vec![kernel.clone()];
            for mapper in mappers {
                let cell = results
                    .iter()
                    .find(|r| &r.fabric == fabric && &r.kernel == kernel && r.mapper == mapper)
                    .map_or_else(
                        || "-".to_owned(),
                        |r| {
                            csv.push(vec![
                                fabric.clone(),
                                kernel.clone(),
                                mapper.to_owned(),
                                format!("{:.4}", r.secs),
                                (r.ii != 0).to_string(),
                            ]);
                            if r.ii == 0 {
                                format!("{:.2} (fail)", r.secs)
                            } else {
                                format!("{:.2}", r.secs)
                            }
                        },
                    );
                row.push(cell);
            }
            rows.push(row);
        }
        print_table(&header, &rows);

        // Geo-mean speedup of MapZero over each baseline, excluding
        // pairs where either side failed/timed out.
        for baseline in ["ILP", "SA", "LISA"] {
            let mut ratios = Vec::new();
            for kernel in &kernels {
                let find = |mapper: &str| {
                    results.iter().find(|r| {
                        &r.fabric == fabric && &r.kernel == kernel && r.mapper == mapper
                    })
                };
                if let (Some(b), Some(m)) = (find(baseline), find("MapZero")) {
                    if b.ii != 0 && m.ii != 0 && !b.timed_out && m.secs > 0.0 {
                        ratios.push(b.secs / m.secs.max(1e-9));
                    }
                }
            }
            if ratios.is_empty() {
                h.note(format!("  speedup vs {baseline}: n/a (no mutually-successful cases)"));
            } else {
                h.note(format!(
                    "  geo-mean speedup vs {baseline}: {:.1}x over {} cases",
                    geomean(&ratios),
                    ratios.len()
                ));
            }
        }
        println!();
    }
    write_csv("fig11_compile_time", &csv);
    h.finish();
}
