//! Reproduces **Fig. 8 (a)–(d)**: II ratio of CGRA-ME (ILP), CGRA-ME
//! (SA), LISA and MapZero relative to MII on HReA, MorphoSys, ADRES and
//! HyCube. A ratio of 1.0 is optimal; 0.0 marks a failed mapping
//! ("II of failed mapping is set to 0").

use mapzero_bench::{headtohead_results, print_table, write_csv, BenchMode, Harness};

fn main() {
    let mode = BenchMode::from_env();
    let h = Harness::begin(format!("Fig. 8: II ratio relative to MII ({mode:?} mode)"));
    let results = headtohead_results(mode);

    let fabrics: Vec<String> = {
        let mut f: Vec<String> = results.iter().map(|r| r.fabric.clone()).collect();
        f.dedup();
        f.sort();
        f.dedup();
        f
    };
    let mappers = ["ILP", "SA", "LISA", "MapZero"];
    let mut csv = vec![vec![
        "fabric".to_owned(),
        "kernel".to_owned(),
        "mapper".to_owned(),
        "ii_ratio".to_owned(),
    ]];
    for fabric in &fabrics {
        h.note(format!("--- {fabric} ---"));
        let kernels: Vec<String> = {
            let mut k: Vec<String> = results
                .iter()
                .filter(|r| &r.fabric == fabric)
                .map(|r| r.kernel.clone())
                .collect();
            k.dedup();
            k
        };
        let header: Vec<&str> =
            std::iter::once("kernel").chain(mappers.iter().copied()).collect();
        let mut rows = Vec::new();
        for kernel in &kernels {
            let mut row = vec![kernel.clone()];
            for mapper in mappers {
                let ratio = results
                    .iter()
                    .find(|r| &r.fabric == fabric && &r.kernel == kernel && r.mapper == mapper)
                    .map_or(0.0, mapzero_bench::RawResult::ii_ratio);
                row.push(format!("{ratio:.2}"));
                csv.push(vec![
                    fabric.clone(),
                    kernel.clone(),
                    mapper.to_owned(),
                    format!("{ratio:.4}"),
                ]);
            }
            rows.push(row);
        }
        print_table(&header, &rows);
        // Per-mapper success counts, the qualitative claim of §4.2.
        for mapper in mappers {
            let (ok, total) = results
                .iter()
                .filter(|r| &r.fabric == fabric && r.mapper == mapper)
                .fold((0usize, 0usize), |(ok, total), r| {
                    (ok + usize::from(r.ii != 0), total + 1)
                });
            h.note(format!("  {mapper}: {ok}/{total} mapped"));
        }
        println!();
    }
    write_csv("fig08_mapping_quality", &csv);
    h.finish();
}
