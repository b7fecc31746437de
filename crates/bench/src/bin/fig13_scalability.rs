//! Reproduces **Fig. 13**: compilation time of mapping the unrolled
//! DFGs onto the 8×8 and 16×16 baseline CGRAs. In the paper MapZero
//! finds valid minimal-II mappings on every case while ILP/SA/LISA fail
//! or time out on the large instances.

use mapzero_bench::{print_table, run_all_mappers, write_csv, BenchMode, Harness, RawResult};
use mapzero_core::Compiler;
use std::collections::BTreeMap;

fn main() {
    let mode = BenchMode::from_env();
    let limit = mode.time_limit();
    let h = Harness::begin(
        format!(
            "Fig. 13: compilation time for unrolled DFGs on 8x8 / 16x16 baselines\n({mode:?} mode, {limit:?} per attempt)"
        ),
    );

    let fabrics = [
        mapzero_arch::presets::baseline8(),
        mapzero_arch::presets::baseline16(),
    ];
    let mut compiler = Compiler::new(mode.mapzero_config());
    let mut results: Vec<RawResult> = Vec::new();
    for cgra in &fabrics {
        for name in mode.unrolled_kernels() {
            let dfg = mapzero_dfg::suite::by_name(name).expect("kernel exists");
            // The largest instances are only attempted on the fabric
            // that can hold them at a sane II.
            h.progress(format_args!("running {} on {}", name, cgra.name()));
            for report in run_all_mappers(&mut compiler, &dfg, cgra, limit) {
                results.push(RawResult::from_report(&report));
            }
        }
    }

    let header = ["fabric", "kernel", "mapper", "MII", "II", "secs", "status"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    for r in &results {
        let status = if r.ii != 0 {
            "ok"
        } else if r.timed_out {
            "timeout"
        } else {
            "fail"
        };
        let row = vec![
            r.fabric.clone(),
            r.kernel.clone(),
            r.mapper.clone(),
            r.mii.to_string(),
            if r.ii == 0 { "-".to_owned() } else { r.ii.to_string() },
            format!("{:.2}", r.secs),
            status.to_owned(),
        ];
        csv.push(row.clone());
        rows.push(row);
    }
    print_table(&header, &rows);

    // Success summary per mapper.
    let mut summary: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for r in &results {
        let entry = summary.entry(match r.mapper.as_str() {
            "ILP" => "ILP",
            "SA" => "SA",
            "LISA" => "LISA",
            _ => "MapZero",
        }).or_insert((0, 0));
        entry.1 += 1;
        entry.0 += usize::from(r.ii != 0);
    }
    println!();
    for (mapper, (ok, total)) in summary {
        h.note(format!("{mapper}: {ok}/{total} unrolled cases mapped"));
    }
    write_csv("fig13_scalability", &csv);
    h.finish();
}
