//! Reproduces **Fig. 15**: mapping quality (II ratio vs CGRA-ME ILP),
//! compilation-time ratio, and MapZero's backtracking count on the
//! heterogeneous architecture of Fig. 14.

use mapzero_bench::{print_table, run_or_fail, write_csv, BenchMode, Harness};
use mapzero_baselines::ExactMapper;
use mapzero_core::Compiler;

fn main() {
    let mode = BenchMode::from_env();
    let limit = mode.time_limit();
    let cgra = mapzero_arch::presets::heterogeneous();
    let h = Harness::begin(
        format!(
            "Fig. 15: MapZero vs CGRA-ME (ILP) on the Fig. 14 heterogeneous CGRA\n({mode:?} mode, {limit:?} per attempt)"
        ),
    );

    let mut compiler = Compiler::new(mode.mapzero_config());
    let header =
        ["kernel", "MII", "ILP II", "MZ II", "II ratio", "ILP secs", "MZ secs", "time ratio", "MZ backtracks"];
    let mut rows = Vec::new();
    let mut csv = vec![header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    for name in mode.kernels() {
        let dfg = mapzero_dfg::suite::by_name(name).expect("kernel exists");
        h.progress(format_args!("running {name}"));
        let mut ilp = ExactMapper;
        let r_ilp = run_or_fail(&mut ilp, &dfg, &cgra, limit);
        let r_mz = run_or_fail(&mut compiler, &dfg, &cgra, limit);
        let fmt_ii = |ii: Option<u32>| ii.map_or_else(|| "-".to_owned(), |v| v.to_string());
        let ii_ratio = match (r_ilp.achieved_ii(), r_mz.achieved_ii()) {
            (Some(a), Some(b)) => format!("{:.2}", f64::from(a) / f64::from(b)),
            _ => "-".to_owned(),
        };
        let time_ratio = if r_mz.elapsed.as_secs_f64() > 0.0 && r_ilp.success() {
            format!("{:.1}x", r_ilp.elapsed.as_secs_f64() / r_mz.elapsed.as_secs_f64().max(1e-9))
        } else {
            "-".to_owned()
        };
        let row = vec![
            name.to_owned(),
            r_mz.mii.to_string(),
            fmt_ii(r_ilp.achieved_ii()),
            fmt_ii(r_mz.achieved_ii()),
            ii_ratio,
            format!("{:.2}", r_ilp.elapsed.as_secs_f64()),
            format!("{:.2}", r_mz.elapsed.as_secs_f64()),
            time_ratio,
            r_mz.backtracks.to_string(),
        ];
        csv.push(row.clone());
        rows.push(row);
    }
    print_table(&header, &rows);
    h.note("\nII ratio 1.00 = MapZero matches the exact mapper's (optimal) II");
    write_csv("fig15_heterogeneous", &csv);
    h.finish();
}
