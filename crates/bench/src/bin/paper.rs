//! The paper's evaluation in one run: Tables I–V, Figures 6/7 and the
//! shape-claim check.
//!
//! Computes each (dataset, model, seed, with/without alternative data)
//! cross-validation cell once, in memory, and renders every table from
//! those cells:
//! - Tables I/II: the full lineup over the `N_SEEDS` panel seeds;
//! - Table III: the same "with" cells against the `-na` cells;
//! - Tables IV/V and Figures 6/7: the base seed's learned-model cells.
//!
//! Writes stdout to `results/paper.txt`, the asset curves to
//! `results/figure{6,7}.csv` and every claim's margin to
//! `results/BENCH_paper.json` (override the directory with
//! `AMS_RESULTS_DIR`). Exits 1 if any claim's observed status differs
//! from its expected one. Build with `--release`.

use ams_bench::chart::{render, Series};
use ams_bench::claims::{bench_json, claims, evaluate, format_outcomes, Evidence};
use ams_bench::exp::{
    format_backtest_table, per_quarter_means, results_dir, sparkline, write_bench,
    write_curves_csv, Dataset, DatasetRuns, N_SEEDS,
};
use ams_eval::ablation::format_ablation_table;
use ams_eval::report::{build_rows, format_ba_table, format_sr_table, TableRow};

/// A Table I/II renderer: the table, then one per-quarter cell from
/// `(label, BA, SR)`.
type Render = (fn(&[TableRow], &[String]) -> String, fn(&str, f64, f64) -> String);

fn main() {
    let runs = [Dataset::Transaction, Dataset::MapQuery].map(DatasetRuns::compute);
    let merged = runs.each_ref().map(DatasetRuns::merged);
    let rows = merged.each_ref().map(|m| build_rows(m, "AMS"));
    let ablation = runs.each_ref().map(DatasetRuns::ablation_rows);
    let backtests = runs.each_ref().map(DatasetRuns::backtests);
    let mut out = String::new();

    let tables: [(&str, &str, Render); 2] = [
        ("Table I", "BA", (format_ba_table, |l, ba, _| format!("BA({l})={ba:.2}"))),
        ("Table II", "SR", (format_sr_table, |l, _, sr| format!("SR({l})={sr:.3}"))),
    ];
    for (table, metric, (format_table, cell)) in tables {
        for ((r, rows), merged) in runs.iter().zip(&rows).zip(&merged) {
            let name = r.dataset.name();
            out += &format!(
                "\n{table} — {metric} on {name} dataset (mean over {N_SEEDS} panel seeds)\n"
            );
            out += &format_table(rows, &[]);
            out += "\n";
            if r.dataset == Dataset::MapQuery {
                out += "Per-quarter means (across seeds):\n";
                for cv in merged {
                    let cells: Vec<String> =
                        per_quarter_means(cv).iter().map(|(l, ba, sr)| cell(l, *ba, *sr)).collect();
                    out += &format!("  {:<12} {}\n", cv.model, cells.join("  "));
                }
            }
        }
    }
    for (r, rows) in runs.iter().zip(&ablation) {
        let name = r.dataset.name();
        out += &format!(
            "\nTable III — feature effectiveness on {name} dataset (mean over {N_SEEDS} seeds)\n"
        );
        out += &format_ablation_table(rows);
        out += "\n";
    }
    for ((r, results), table) in runs.iter().zip(&backtests).zip(["Table IV", "Table V"]) {
        out += &format_backtest_table(table, r.dataset, results);
    }
    for ((r, results), n) in runs.iter().zip(&backtests).zip([6, 7]) {
        write_curves_csv(&results_dir().join(format!("figure{n}.csv")), results);
        out += &format!(
            "\nFigure {n} — asset curves on {} dataset (CSV: figure{n}.csv)\n",
            r.dataset.name()
        );
        for b in results {
            out += &format!("{:<12} {}\n", b.model, sparkline(&b.asset_curve));
        }
        let series: Vec<Series> = results
            .iter()
            .map(|b| Series { label: b.model.clone(), values: b.asset_curve.clone() })
            .collect();
        out += &format!("\n{}\n", render(&series, 90, 20));
    }

    let claims = claims();
    let outcomes: Vec<_> = (0..runs.len())
        .flat_map(|i| {
            let ev = Evidence { rows: &rows[i], ablation: &ablation[i], backtests: &backtests[i] };
            evaluate(&claims, runs[i].dataset, &ev)
        })
        .collect();
    out += "\nShape claims (EXPERIMENTS.md)\n";
    out += &format_outcomes(&outcomes);

    print!("{out}");
    std::fs::write(results_dir().join("paper.txt"), &out).expect("write paper.txt");
    write_bench("BENCH_paper.json", &bench_json(&outcomes));
    let unexpected = outcomes.iter().filter(|o| !o.as_expected()).count();
    if unexpected > 0 {
        eprintln!("{unexpected} claim(s) differ from their expected status");
        std::process::exit(1);
    }
}
