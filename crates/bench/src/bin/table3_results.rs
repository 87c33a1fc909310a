//! Regenerates the paper's **Table III**: experimental results of all 26
//! algorithms on the three corpora (Prec / Rec / AUC / VUS / NAB), plus the
//! final three rows comparing the Raw / Average / Anomaly-Likelihood
//! anomaly scores averaged over all algorithms.
//!
//! Per the paper's protocol, the headline rows average each algorithm's
//! metrics over the Average and Anomaly-Likelihood scorers (PCB-iForest:
//! AL only).
//!
//! ```sh
//! cargo run --release -p sad-bench --bin table3_results             # quick profile
//! cargo run --release -p sad-bench --bin table3_results -- --full   # paper-shaped profile
//! cargo run --release -p sad-bench --bin table3_results -- --jobs 4 # explicit worker count
//! cargo run --release -p sad-bench --bin table3_results -- --serial # one worker
//! ```
//!
//! The grid is scheduled as 42 shared-prefix **roots** (one
//! `(model, Task1, corpus)` node per drift-variant pair, plus the two
//! PCB-iForest singletons) on a work-stealing job pool (default: all
//! available cores; `--serial` or `--jobs N` to override). Inside each
//! root the warm-up + initial fit is streamed once and forked per drift
//! variant; inside each fork the three scorers share a single detector
//! pass per series (scorer fan-out — anomaly-feedback strategies share
//! the warm-up and fork per scorer instead). Results are **deterministic
//! and byte-identical at any job count, and equal to one standalone
//! detector per cell** — every root seeds its own RNG chain and its rows
//! land in fixed cell slots. Per-root wall times are written to
//! `bench_output/table3_timing.json` as a perf-regression artifact.
//!
//! The quick profile shortens the series and strides the KSWIN test; the
//! full profile uses w = 100 and a 5000-step warm-up as in the paper
//! (minutes on a multi-core machine instead of the previous ~hour serial).

use sad_bench::{
    cell_index, run_grid, EvalRow, GridDims, HarnessArgs, HarnessScale, RootTiming, Table,
    TimingArtifact,
};
use sad_core::{paper_algorithms, ScoreKind};
use sad_data::{daphnet_like, exathlon_like, smd_like, Corpus, CorpusParams};

fn corpus_params(scale: HarnessScale) -> CorpusParams {
    match scale {
        HarnessScale::Quick => CorpusParams {
            length: 1600,
            n_series: 1,
            anomalies_per_series: 4,
            with_drift: true,
        },
        HarnessScale::Full => CorpusParams::paper(),
    }
}

fn fmt_cells(row: &EvalRow) -> Vec<String> {
    vec![
        format!("{:.2}", row.precision),
        format!("{:.2}", row.recall),
        format!("{:.2}", row.auc),
        format!("{:.2}", row.vus),
        format!("{:.2}", row.nab),
    ]
}

fn main() {
    let args = HarnessArgs::from_env();
    let scale = if args.full { HarnessScale::Full } else { HarnessScale::Quick };
    let cp = corpus_params(scale);
    let corpora: Vec<Corpus> = vec![daphnet_like(42, cp), exathlon_like(42, cp), smd_like(42, cp)];
    let specs = paper_algorithms();
    let scorers = [ScoreKind::Raw, ScoreKind::Average, ScoreKind::AnomalyLikelihood];

    // Worker count deliberately stays off stdout: the table must be
    // byte-identical at any `--jobs` value (telemetry goes to stderr).
    println!(
        "Table III: experimental results ({} profile, {} steps/series, {} series/corpus)\n",
        if args.full { "full/paper" } else { "quick" },
        cp.length,
        cp.n_series,
    );

    // Owned header — no per-cell leak; `Table::with_header` takes it whole.
    let mut header: Vec<String> = vec!["Model".into(), "T1".into(), "T2".into()];
    for c in &corpora {
        for m in ["Prec", "Rec", "AUC", "VUS", "NAB"] {
            header.push(format!("{}:{}", &c.name[..2], m));
        }
    }
    let mut table = Table::with_header(header);

    // All 234 cells in one parallel grid run.
    let grid = run_grid(&specs, &corpora, &scorers, scale, args.pool());
    let dims = GridDims { corpora: corpora.len(), scorers: scorers.len() };

    for (si, spec) in specs.iter().enumerate() {
        let mut cells = vec![
            spec.model.label().to_string(),
            spec.task1.label().to_string(),
            spec.task2.label().to_string(),
        ];
        for ci in 0..corpora.len() {
            // The headline cell averages the spec's Table I scorers.
            let headline: Vec<EvalRow> = scorers
                .iter()
                .enumerate()
                .filter(|(_, kind)| spec.scores().contains(kind))
                .map(|(ki, _)| grid.rows[cell_index(si, ci, ki, dims)])
                .collect();
            cells.extend(fmt_cells(&EvalRow::mean(&headline)));
        }
        table.row(cells);
    }

    // Final rows: anomaly-score comparison averaged over all algorithms.
    for (ki, kind) in scorers.iter().enumerate() {
        let mut cells =
            vec!["Anomaly scores".to_string(), String::new(), kind.label().to_string()];
        for ci in 0..corpora.len() {
            let per_corpus: Vec<EvalRow> =
                (0..specs.len()).map(|si| grid.rows[cell_index(si, ci, ki, dims)]).collect();
            cells.extend(fmt_cells(&EvalRow::mean(&per_corpus)));
        }
        table.row(cells);
    }

    println!("{}", table.render());
    println!("columns per corpus: Prec, Rec, AUC (range PR), VUS (PR), NAB (point-wise).");
    println!("Shapes to compare with the paper: ARES ≥ SW/URES on AUC; μ/σ ≈ KS;");
    println!("online ARIMA below the non-linear models; AL > Avg > Raw on NAB;");
    println!("long-anomaly corpora (exathlon-like) produce deeply negative NAB rows.");

    let artifact = TimingArtifact {
        harness: "table3_results".into(),
        profile: if args.full { "full" } else { "quick" }.into(),
        jobs: grid.jobs_used,
        wall_time: grid.wall_time,
        cpu_time: grid.cpu_time(),
        roots: grid
            .root_labels
            .iter()
            .zip(grid.root_times.iter().zip(&grid.root_train_seconds))
            .zip(grid.root_initial_fits.iter().zip(grid.root_shared.iter().zip(&grid.root_variants)))
            .map(|((label, (&wall, &train_seconds)), (&initial_fits, (&shared_pass, &variants)))| {
                RootTiming {
                    label: label.clone(),
                    wall,
                    train_seconds,
                    initial_fits,
                    shared_pass,
                    variants,
                    scorers: scorers.len(),
                }
            })
            .collect(),
    };
    match artifact.write("bench_output/table3_timing.json") {
        Ok(()) => eprintln!(
            "wall {:.2}s, cpu {:.2}s, {} jobs, {} roots, {} initial fits -> bench_output/table3_timing.json",
            grid.wall_time.as_secs_f64(),
            grid.cpu_time().as_secs_f64(),
            grid.jobs_used,
            grid.root_times.len(),
            grid.initial_fits(),
        ),
        Err(e) => eprintln!("warning: could not write timing artifact: {e}"),
    }
    // Same run, projected through the workspace telemetry substrate —
    // scrape-ready text exposition next to the JSON artifact. Announced on
    // stderr like the timing artifact: the table on stdout stays
    // byte-identical with telemetry compiled in.
    let mut prom = String::new();
    artifact.to_registry().render_prometheus(&mut prom);
    match std::fs::write("bench_output/table3_metrics.prom", &prom) {
        Ok(()) => eprintln!("grid metrics -> bench_output/table3_metrics.prom"),
        Err(e) => eprintln!("warning: could not write metrics artifact: {e}"),
    }
}
