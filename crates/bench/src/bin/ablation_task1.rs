//! Ablation E6: the Task-1 strategy sweep.
//!
//! The paper observes (§V-B) that "in many cases, a performance increase
//! can be observed for the anomaly-aware reservoir". This ablation holds
//! model and Task-2 strategy fixed and sweeps SW / URES / ARES across all
//! models and corpora.
//!
//! ```sh
//! cargo run --release -p sad-bench --bin ablation_task1
//! cargo run --release -p sad-bench --bin ablation_task1 -- --jobs 4
//! cargo run --release -p sad-bench --bin ablation_task1 -- --serial
//! ```
//!
//! The `corpus × model × strategy` cells are independent and run on the
//! shared [`sad_bench::JobPool`]; output is byte-identical at any
//! `--jobs` value.

use sad_bench::{evaluate_tree, harness_params, HarnessArgs, HarnessScale, Table};
use sad_core::{ModelKind, ScoreKind, Task1, Task2};
use sad_data::{daphnet_like, smd_like, CorpusParams};

const MODELS: [ModelKind; 4] =
    [ModelKind::OnlineArima, ModelKind::TwoLayerAe, ModelKind::Usad, ModelKind::NBeats];
const STRATEGIES: [Task1; 3] =
    [Task1::SlidingWindow, Task1::UniformReservoir, Task1::AnomalyAwareReservoir];

fn main() {
    let args = HarnessArgs::from_env();
    let cp = CorpusParams { length: 1600, n_series: 1, anomalies_per_series: 4, with_drift: true };
    let corpora = [daphnet_like(33, cp), smd_like(33, cp)];

    // One flat job per (corpus, model, strategy) cell.
    let n_cells = corpora.len() * MODELS.len() * STRATEGIES.len();
    let report = args.pool().run(n_cells, |idx| {
        let s = idx % STRATEGIES.len();
        let m = (idx / STRATEGIES.len()) % MODELS.len();
        let c = idx / (STRATEGIES.len() * MODELS.len());
        let corpus = &corpora[c];
        let params = harness_params(corpus.series[0].channels(), HarnessScale::Quick);
        let scorer = [ScoreKind::AnomalyLikelihood];
        let tree =
            evaluate_tree(MODELS[m], STRATEGIES[s], &[Task2::MuSigma], &params, corpus, &scorer);
        tree.rows[0][0].auc
    });
    let auc_at = |c: usize, m: usize, s: usize| -> f64 {
        report.results[(c * MODELS.len() + m) * STRATEGIES.len() + s]
    };

    let mut table = Table::new(&["Corpus", "Model", "SW AUC", "URES AUC", "ARES AUC", "winner"]);
    let mut ares_wins = 0usize;
    let mut ares_beats_sw = 0usize;
    let mut rows = 0usize;
    for (c, corpus) in corpora.iter().enumerate() {
        for (m, model) in MODELS.iter().enumerate() {
            let (sw, ures, ares) = (auc_at(c, m, 0), auc_at(c, m, 1), auc_at(c, m, 2));
            let winner = if ares >= sw && ares >= ures {
                ares_wins += 1;
                "ARES"
            } else if sw >= ures {
                "SW"
            } else {
                "URES"
            };
            if ares >= sw {
                ares_beats_sw += 1;
            }
            rows += 1;
            table.row(vec![
                corpus.name.clone(),
                model.label().to_string(),
                format!("{sw:.3}"),
                format!("{ures:.3}"),
                format!("{ares:.3}"),
                winner.to_string(),
            ]);
        }
    }
    println!("Task-1 strategy sweep (Task 2 fixed to μ/σ, anomaly likelihood scorer)\n");
    println!("{}", table.render());
    println!("ARES is the outright winner in {ares_wins}/{rows} cells and beats the");
    println!("sliding window in {ares_beats_sw}/{rows} — the paper reports \"in many cases, a");
    println!("performance increase ... for the anomaly-aware reservoir\".");
    eprintln!(
        "wall {:.2}s, cpu {:.2}s, {} jobs",
        report.wall_time.as_secs_f64(),
        report.cpu_time().as_secs_f64(),
        report.jobs_used,
    );
}
