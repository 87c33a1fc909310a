//! `grid_quick`: the serial quick-profile Table III evaluation.
//!
//! A measured pass is `sad_bench::run_grid` on a `JobPool` of one over the
//! daphnet-like column of the quick grid: all 26 specs, 14 shared-prefix
//! roots, three scorers. The whole 42-root grid takes 60–80 s serially,
//! longer than one benchmark run may take; `--full-grid` is a check
//! without metrics: it runs all three columns once and compares the whole
//! rendered table with the committed one.
//!
//! The traced pass re-drives every root through the public calls the grid
//! is built from (`build_shared_warmup` → `SharedWarmup::step` → `fork` →
//! `begin_step` / `predict` / `finish_step` → `ScorerBank::replay_packed` →
//! the `sad_metrics` sweeps) and must reproduce the untraced rows bitwise.

use std::path::Path;
use std::time::{Duration, Instant};

use sad_bench::{
    cell_index, harness_params, plan_roots, run_grid, EvalRow, GridDims, GridRun, HarnessScale,
    JobPool, Table,
};
use sad_core::{paper_algorithms, AlgorithmSpec, ModelKind, ScoreKind, Task1};
use sad_data::{daphnet_like, exathlon_like, smd_like, Corpus, CorpusParams};
use sad_metrics::{best_f1, best_nab, pr_auc, vus_pr};
use sad_models::{build_scorer, build_scorer_bank, build_shared_warmup, BuildParams};

use crate::split::{model_tag, report_core_and_models, SplitStepper};
use crate::stats::median;
use crate::trace::{self, Name, Tracer};
use crate::{Args, Report, UnitLatency, DEFAULT_SEED};

/// The committed quick-profile table (`table3_results` output).
const REFERENCE: &str = "bench_output/table3_quick.txt";
const SCORERS: [ScoreKind; 3] = [
    ScoreKind::Raw,
    ScoreKind::Average,
    ScoreKind::AnomalyLikelihood,
];
/// Threshold count of every metric sweep, as in `sad_bench::eval`.
const N_THRESHOLDS: usize = 40;
/// Set-ups timed after each pass; `setup_s` is the median of them all.
/// Generating the corpora takes a few milliseconds, and set-ups spread
/// over the run see the machine's slow and fast phases as the passes do.
const SETUPS_PER_PASS: usize = 10;
/// Daphnet-like corpora a run cycles through, one per pass: the run's seed
/// and seeds derived from it. A pass's work depends on its data (how often
/// drift triggers a fine-tune), so a run spans several corpora and its
/// figures do not hinge on one series.
const CORPORA: usize = 5;

struct Setup {
    specs: Vec<AlgorithmSpec>,
    corpora: Vec<Corpus>,
}

fn corpus_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64 * 0x9e37_79b9_7f4a_7c15)
}

/// The quick profile's corpora: all three columns at `seed` (`full`), or
/// `CORPORA` daphnet-like columns, the first at `seed`.
fn setup(seed: u64, full: bool) -> Setup {
    let cp = CorpusParams {
        length: 1600,
        n_series: 1,
        anomalies_per_series: 4,
        with_drift: true,
    };
    let corpora = if full {
        vec![
            daphnet_like(seed, cp),
            exathlon_like(seed, cp),
            smd_like(seed, cp),
        ]
    } else {
        (0..CORPORA)
            .map(|k| daphnet_like(corpus_seed(seed, k), cp))
            .collect()
    };
    Setup {
        specs: paper_algorithms(),
        corpora,
    }
}

/// The table's value cells, row by row: one headline row per spec (the
/// mean over the spec's Table I scorers) and one row per scorer (the mean
/// over all specs), five values per corpus — as `table3_results` prints.
fn table_rows(specs: &[AlgorithmSpec], corpora: usize, rows: &[EvalRow]) -> Vec<Vec<String>> {
    let dims = GridDims {
        corpora,
        scorers: SCORERS.len(),
    };
    let fmt = |r: &EvalRow| {
        [r.precision, r.recall, r.auc, r.vus, r.nab]
            .map(|v| format!("{v:.2}"))
            .to_vec()
    };
    let mut out = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let mut cells = Vec::new();
        for ci in 0..corpora {
            let headline: Vec<EvalRow> = SCORERS
                .iter()
                .enumerate()
                .filter(|(_, kind)| spec.scores().contains(kind))
                .map(|(ki, _)| rows[cell_index(si, ci, ki, dims)])
                .collect();
            cells.extend(fmt(&EvalRow::mean(&headline)));
        }
        out.push(cells);
    }
    for ki in 0..SCORERS.len() {
        let mut cells = Vec::new();
        for ci in 0..corpora {
            let per: Vec<EvalRow> = (0..specs.len())
                .map(|si| rows[cell_index(si, ci, ki, dims)])
                .collect();
            cells.extend(fmt(&EvalRow::mean(&per)));
        }
        out.push(cells);
    }
    out
}

/// The whole `table3_results` standard output for the quick profile.
fn render_full(specs: &[AlgorithmSpec], corpora: &[Corpus], rows: &[EvalRow]) -> String {
    let mut header: Vec<String> = vec!["Model".into(), "T1".into(), "T2".into()];
    for c in corpora {
        for m in ["Prec", "Rec", "AUC", "VUS", "NAB"] {
            header.push(format!("{}:{}", &c.name[..2], m));
        }
    }
    let mut table = Table::with_header(header);
    let values = table_rows(specs, corpora.len(), rows);
    for (row, spec) in values.iter().zip(specs) {
        let mut cells = vec![
            spec.model.label().into(),
            spec.task1.label().into(),
            spec.task2.label().into(),
        ];
        cells.extend(row.iter().cloned());
        table.row(cells);
    }
    for (row, kind) in values[specs.len()..].iter().zip(SCORERS) {
        let mut cells = vec!["Anomaly scores".into(), String::new(), kind.label().into()];
        cells.extend(row.iter().cloned());
        table.row(cells);
    }
    format!(
        "Table III: experimental results (quick profile, 1600 steps/series, 1 series/corpus)\n\n\
         {}\n\
         columns per corpus: Prec, Rec, AUC (range PR), VUS (PR), NAB (point-wise).\n\
         Shapes to compare with the paper: ARES ≥ SW/URES on AUC; μ/σ ≈ KS;\n\
         online ARIMA below the non-linear models; AL > Avg > Raw on NAB;\n\
         long-anomaly corpora (exathlon-like) produce deeply negative NAB rows.\n",
        table.render()
    )
}

/// The committed table's daphnet-like values, row by row (the first five
/// of the fifteen value columns).
fn reference_daphnet(text: &str) -> Option<Vec<Vec<String>>> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with("---")).skip(1);
    let rows: Vec<Vec<String>> = lines
        .by_ref()
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let tokens: Vec<&str> = l.split_whitespace().collect();
            tokens[tokens.len().saturating_sub(15)..]
                .iter()
                .take(5)
                .map(|t| t.to_string())
                .collect()
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

fn rows_bitwise_equal(a: &EvalRow, b: &EvalRow) -> bool {
    [a.precision, a.recall, a.auc, a.vus, a.nab]
        .iter()
        .zip([b.precision, b.recall, b.auc, b.vus, b.nab])
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Detector steps one pass performs: each root streams its warm-up once,
/// then every fork streams the rest (ARES forks once per scorer).
fn steps_per_pass(specs: &[AlgorithmSpec], corpora: &[Corpus]) -> u64 {
    let mut steps = 0;
    for root in plan_roots(specs) {
        let forks = if root.task1 == Task1::AnomalyAwareReservoir {
            root.members.len() * SCORERS.len()
        } else {
            root.members.len()
        };
        for corpus in corpora {
            let params = harness_params(corpus.series[0].channels(), HarnessScale::Quick);
            for series in &corpus.series {
                let warm = params.config.warmup.min(series.data.len());
                steps += (warm + forks * (series.data.len() - warm)) as u64;
            }
        }
    }
    steps
}

/// Checks each pass's table against the reference rows: the committed
/// table at the default seed, else the first pass. Counts table values.
fn check_tables(
    report: &mut Report,
    specs: &[AlgorithmSpec],
    corpora: usize,
    passes: &[&[EvalRow]],
    reference: &[Vec<String>],
) {
    for rows in passes {
        let got = table_rows(specs, corpora, rows);
        let mut bad = 0u64;
        for (g, r) in got.iter().zip(reference) {
            report.attempted += g.len() as u64;
            bad += g.iter().zip(r).filter(|(a, b)| a != b).count() as u64;
            bad += g.len().abs_diff(r.len()) as u64;
        }
        if got.len() != reference.len() {
            bad += 1;
        }
        report.failed += bad;
        report.check(bad == 0, || {
            format!("{bad} table values differ from the reference")
        });
    }
}

fn timed_setup(seed: u64, full: bool, times: &mut Vec<f64>) -> Setup {
    let t0 = Instant::now();
    let s = std::hint::black_box(setup(seed, full));
    times.push(t0.elapsed().as_secs_f64());
    s
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let Setup { specs, corpora } = &timed_setup(args.seed, args.full_grid, &mut setup_times);
    let reference_text = std::fs::read_to_string(REFERENCE);
    if args.full_grid {
        return full_grid(args, specs, corpora, reference_text.ok());
    }
    let reference = if args.seed == DEFAULT_SEED {
        match reference_text.as_deref().ok().and_then(reference_daphnet) {
            Some(r) => Some(r),
            None => {
                report
                    .problems
                    .push(format!("cannot read the reference table {REFERENCE}"));
                return report;
            }
        }
    } else {
        None
    };
    let pool = JobPool::new(1);
    let scale = HarnessScale::Quick;
    if args.trace {
        return traced(args, specs, &corpora[..1], reference, report);
    }

    // Pass `i` evaluates corpus `i % CORPORA`, until every corpus has had a
    // pass and the budget is spent.
    let pass = |i: usize| run_grid(specs, &corpora[i % CORPORA..][..1], &SCORERS, scale, pool);
    let started = Instant::now();
    let mut passes: Vec<GridRun> = Vec::new();
    while passes.len() < CORPORA || started.elapsed() < args.budget {
        passes.push(pass(passes.len()));
        for _ in 0..SETUPS_PER_PASS {
            timed_setup(args.seed, false, &mut setup_times);
        }
    }
    let peak_rss_mb = crate::peak_rss_mb();

    // Output checks: every repeat pass bitwise equal to the first pass over
    // its corpus (with one untimed repeat when the budget allowed none), and
    // at the default seed the first corpus's values equal the committed
    // table's.
    let extra = (passes.len() == CORPORA).then(|| pass(0));
    let repeats = passes
        .iter()
        .enumerate()
        .skip(CORPORA)
        .map(|(i, p)| (p, &passes[i % CORPORA]))
        .chain(extra.iter().map(|p| (p, &passes[0])));
    let mut differ = 0u64;
    for (again, first) in repeats {
        report.attempted += again.rows.len() as u64;
        differ += again
            .rows
            .iter()
            .zip(&first.rows)
            .filter(|(a, b)| !rows_bitwise_equal(a, b))
            .count() as u64;
    }
    report.failed += differ;
    report.check(differ == 0, || {
        format!("{differ} grid cells differ bitwise between passes over one corpus")
    });
    if let Some(reference) = reference {
        check_tables(
            &mut report,
            specs,
            1,
            &[passes[0].rows.as_slice()],
            &reference,
        );
    }

    let steps = steps_per_pass(specs, &corpora[..1]) as f64;
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_time.as_secs_f64()).collect();
    let wall = median(&mut walls);
    // A cell's verdict is ready when its root's job returns: with one
    // worker, at the running sum of the root times.
    let roots = plan_roots(specs);
    let units: Vec<UnitLatency> = passes
        .iter()
        .map(|p| {
            let mut done = Duration::ZERO;
            let mut cells = Vec::new();
            for (job, t) in p.root_times.iter().enumerate() {
                done += *t;
                let n = roots[job].members.len() * SCORERS.len();
                cells.extend(std::iter::repeat_n(done.as_secs_f64() * 1e6, n));
            }
            UnitLatency::take(&mut cells)
        })
        .collect();
    report.note(format!(
        "grid_quick: {} passes of median wall {wall:.3} s over {} roots, {} cells and {steps} \
         detector steps each",
        passes.len(),
        passes[0].root_times.len(),
        passes[0].rows.len(),
    ));
    let total: f64 = walls.iter().sum();
    crate::report_end_to_end(
        &mut report,
        steps * passes.len() as f64 / total,
        &units,
        peak_rss_mb,
        median(&mut setup_times),
    );
    report
}

/// All three corpora once, compared byte for byte with the committed table
/// at the default seed. A check only: it reports no metrics.
fn full_grid(
    args: &Args,
    specs: &[AlgorithmSpec],
    corpora: &[Corpus],
    reference: Option<String>,
) -> Report {
    let mut report = Report::default();
    let grid = run_grid(
        specs,
        corpora,
        &SCORERS,
        HarnessScale::Quick,
        JobPool::new(1),
    );
    let text = render_full(specs, corpora, &grid.rows);
    report.attempted = 1;
    if args.seed == DEFAULT_SEED && reference.as_deref() != Some(text.as_str()) {
        const RENDERED: &str = ".bench_out/table3_quick.txt";
        let _ =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(RENDERED, &text));
        report.failed = 1;
        report.problems.push(format!(
            "the rendered table {RENDERED} differs from {REFERENCE}"
        ));
    }
    let train: f64 = grid.root_train_seconds.iter().sum();
    report.note(format!(
        "grid_full: wall {:.2} s, training {:.2} s ({:.1}%), {} initial fits",
        grid.wall_time.as_secs_f64(),
        train,
        100.0 * train / grid.wall_time.as_secs_f64(),
        grid.initial_fits()
    ));
    report
}

/// The five metrics of one score trace: `sad_bench::eval`'s row.
fn metrics_row(scores: &[f64], labels: &[bool], window: usize) -> EvalRow {
    let (_th, precision, recall, _f1) = best_f1(scores, labels, N_THRESHOLDS);
    let auc = pr_auc(scores, labels, N_THRESHOLDS);
    let vus = vus_pr(scores, labels, window, N_THRESHOLDS);
    let (_nab_th, nab) = best_nab(scores, labels, N_THRESHOLDS);
    EvalRow {
        precision,
        recall,
        auc,
        vus,
        nab: nab.score,
        train_seconds: 0.0,
    }
}

/// One root through the split-step API, mirroring `sad_bench::evaluate_tree`.
fn traced_root(
    model: ModelKind,
    task1: Task1,
    task2s: &[sad_core::Task2],
    params: &BuildParams,
    corpus: &Corpus,
    tracer: &mut Tracer,
) -> Vec<Vec<EvalRow>> {
    let window = params.config.window;
    let mut leaves: Vec<Vec<Vec<EvalRow>>> = vec![vec![Vec::new(); SCORERS.len()]; task2s.len()];
    for series in &corpus.series {
        let mut shared = build_shared_warmup(model, task1, task2s, params);
        let warm = params.config.warmup.min(series.data.len());
        for s in &series.data[..warm] {
            let id = tracer.enter(Name::WarmupStep, 0);
            shared.step(s);
            tracer.exit(id);
            if shared.is_warmed_up() {
                tracer.relabel(id, Name::FitInitial, model_tag(model));
            }
        }
        let labels = &series.labels[warm..];
        let stream = |kind: ScoreKind, v: usize, tracer: &mut Tracer| {
            let id = tracer.enter(Name::Fork, 0);
            let mut fork = shared.fork(v, build_scorer(kind, params));
            tracer.exit(id);
            let mut stepper = SplitStepper::new(model, task2s[v]);
            (warm..series.data.len())
                .filter_map(|i| stepper.step(&mut fork, &series.data, i, tracer))
                .collect::<Vec<_>>()
        };
        let score = |trace: &[f64], tracer: &mut Tracer| {
            let id = tracer.enter(Name::ScoreTrace, 0);
            let row = metrics_row(trace, labels, window);
            tracer.exit(id);
            row
        };
        if shared.scorer_feedback_free() {
            for (v, leaf) in leaves.iter_mut().enumerate() {
                let outs = stream(SCORERS[0], v, tracer);
                let packed: Vec<f64> = outs.iter().map(|o| o.nonconformity).collect();
                let mut bank = build_scorer_bank(&SCORERS, params);
                let id = tracer.enter(Name::ReplayPacked, 0);
                let traces = bank.replay_packed(&packed);
                tracer.exit(id);
                for (k, t) in traces.iter().enumerate() {
                    leaf[k].push(score(t, tracer));
                }
            }
        } else {
            for (v, leaf) in leaves.iter_mut().enumerate() {
                for (k, &kind) in SCORERS.iter().enumerate() {
                    let outs = stream(kind, v, tracer);
                    let scores: Vec<f64> = outs.iter().map(|o| o.anomaly_score).collect();
                    leaf[k].push(score(&scores, tracer));
                }
            }
        }
    }
    leaves
        .iter()
        .map(|l| l.iter().map(|rows| EvalRow::mean(rows)).collect())
        .collect()
}

/// One untraced pass, then the traced re-drive of the same grid.
fn traced(
    args: &Args,
    specs: &[AlgorithmSpec],
    corpora: &[Corpus],
    reference: Option<Vec<Vec<String>>>,
    mut report: Report,
) -> Report {
    let untraced = run_grid(
        specs,
        corpora,
        &SCORERS,
        HarnessScale::Quick,
        JobPool::new(1),
    );
    let dims = GridDims {
        corpora: corpora.len(),
        scorers: SCORERS.len(),
    };
    // Each root is re-driven twice, with spans and with a tracer that does
    // nothing, in alternating order; the two walls give the span overhead.
    let mut tracer = Tracer::new();
    let mut noop = Tracer::off();
    let mut rows = vec![EvalRow::default(); untraced.rows.len()];
    let mut plain_rows = rows.clone();
    let (mut traced_wall, mut plain_wall) = (0.0, 0.0);
    for (r, root) in plan_roots(specs).iter().enumerate() {
        for (ci, corpus) in corpora.iter().enumerate() {
            let params = harness_params(corpus.series[0].channels(), HarnessScale::Quick);
            for spans in [r % 2 == 0, r % 2 == 1] {
                let t0 = Instant::now();
                let tree = if spans {
                    let id = tracer.enter(Name::Root, model_tag(root.model));
                    let tree = traced_root(
                        root.model,
                        root.task1,
                        &root.task2s,
                        &params,
                        corpus,
                        &mut tracer,
                    );
                    tracer.exit(id);
                    traced_wall += t0.elapsed().as_secs_f64();
                    tree
                } else {
                    let tree = traced_root(
                        root.model,
                        root.task1,
                        &root.task2s,
                        &params,
                        corpus,
                        &mut noop,
                    );
                    plain_wall += t0.elapsed().as_secs_f64();
                    tree
                };
                let out = if spans { &mut rows } else { &mut plain_rows };
                for (v, &si) in root.members.iter().enumerate() {
                    for (k, row) in tree[v].iter().enumerate() {
                        out[cell_index(si, ci, k, dims)] = *row;
                    }
                }
            }
        }
    }

    let reference = reference.unwrap_or_else(|| table_rows(specs, corpora.len(), &untraced.rows));
    check_tables(
        &mut report,
        specs,
        corpora.len(),
        &[&untraced.rows, &rows],
        &reference,
    );
    for (what, redriven) in [("traced", &rows), ("span-free", &plain_rows)] {
        let diff = redriven
            .iter()
            .zip(&untraced.rows)
            .filter(|(a, b)| !rows_bitwise_equal(a, b))
            .count();
        report.check(diff == 0, || {
            format!("{what} re-drive differs bitwise from run_grid in {diff} cells")
        });
    }

    let wall = untraced.wall_time.as_secs_f64();
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    report.metric(
        "metrics.score_trace_ms",
        crate::stats::mean(tracer.durations(Name::ScoreTrace, None)) / 1e6,
    );
    // The training spans' share is taken of the traced re-drive's own wall:
    // `run_grid` ran earlier and may have met another machine phase.
    report_core_and_models(&mut report, &tracer, traced_wall * 1e9);
    trace::self_pct(&mut report, &tracer, traced_wall * 1e9);
    const ROOT_S: [&str; 5] = [
        "bench.root_s.ae",
        "bench.root_s.usad",
        "bench.root_s.nbeats",
        "bench.root_s.arima",
        "bench.root_s.pcb",
    ];
    let roots = plan_roots(specs);
    for (tag, name) in ROOT_S.iter().enumerate() {
        let s: f64 = untraced
            .root_times
            .iter()
            .enumerate()
            .filter(|(job, _)| model_tag(roots[job / corpora.len()].model) as usize == tag)
            .map(|(_, t)| t.as_secs_f64())
            .sum();
        report.metric(name, s);
    }
    report.metric("bench.initial_fits", untraced.initial_fits() as f64);
    report.metric(
        "bench.train_share",
        untraced.root_train_seconds.iter().sum::<f64>() / wall,
    );
    report.note(format!(
        "grid_quick traced: run_grid {wall:.3} s, re-drive {plain_wall:.3} s span-free and \
         {traced_wall:.3} s traced, {} spans",
        tracer.len()
    ));
    let path = format!(".bench_out/spans-{}-seed{}.csv", args.workload, args.seed);
    if let Err(e) = tracer.write_csv(Path::new(&path)) {
        report.note(format!("could not write {path}: {e}"));
    }
    report
}
