//! Micro-benches of the `sad-nn` training substrate: the legacy per-sample
//! path (forward cache + flat optimizer round-trip, kept as a compat API)
//! against the batched, workspace-backed zero-allocation path at several
//! minibatch sizes.
//!
//! The `batch=1` row quantifies what killing the per-step allocations is
//! worth on its own (identical arithmetic, identical trajectory); larger
//! batches add the GEMM-shaped weight-gradient kernels on top.
//!
//! `optim/adam_step` isolates the optimizer, which dominates a B=1 step:
//! one full Adam step over an AE-sized parameter buffer through the
//! dispatched `step_segment` (the AVX2+FMA reciprocal kernel where the CPU
//! has it) against the portable pinned loop. Divide the time by the
//! parameter count for ns per parameter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_nn::{Activation, Mlp};
use sad_tensor::{Adam, Optimizer};
use std::hint::black_box;

/// Harness-shaped AE dimensions (Table III quick profile: w=20, N=9 →
/// dim 180, hidden 45).
const DIM: usize = 180;
const HIDDEN: usize = 45;
const SAMPLES: usize = 40;

fn net() -> Mlp {
    let mut rng = StdRng::seed_from_u64(9);
    Mlp::new(&[DIM, HIDDEN, DIM], &[Activation::Sigmoid, Activation::Identity], &mut rng)
}

fn data() -> Vec<Vec<f64>> {
    (0..SAMPLES)
        .map(|k| (0..DIM).map(|i| (((k * 61 + i) as f64) * 0.23).sin()).collect())
        .collect()
}

fn bench_training_paths(c: &mut Criterion) {
    let train = data();

    let mut group = c.benchmark_group("nn_train_epoch");
    group.sample_size(20);

    // Legacy per-sample path: heap-allocated caches, flat-gradient Vec and
    // params_flat round-trip per step.
    group.bench_function("per_sample_compat", |b| {
        let mut net = net();
        let mut opt = Adam::new(1e-3);
        b.iter(|| {
            for x in &train {
                net.train_step_mse(black_box(x), x, &mut opt);
            }
        });
    });

    // Batched workspace path. batch=1 is the drop-in replacement the
    // models default to (bitwise-identical trajectory, zero allocations).
    for batch in [1usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("workspace", batch), &batch, |b, &batch| {
            let mut net = net();
            let mut ws = net.workspace(batch);
            let mut opt = Adam::new(1e-3);
            b.iter(|| {
                for chunk in train.chunks(batch) {
                    ws.set_batch(chunk.len());
                    for (i, x) in chunk.iter().enumerate() {
                        ws.input_row_mut(i).copy_from_slice(black_box(x));
                    }
                    net.train_batch_mse_identity(&mut ws, &mut opt);
                }
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("nn_forward");
    group.sample_size(30);
    group.bench_function("infer_per_sample", |b| {
        let net = net();
        b.iter(|| {
            for x in &train {
                black_box(net.infer(black_box(x)));
            }
        });
    });
    group.bench_function("forward_batch_8", |b| {
        let net = net();
        let mut ws = net.workspace(8);
        b.iter(|| {
            for chunk in train.chunks(8) {
                ws.set_batch(chunk.len());
                for (i, x) in chunk.iter().enumerate() {
                    ws.input_row_mut(i).copy_from_slice(black_box(x));
                }
                net.forward_batch(&mut ws);
                black_box(ws.output());
            }
        });
    });
    // The same forward on an `Mlp<f32>` snapshot of the network — what the
    // fleet's `--f32-infer` path runs per cohort round. Same structure
    // (one X·Wᵀ GEMM per layer), half the bytes streamed per weight. The
    // id predates the generic forward and is kept for comparability.
    group.bench_function("infer_plan_forward_batch_8", |b| {
        let snapshot = Mlp::<f32>::from_precision(&net());
        let mut ws = snapshot.inference_workspace(8);
        b.iter(|| {
            for chunk in train.chunks(8) {
                ws.set_batch(chunk.len());
                for (i, x) in chunk.iter().enumerate() {
                    for (o, &v) in ws.input_row_mut(i).iter_mut().zip(black_box(x)) {
                        *o = v as f32;
                    }
                }
                snapshot.forward_batch(&mut ws);
                black_box(ws.output());
            }
        });
    });
    group.finish();
}

/// Parameter counts of the grid AE (180→45→180) and the `serve_churn`
/// AE (190→47→190).
const ADAM_PARAMS: [usize; 2] = [16_425, 18_097];

fn bench_adam_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("optim/adam_step");
    group.sample_size(30);
    for p in ADAM_PARAMS {
        let grads: Vec<f64> = (0..p).map(|i| ((i as f64) * 0.37).sin() * 1e-2).collect();
        for (name, pinned) in [("dispatched", false), ("pinned", true)] {
            group.bench_with_input(BenchmarkId::new(name, p), &grads, |b, grads| {
                let mut opt = Adam::new(1e-3);
                let mut params = vec![0.5; grads.len()];
                b.iter(|| {
                    opt.begin_step(grads.len());
                    if pinned {
                        opt.step_segment_pinned(0, &mut params, black_box(grads));
                    } else {
                        opt.step_segment(0, &mut params, black_box(grads));
                    }
                });
                black_box(&params);
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_training_paths, bench_adam_step);
criterion_main!(benches);
