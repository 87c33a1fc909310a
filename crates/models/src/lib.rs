//! # sad-models
//!
//! The five machine-learning models evaluated in the paper (§IV-C), each
//! implementing `sad_core::StreamModel`, plus the vector-autoregressive
//! model the paper describes as the correlation-aware extension of online
//! ARIMA (described in §IV-C but not part of the Table I evaluation grid).
//!
//! | Model | Output | Module |
//! |---|---|---|
//! | Online ARIMA (Liu et al. 2016) | forecast of `s_t` | [`arima`] |
//! | VAR (least squares) | forecast of `s_t` | [`var`] |
//! | PCB-iForest (Heigl et al. 2021) | direct iForest score | [`pcb`] |
//! | 2-layer autoencoder | reconstruction of `x_t` | [`ae`] |
//! | USAD (Audibert et al. 2020) | reconstruction of `x_t` | [`usad`] |
//! | N-BEATS (Oreshkin et al. 2020) | forecast of `s_t` | [`nbeats`] |
//!
//! [`builder`] turns a `sad_core::AlgorithmSpec` (one of the 26 Table I
//! combinations) into a runnable `sad_core::Detector`.
//!
//! The neural models scale inputs with per-dimension affine statistics fit
//! on the warm-up training set ([`scaler`]) — reference implementations of
//! AE/USAD/N-BEATS do the same in their data loaders; predictions are
//! mapped back to raw units before the cosine nonconformity is computed.

pub mod ae;
pub mod arima;
pub mod batch_infer;
pub mod builder;
pub mod nbeats;
pub mod pcb;
pub mod scaler;
pub mod usad;
pub mod var;

pub use ae::TwoLayerAe;
pub use arima::OnlineArima;
pub use batch_infer::{
    batch_arch_key, infer_state_equal, infer_view, ArchKey, ArchKind, InferBatch, InferSnapshot,
    InferView,
};
pub use builder::{
    build_detector, build_model, build_scorer, build_scorer_bank, build_shared_warmup,
    build_task1, build_task2, min_window, BuildParams,
};
pub use nbeats::{BasisKind, NBeats};
pub use pcb::PcbIForestModel;
pub use scaler::Affine;
pub use usad::Usad;
pub use var::VarModel;
/// The precision parameter of [`InferBatch`], [`InferView`] and
/// [`InferSnapshot`], re-exported so serving layers can be generic over it.
pub use sad_tensor::Scalar;
