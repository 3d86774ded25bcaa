//! The four workloads. Each is a fixed shape; only the request stream
//! (ids, arrival times, delta contents) comes from the seed.

use std::time::Duration;

use memcom_serve::{ServeConfig, TelemetryConfig};

/// How requests reach the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// Closed loop of one caller over one loopback `NetClient`
    /// connection, one request in flight.
    Wire,
    /// Closed loop of one in-process `RouterHandle` caller.
    InProc,
}

/// Which distribution request ids are drawn from.
#[derive(Debug, Clone, Copy)]
pub enum IdDist {
    /// Zipf with exponent [`ZIPF_EXPONENT`].
    Zipf,
    Uniform,
}

pub const ZIPF_EXPONENT: f64 = 1.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lookup,
    Score,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub front: Front,
    pub op: Op,
    pub vocab: usize,
    pub dim: usize,
    /// MemCom shared-table rows.
    pub hash_size: usize,
    /// Classes of the scoring head (score workloads only).
    pub n_classes: usize,
    pub ids_per_request: usize,
    pub ids: IdDist,
    /// The p90 latency limit behind `max_rps_at_slo`, microseconds.
    pub slo_p90_us: f64,
    /// A writer applies a [`DELTA_ROWS`]-row delta every
    /// [`DELTA_PERIOD`] beside the caller (`refresh`).
    pub writer: bool,
}

/// Rows per delta, for the `refresh` writer and the idle applies that
/// measure `delta_apply_ms` elsewhere.
pub const DELTA_ROWS: usize = 1_000;
pub const DELTA_PERIOD: Duration = Duration::from_millis(50);
/// Per-shard hot-row LRU capacity, in rows.
pub const CACHE_ROWS: usize = 1024;

/// Generator validity limit, microseconds, on the median over time
/// windows of the p90 gap between a reply and the caller's next call.
/// A run over it is invalid.
pub const LATE_P90_LIMIT_US: f64 = 5_000.0;

/// Request ids in score requests are drawn from a fixed pool of this
/// many distinct requests, so every reply can be checked against a
/// precomputed fp32 forward. The pool is the same for every seed (the
/// seed draws the order requests are sent in), so `score_err_max`, the
/// largest error over the pool, is the same on every run.
pub const SCORE_POOL: usize = 2048;

pub fn all() -> Vec<Spec> {
    let base = Spec {
        name: "",
        front: Front::Wire,
        op: Op::Lookup,
        vocab: 100_000,
        dim: 32,
        hash_size: 10_000,
        n_classes: 0,
        ids_per_request: 16,
        ids: IdDist::Zipf,
        slo_p90_us: 0.0,
        writer: false,
    };
    vec![
        Spec {
            name: "wire-lookup",
            slo_p90_us: 1_000.0,
            ..base.clone()
        },
        Spec {
            name: "inproc-cold",
            front: Front::InProc,
            vocab: 1_000_000,
            dim: 64,
            hash_size: 100_000,
            ids_per_request: 1024,
            ids: IdDist::Uniform,
            slo_p90_us: 5_000.0,
            ..base.clone()
        },
        Spec {
            name: "wire-score",
            op: Op::Score,
            dim: 64,
            n_classes: 8192,
            ids_per_request: 64,
            slo_p90_us: 3_000.0,
            ..base.clone()
        },
        Spec {
            name: "refresh",
            front: Front::InProc,
            slo_p90_us: 2_000.0,
            writer: true,
            ..base
        },
    ]
}

pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// The server configuration every workload runs: one shard per core of
/// the reference host, 64-row batches, a 50 µs batching window.
pub fn serve_config(telemetry: TelemetryConfig) -> ServeConfig {
    ServeConfig {
        n_shards: 2,
        max_batch: 64,
        max_wait: Duration::from_micros(50),
        cache_capacity: CACHE_ROWS,
        dtype: memcom_ondevice::Dtype::Int8,
        telemetry,
        ..ServeConfig::default()
    }
}
