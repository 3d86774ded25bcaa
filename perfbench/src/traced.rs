//! The traced run: per-layer figures for one workload. It never feeds
//! the end-to-end numbers.
//!
//! It runs the workload twice at its operating point: once untraced,
//! for the baseline the residual and the tracing overhead are taken
//! against, and once with spans recorded around every call into a
//! layer and the serving tier's full telemetry on. After the traced
//! window it replays layer functions in isolation on the live snapshot
//! and the captured requests and replies. Spans and the per-layer table
//! are written under `.bench_out/`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use memcom_net::wire::{decode_payload, encode_lookup, encode_rows, encode_score};
use memcom_net::{LookupRequest, ScoreRequest};
use memcom_ondevice::compute::WorkCounts;
use memcom_ondevice::{decode_row_into, quantize_row, Dtype, HeadScratch};
use memcom_serve::{
    EmbedBatch, InferBackend, InferScratch, LatencyHistogram, LookupBackend, ScoreBatch,
    ShardedStore, TelemetryConfig,
};

use crate::drive::{build_oracle, drive, idle_applies, reconcile, Measured, Plan};
use crate::gen::{stream, IdStream};
use crate::report::Report;
use crate::setup::{System, MODEL, STAGE_NAMES};
use crate::spans::Tracer;
use crate::spec::{Front, Op, Spec};
use crate::stats::{median, Samples};

/// Wall time each replay loop runs for.
const REPLAY: Duration = Duration::from_millis(60);
/// Ids in the store lookup replay.
const REPLAY_ROWS: usize = 65_536;
/// Trace every request the serving tier's own sampler can see.
const SAMPLE_RATE: f64 = 1.0;

pub fn run(spec: &Spec, seed: u64, seconds: f64, corrupt_at: Option<u64>) -> Report {
    let mut report = Report::new(spec.name, seed);
    let tracer = Tracer::new();
    let plan = Plan {
        warm: Duration::from_secs_f64(0.05 * seconds),
        window: Duration::from_secs_f64(0.4 * seconds),
    };

    // Untraced baseline.
    let sys = System::build(spec, TelemetryConfig::off());
    let oracle = build_oracle(&sys);
    let mut base = drive(&sys, &oracle, seed, &plan, None, None);
    let untraced_p50 = base.windows.median_of(0.5);
    let setup_untraced = sys.times;
    let client = sys.client().map(|c| c.stats());
    let down = sys.shutdown();
    let mut problems = base.mismatches.clone();
    problems.extend(reconcile(
        &down.stats,
        base.rows_sent,
        down.net.as_ref().zip(client),
    ));
    drop(oracle);

    // Traced run.
    let sys = System::build(spec, TelemetryConfig::full(SAMPLE_RATE));
    for (k, name) in STAGE_NAMES.iter().enumerate() {
        let (start, end) = sys.times.stages[k];
        tracer.record(tracer.span(name, 0, 0, start, end));
    }
    let oracle = build_oracle(&sys);
    let before = cache_counters(&sys.router().snapshot(MODEL).expect("model registered"));
    let mut m = drive(&sys, &oracle, seed, &plan, Some(&tracer), corrupt_at);
    let snapshot = sys.router().snapshot(MODEL).expect("model registered");
    let after = cache_counters(&snapshot);
    let stats = sys.stats();
    let serve_metrics = sys.router().metrics();
    problems.extend(m.mismatches.iter().cloned());

    let layers = Layers::replay(&sys, &snapshot, &m, seed, &tracer);
    let (router_call, extra_rows) = match spec.front {
        Front::InProc => (m.lat.median(), 0),
        Front::Wire => router_call_replay(&sys, &m, &tracer),
    };
    let (copied_kb, overlap_p90) = match &m.writes {
        Some(w) => {
            let copied: Vec<f64> = w.copied_bytes.iter().map(|&b| b as f64).collect();
            (median(&copied) / 1e3, Some(m.overlap_lat.quantile(0.9)))
        }
        None => (idle_applies(&sys, seed, 5).1.median() / 1e3, None),
    };
    let client = sys.client().map(|c| c.stats());
    let setup_traced = sys.times;
    let down = sys.shutdown();
    problems.extend(reconcile(
        &down.stats,
        m.rows_sent + extra_rows,
        down.net.as_ref().zip(client),
    ));

    // Cache counters over the traced run: the final snapshot's, plus
    // those of every snapshot a delta retired, minus where the first
    // snapshot stood before the run.
    let retired = m.writes.as_ref().map_or((0, 0, 0), |w| {
        (w.retired_hits, w.retired_misses, w.retired_evictions)
    });
    let hits = (after.0 + retired.0).saturating_sub(before.0);
    let misses = (after.1 + retired.1).saturating_sub(before.1);
    let evictions = (after.2 + retired.2).saturating_sub(before.2);
    let kreq = m.attempted_all as f64 / 1e3;
    let net = down.net.as_ref();
    let stage_mean = |pick: fn(&memcom_serve::ShardStageMetrics) -> &LatencyHistogram| {
        let mut h = LatencyHistogram::new();
        for stage in &serve_metrics.stages {
            h.merge(pick(stage));
        }
        h.mean_nanos() / 1e3
    };
    let traced_p50 = m.windows.median_of(0.5);
    let rows = spec.ids_per_request as f64;
    let data_ns = match spec.op {
        Op::Lookup => layers.lookup_ns_per_row * rows,
        Op::Score => layers.score_us * 1e3,
    };
    let blocking_ns = match spec.front {
        Front::Wire => {
            layers.encode_req_ns
                + layers.decode_req_ns
                + data_ns
                + layers.encode_reply_ns
                + layers.decode_reply_ns
        }
        Front::InProc => data_ns,
    };
    // Mean of the untraced and the traced set-up.
    let setup_stage = |k: usize| {
        (setup_untraced.stage(k).as_secs_f64() + setup_traced.stage(k).as_secs_f64()) / 2.0
    };

    let n = m.lat.len();
    let totals = net.map(|n| n.totals());
    let metrics: Vec<(&str, f64, &'static str)> = vec![
        ("loadgen.late_p90_us", m.late.median_of(0.9), "us"),
        ("net.client.send_us", m.send_us.median(), "us"),
        ("net.wire.encode_req_ns", layers.encode_req_ns, "ns"),
        ("net.wire.decode_req_ns", layers.decode_req_ns, "ns"),
        ("net.wire.encode_reply_ns", layers.encode_reply_ns, "ns"),
        ("net.wire.decode_reply_ns", layers.decode_reply_ns, "ns"),
        ("net.wire.reply_bytes", layers.reply_bytes, "bytes"),
        (
            "net.server.frames_in",
            totals.as_ref().map_or(0.0, |t| t.frames_in as f64),
            "count",
        ),
        (
            "net.server.errors_sent",
            totals.as_ref().map_or(0.0, |t| t.errors_sent as f64),
            "count",
        ),
        (
            "net.server.frame_decode_us",
            net.map_or(0.0, |n| n.frame_decode.mean_nanos() / 1e3),
            "us",
        ),
        (
            "net.server.socket_write_us",
            net.map_or(0.0, |n| n.socket_write.mean_nanos() / 1e3),
            "us",
        ),
        ("serve.router.call_us", router_call, "us"),
        (
            "serve.router.shed_frac",
            stats.shed as f64 / stats.issued.max(1) as f64,
            "frac",
        ),
        (
            "serve.router.expired_frac",
            stats.expired as f64 / stats.issued.max(1) as f64,
            "frac",
        ),
        (
            "serve.router.admission_wait_us",
            stage_mean(|s| &s.admission_wait),
            "us",
        ),
        ("serve.batcher.mean_batch_rows", stats.mean_batch(), "rows"),
        (
            "serve.batcher.timeout_flush_frac",
            stats.flushes_timeout as f64 / stats.batches.max(1) as f64,
            "frac",
        ),
        (
            "serve.batcher.queue_wait_us",
            stage_mean(|s| &s.queue_wait),
            "us",
        ),
        (
            "serve.batcher.batch_assembly_us",
            stage_mean(|s| &s.batch_assembly),
            "us",
        ),
        (
            "serve.store.lookup_ns_per_row",
            layers.lookup_ns_per_row,
            "ns",
        ),
        (
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "frac",
        ),
        (
            "serve.cache.evictions_per_kreq",
            evictions as f64 / kreq.max(1e-9),
            "1/kreq",
        ),
        (
            "serve.store.resident_mb",
            snapshot.run_stats().resident_model_bytes as f64 / 1e6,
            "MB",
        ),
        ("serve.infer.score_us", layers.score_us, "us"),
        (
            "ondevice.engine.forward_head_us",
            layers.forward_head_us,
            "us",
        ),
        (
            "ondevice.engine.flops_per_call",
            layers.flops_per_call,
            "flops",
        ),
        (
            "ondevice.engine.bytes_per_call",
            layers.bytes_per_call,
            "bytes",
        ),
        ("ondevice.decode_ns_per_row", layers.decode_ns_per_row, "ns"),
        ("serve.delta.copied_kb", copied_kb, "KB"),
        ("setup.model_build_s", setup_stage(0), "s"),
        ("setup.store_build_s", setup_stage(1), "s"),
        ("setup.server_start_s", setup_stage(2), "s"),
        ("unattributed_us", untraced_p50 - blocking_ns / 1e3, "us"),
        (
            "trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(1e-9),
            "%",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit, None);
    }
    report.note(
        "p50_us (untraced)",
        untraced_p50,
        "us",
        Some(base.lat.len()),
    );
    report.note("p50_us (traced)", traced_p50, "us", Some(n));
    // Only `refresh` reads beside applies; it is not a benchmark
    // workload while it fails its row check.
    if let Some(p90) = overlap_p90 {
        let n = m.overlap_lat.len();
        report.note("serve.delta.overlap_p90_us", p90, "us", Some(n));
    }
    report.attempted = base.attempted_all + m.attempted_all;
    report.failed = base.failed_all + m.failed_all;
    report.problems = problems;

    let stem = format!("{}-seed{seed}", spec.name);
    let dir = PathBuf::from(".bench_out");
    let spans_path = dir.join(format!("spans-{stem}.jsonl"));
    let table_path = dir.join(format!("layers-{stem}.tsv"));
    let written = tracer.write(&spans_path).and_then(|()| {
        let table: String = report
            .metrics
            .iter()
            .map(|m| format!("{}\t{}\t{}\n", m.name, m.value, m.unit))
            .collect();
        std::fs::write(&table_path, table)
    });
    match written {
        Ok(()) => report.note_owned(
            format!("spans written to {}", spans_path.display()),
            tracer.len() as f64,
            "spans",
            None,
        ),
        Err(e) => report.problems.push(format!("writing the trace: {e}")),
    }
    report
}

/// Hits, misses and evictions of a snapshot's caches so far.
fn cache_counters(store: &ShardedStore) -> (u64, u64, u64) {
    let c = store.cache_stats();
    let evictions = store
        .per_shard_cache_stats()
        .iter()
        .map(|s| s.evictions)
        .sum();
    (c.hits, c.misses, evictions)
}

/// Layer functions replayed in isolation, one thread, no contention.
#[derive(Default)]
struct Layers {
    encode_req_ns: f64,
    decode_req_ns: f64,
    encode_reply_ns: f64,
    decode_reply_ns: f64,
    reply_bytes: f64,
    lookup_ns_per_row: f64,
    score_us: f64,
    forward_head_us: f64,
    flops_per_call: f64,
    bytes_per_call: f64,
    decode_ns_per_row: f64,
}

/// Median over repeated passes of the time per item of one pass.
fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    let mut samples = Samples::new();
    let end = Instant::now() + REPLAY;
    while samples.len() < 3 || Instant::now() < end {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    samples.median()
}

impl Layers {
    fn replay(
        sys: &System,
        snapshot: &ShardedStore,
        m: &Measured,
        seed: u64,
        tracer: &Tracer,
    ) -> Layers {
        let spec = &sys.spec;
        let requests: Vec<&Vec<usize>> = m.captured.iter().map(|(ids, _)| ids).collect();
        let replies: Vec<&Vec<f32>> = m.captured.iter().map(|(_, data)| data).collect();
        let mut out = Layers::default();
        let timed = |name: &'static str, f: &mut dyn FnMut() -> f64| {
            let t = Instant::now();
            let v = f();
            tracer.record(tracer.span(name, 0, 0, t, Instant::now()));
            v
        };

        // net.wire: encode and decode the captured requests and replies.
        let wire_ids: Vec<Vec<u64>> = requests
            .iter()
            .map(|ids| ids.iter().map(|&i| i as u64).collect())
            .collect();
        let encode_req = |k: usize, ids: &[u64], buf: &mut Vec<u8>| {
            let request_id = k as u64 + 1;
            match spec.op {
                Op::Lookup => encode_lookup(
                    &LookupRequest {
                        request_id,
                        model: MODEL.to_string(),
                        ids: ids.to_vec(),
                        dtype_hint: None,
                        deadline: None,
                    },
                    buf,
                ),
                Op::Score => encode_score(
                    &ScoreRequest {
                        request_id,
                        model: MODEL.to_string(),
                        ids: ids.to_vec(),
                        dtype_hint: None,
                        deadline: None,
                    },
                    buf,
                ),
            }
            .expect("request encodes");
        };
        let mut buf = Vec::new();
        out.encode_req_ns = timed("net.wire.encode_req", &mut || {
            per_item_ns(wire_ids.len(), || {
                for (k, ids) in wire_ids.iter().enumerate() {
                    buf.clear();
                    encode_req(k, ids, &mut buf);
                    std::hint::black_box(&buf);
                }
            })
        });
        let req_frames: Vec<Vec<u8>> = wire_ids
            .iter()
            .enumerate()
            .map(|(k, ids)| {
                let mut frame = Vec::new();
                encode_req(k, ids, &mut frame);
                frame
            })
            .collect();
        out.decode_req_ns = timed("net.wire.decode_req", &mut || {
            per_item_ns(req_frames.len(), || {
                for frame in &req_frames {
                    std::hint::black_box(decode_payload(&frame[4..]).expect("request decodes"));
                }
            })
        });
        let reply_dim = match spec.op {
            Op::Lookup => spec.dim as u32,
            Op::Score => spec.n_classes as u32,
        };
        out.encode_reply_ns = timed("net.wire.encode_reply", &mut || {
            per_item_ns(replies.len(), || {
                for (k, data) in replies.iter().enumerate() {
                    buf.clear();
                    encode_rows(k as u64 + 1, reply_dim, data, &mut buf).expect("reply encodes");
                    std::hint::black_box(&buf);
                }
            })
        });
        let reply_frames: Vec<Vec<u8>> = replies
            .iter()
            .enumerate()
            .map(|(k, data)| {
                let mut frame = Vec::new();
                encode_rows(k as u64 + 1, reply_dim, data, &mut frame).expect("reply encodes");
                frame
            })
            .collect();
        out.reply_bytes = reply_frames.iter().map(Vec::len).sum::<usize>() as f64
            / reply_frames.len().max(1) as f64;
        out.decode_reply_ns = timed("net.wire.decode_reply", &mut || {
            per_item_ns(reply_frames.len(), || {
                for frame in &reply_frames {
                    std::hint::black_box(decode_payload(&frame[4..]).expect("reply decodes"));
                }
            })
        });

        // serve.store: lookup_batch on the live snapshot and its cache,
        // over a fresh stream of the workload's ids split by shard: far
        // more ids than the cache holds, so it hits about as often as
        // in the run (the few captured requests would all stay cached).
        let n_shards = snapshot.n_shards();
        let mut fresh = IdStream::new(spec, seed, stream::REPLAY_IDS);
        let split: Vec<Vec<Vec<usize>>> = (0..REPLAY_ROWS.div_ceil(spec.ids_per_request))
            .map(|_| {
                let mut per = vec![Vec::new(); n_shards];
                for id in fresh.next() {
                    per[snapshot.shard_of(id)].push(id);
                }
                per
            })
            .collect();
        let total_rows: usize = split.iter().flatten().map(Vec::len).sum();
        let mut slab = vec![0f32; spec.ids_per_request * spec.dim];
        out.lookup_ns_per_row = timed("serve.store.lookup_batch", &mut || {
            per_item_ns(total_rows, || {
                for per in &split {
                    for (shard, ids) in per.iter().enumerate() {
                        let out = &mut slab[..ids.len() * spec.dim];
                        snapshot.lookup_batch(shard, ids, out).expect("rows");
                    }
                }
            })
        });

        // serve.infer: the model's backend, called directly.
        let backend: &dyn InferBackend = match &sys.backend {
            Some(b) => b.as_ref(),
            None => &LookupBackend,
        };
        let mut scratch = InferScratch::new();
        let mut scores = vec![0f32; backend.out_len(spec.ids_per_request, snapshot)];
        out.score_us = timed("serve.infer.score_into", &mut || {
            per_item_ns(requests.len(), || {
                for ids in &requests {
                    backend
                        .score_into(snapshot, ids, &mut scratch, &mut scores)
                        .expect("backend scores");
                }
            }) / 1e3
        });

        // ondevice.engine: the head alone, over rows gathered beforehand.
        if let Some(b) = &sys.backend {
            let session = b.session();
            let gathered: Vec<Vec<f32>> = requests
                .iter()
                .map(|ids| {
                    ids.iter()
                        .flat_map(|&id| snapshot.get(id).expect("row"))
                        .collect()
                })
                .collect();
            let mut head = HeadScratch::new();
            let mut logits = Vec::new();
            let mut calls = Samples::new();
            let t = Instant::now();
            let end = t + REPLAY;
            let mut work = WorkCounts::default();
            while calls.len() < 3 || Instant::now() < end {
                for (ids, rows) in requests.iter().zip(&gathered) {
                    head.input(ids.len(), spec.dim).copy_from_slice(rows);
                    let mut one = WorkCounts::default();
                    let t0 = Instant::now();
                    session
                        .forward_head(ids.len(), &mut head, &mut logits, &mut one)
                        .expect("head runs");
                    calls.push_duration(t0.elapsed());
                    work = one;
                }
            }
            tracer.record(tracer.span("ondevice.engine.forward_head", 0, 0, t, Instant::now()));
            out.forward_head_us = calls.median();
            out.flops_per_call = work.flops as f64;
            out.bytes_per_call = (work.cold_bytes + work.warm_bytes + work.activation_bytes) as f64;
        }

        // ondevice.quant: int8 decode of the captured ids' rows.
        let exact: Vec<f32> = requests
            .iter()
            .flat_map(|ids| {
                sys.model
                    .emb()
                    .lookup(ids)
                    .expect("fp32 rows")
                    .as_slice()
                    .to_vec()
            })
            .collect();
        let packed: Vec<(Vec<u8>, f32)> = exact
            .chunks_exact(spec.dim)
            .map(|row| {
                let mut bytes = vec![0u8; Dtype::Int8.row_bytes(spec.dim)];
                let scale = quantize_row(row, Dtype::Int8, &mut bytes);
                (bytes, scale)
            })
            .collect();
        let mut row = vec![0f32; spec.dim];
        out.decode_ns_per_row = timed("ondevice.quant.decode_row_into", &mut || {
            per_item_ns(packed.len(), || {
                for (bytes, scale) in &packed {
                    decode_row_into(bytes, Dtype::Int8, *scale, &mut row);
                    std::hint::black_box(&row);
                }
            })
        });
        out
    }
}

/// Wire workloads: the captured requests sent to the router in process,
/// one at a time, to time the router call without the wire. Returns the
/// median call time and the rows sent.
fn router_call_replay(sys: &System, m: &Measured, tracer: &Tracer) -> (f64, u64) {
    let handle = sys.handle();
    let mut lat = Samples::new();
    let mut batch = EmbedBatch::new();
    let mut scores = ScoreBatch::new();
    let end = Instant::now() + REPLAY * 4;
    let mut request = 0u64;
    let mut rows = 0u64;
    while lat.len() < 3 || Instant::now() < end {
        for (ids, _) in &m.captured {
            let t0 = Instant::now();
            match sys.spec.op {
                Op::Lookup => handle.get_batch_into(ids, &mut batch),
                Op::Score => handle.score_batch_into(ids, &mut scores),
            }
            .expect("router answers");
            let t1 = Instant::now();
            request += 1;
            rows += ids.len() as u64;
            lat.push_duration(t1 - t0);
            tracer.record(tracer.span("serve.router.call", 0, request, t0, t1));
        }
    }
    (lat.median(), rows)
}
