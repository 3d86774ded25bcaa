//! A closed loop of one in-process caller, and the `refresh` writer
//! that applies row deltas beside it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use memcom_core::EmbeddingCompressor;
use memcom_serve::{EmbedBatch, Router, RouterHandle, ShardedStore, StoreDelta};
use rand::Rng;

use crate::check::RowOracle;
use crate::gen::{self, IdStream};
use crate::setup::MODEL;
use crate::spans::{Span, Tracer};
use crate::spec::{Spec, DELTA_PERIOD, DELTA_ROWS};
use crate::stats::{corrupt, fingerprint, fold_fingerprints, max_abs_diff, Samples, Windowed};

/// The caller's record of what it got back. It is kept compact, since
/// the benchmark's own memory counts in `peak_rss_mb`, and checked after
/// the run against ids regenerated from the caller's stream.
#[derive(Default)]
pub struct Record {
    pub stream: u64,
    /// Per request, in order: `None` if it failed, else the snapshot
    /// versions live while it ran (`refresh`; `(0, 0)` otherwise).
    pub requests: Vec<Option<(u32, u32)>>,
    /// Fixed table: one fingerprint per answered request (the whole
    /// reply). `refresh`: one per row read.
    pub fps: Vec<u64>,
}

/// One `refresh` read, rebuilt after the run from a [`Record`].
pub struct Read {
    pub ids: Vec<usize>,
    pub fps: Vec<u64>,
    pub v_lo: u64,
    pub v_hi: u64,
}

/// Rebuilds the reads of `record` (see [`Record`]).
pub fn reads(spec: &Spec, seed: u64, record: &Record) -> Vec<Read> {
    let mut regen = IdStream::new(spec, seed, record.stream);
    let mut fps = record.fps.chunks_exact(spec.ids_per_request);
    let mut out = Vec::new();
    for request in &record.requests {
        let ids = regen.next();
        if let Some((v_lo, v_hi)) = request {
            out.push(Read {
                ids,
                fps: fps.next().expect("one fingerprint per row read").to_vec(),
                v_lo: u64::from(*v_lo),
                v_hi: u64::from(*v_hi),
            });
        }
    }
    out
}

#[derive(Default)]
pub struct Closed {
    /// Call latency of successful requests, microseconds.
    pub lat: Samples,
    /// The same, split by call time into windows.
    pub windows: Windowed,
    /// Gap between one reply and the caller's next call, microseconds,
    /// split by call time into windows.
    pub gap: Windowed,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub err_max: f64,
    pub mismatches: Vec<String>,
    pub captured: Vec<(Vec<usize>, Vec<f32>)>,
    pub record: Record,
    /// `refresh`: latency of the reads that overlapped a delta apply.
    pub overlap_lat: Samples,
}

impl Closed {
    /// MB the caller's per-request record and samples hold: the
    /// benchmark's own memory, which grows with throughput and is taken
    /// out of `peak_rss_mb`.
    pub fn record_mb(&self) -> f64 {
        let r = &self.record;
        let record = r.fps.len() * std::mem::size_of::<u64>()
            + r.requests.len() * std::mem::size_of::<Option<(u32, u32)>>();
        let samples = self.lat.len() + self.windows.len() + self.gap.len() + self.overlap_lat.len();
        (record + samples * std::mem::size_of::<f64>()) as f64 / 1e6
    }
}

/// Snapshot versions published by the `refresh` writer: `pending` moves
/// before `Router::apply_delta` is called, `live` after it returns, so a
/// read that starts after seeing `live = a` and ends before seeing
/// `pending = b` was served by snapshots `a..=b`.
#[derive(Default)]
pub struct Versions {
    pub live: AtomicU32,
    pub pending: AtomicU32,
}

/// How rows are checked in a closed loop.
pub enum RowCheck<'a> {
    /// Against a fixed table, after the run: during it the caller only
    /// fingerprints its replies, so checking costs the loop little.
    Oracle(&'a RowOracle),
    /// Recorded with the live versions, checked after the run.
    Versioned(&'a Versions),
}

pub struct ClosedLoop<'a> {
    pub handle: &'a RouterHandle,
    pub spec: &'a Spec,
    pub check: RowCheck<'a>,
    pub tracer: Option<&'a Tracer>,
    pub corrupt_at: Option<u64>,
}

const CAPTURE: usize = 32;

impl ClosedLoop<'_> {
    /// Calls the router from this thread for `duration`, drawing ids
    /// from stream `stream` of `seed`.
    pub fn run(&self, seed: u64, stream: u64, duration: Duration, windows: usize) -> Closed {
        let start = Instant::now();
        let ids = IdStream::new(self.spec, seed, stream);
        let windows = Windowed::new(start, duration, windows);
        let mut out = self.caller(ids, stream, start + duration, windows);
        if let RowCheck::Oracle(oracle) = self.check {
            self.check_replies(oracle, seed, &mut out);
        }
        out
    }

    /// Regenerates the caller's ids and checks every reply it recorded.
    fn check_replies(&self, oracle: &RowOracle, seed: u64, out: &mut Closed) {
        let mut ids = Vec::new();
        let stream = out.record.stream;
        let mut regen = IdStream::new(self.spec, seed, stream);
        let mut fps = out.record.fps.iter();
        for request in &out.record.requests {
            regen.next_into(&mut ids);
            if request.is_none() {
                continue;
            }
            let got = fps.next().expect("one fingerprint per reply");
            let (want, err) = oracle.expected_reply(&ids);
            if *got != want {
                out.mismatches.push(format!(
                    "a reply of stream {stream} differs from the served snapshot's rows"
                ));
                return;
            }
            out.err_max = out.err_max.max(err);
        }
    }

    fn caller(
        &self,
        mut ids_from: IdStream,
        stream: u64,
        end: Instant,
        windows: Windowed,
    ) -> Closed {
        let mut out = Closed {
            gap: windows.clone(),
            windows,
            record: Record {
                stream,
                ..Record::default()
            },
            ..Closed::default()
        };
        let mut spans: Vec<Span> = Vec::new();
        let mut batch = EmbedBatch::new();
        let mut ids = Vec::new();
        let mut prev_done: Option<Instant> = None;
        let mut request = 0u64;
        while Instant::now() < end {
            ids_from.next_into(&mut ids);
            let v_lo = match self.check {
                RowCheck::Versioned(v) => v.live.load(Ordering::SeqCst),
                RowCheck::Oracle(_) => 0,
            };
            let t0 = Instant::now();
            if let Some(prev) = prev_done {
                out.gap.push(t0, (t0 - prev).as_secs_f64() * 1e6);
            }
            let result = self.handle.get_batch_into(&ids, &mut batch);
            let t1 = Instant::now();
            prev_done = Some(t1);
            out.attempted += 1;
            request += 1;
            if let Err(e) = result {
                out.failed += 1;
                out.record.requests.push(None);
                if out.mismatches.len() < 4 {
                    out.mismatches.push(format!("request failed: {e}"));
                }
                continue;
            }
            out.ok += 1;
            out.lat.push_duration(t1 - t0);
            out.windows.push(t0, (t1 - t0).as_secs_f64() * 1e6);
            if let Some(t) = self.tracer {
                spans.push(t.span("serve.router.call", 0, request, t0, t1));
            }
            let corrupted;
            let mut data = batch.data();
            if self.corrupt_at == Some(out.ok) {
                let mut copy = data.to_vec();
                corrupt(&mut copy[0]);
                corrupted = copy;
                data = &corrupted;
            }
            let record = &mut out.record;
            let rows = data.chunks_exact(self.spec.dim).map(fingerprint);
            match self.check {
                RowCheck::Oracle(_) => {
                    record.requests.push(Some((0, 0)));
                    record.fps.push(fold_fingerprints(rows));
                }
                RowCheck::Versioned(v) => {
                    let v_hi = v.pending.load(Ordering::SeqCst);
                    record.requests.push(Some((v_lo, v_hi)));
                    record.fps.extend(rows);
                    // The read overlapped an apply exactly when one began
                    // before it ended and finished after it began.
                    if v_hi > v_lo {
                        out.overlap_lat.push_duration(t1 - t0);
                    }
                }
            }
            if out.captured.len() < CAPTURE || out.ok.is_multiple_of(64) {
                if out.captured.len() == CAPTURE {
                    out.captured.remove(0);
                }
                out.captured.push((ids.clone(), data.to_vec()));
            }
        }
        if let Some(t) = self.tracer {
            t.absorb(spans);
        }
        out
    }
}

/// What the `refresh` writer did.
#[derive(Default)]
pub struct Writes {
    /// `Router::apply_delta` wall time, milliseconds.
    pub apply_ms: Samples,
    pub copied_bytes: Vec<u64>,
    /// Cache counters of the snapshots retired by the deltas.
    pub retired_hits: u64,
    pub retired_misses: u64,
    pub retired_evictions: u64,
}

/// A delta of `rows` uniformly drawn ids, each set to its fp32 row
/// scaled by a random factor: what a retrain that keeps the shared
/// table produces.
pub fn make_delta(
    emb: &dyn EmbeddingCompressor,
    vocab: usize,
    rows: usize,
    rng: &mut rand::rngs::StdRng,
) -> (Vec<usize>, Vec<f32>, StoreDelta) {
    let ids: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..vocab)).collect();
    let exact = emb.lookup(&ids).expect("fp32 rows");
    let dim = emb.output_dim();
    let mut values = exact.as_slice().to_vec();
    for row in values.chunks_exact_mut(dim) {
        let factor: f32 = rng.gen_range(0.5..1.5);
        for v in row.iter_mut() {
            *v *= factor;
        }
    }
    let mut delta = StoreDelta::new(dim);
    delta.upsert_rows(&ids, &values).expect("delta rows fit");
    (ids, values, delta)
}

pub struct Writer<'a> {
    pub router: &'a Router,
    pub emb: &'a dyn EmbeddingCompressor,
    pub spec: &'a Spec,
    pub versions: &'a Versions,
    pub tracer: Option<&'a Tracer>,
}

impl Writer<'_> {
    /// Applies one delta every [`DELTA_PERIOD`] until `duration` has
    /// passed. The deltas come from their own stream of `seed`, so the
    /// check can generate them again after the run.
    pub fn run(&self, seed: u64, duration: Duration) -> Writes {
        let mut rng = gen::rng(seed, gen::stream::DELTAS);
        let mut out = Writes::default();
        let start = Instant::now();
        let mut next = start;
        let mut version = self.versions.live.load(Ordering::SeqCst);
        loop {
            next += DELTA_PERIOD;
            if next >= start + duration {
                break;
            }
            let (_, _, delta) = make_delta(self.emb, self.spec.vocab, DELTA_ROWS, &mut rng);
            while Instant::now() < next {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            version += 1;
            self.versions.pending.store(version, Ordering::SeqCst);
            let t0 = Instant::now();
            let old = self
                .router
                .apply_delta(MODEL, &delta)
                .expect("delta applies");
            let t1 = Instant::now();
            self.versions.live.store(version, Ordering::SeqCst);
            out.apply_ms.push((t1 - t0).as_secs_f64() * 1e3);
            if let Some(t) = self.tracer {
                t.record(t.span("serve.delta.apply", 0, u64::from(version), t0, t1));
            }
            let retired = old.cache_stats();
            out.retired_hits += retired.hits;
            out.retired_misses += retired.misses;
            out.retired_evictions += old
                .per_shard_cache_stats()
                .iter()
                .map(|s| s.evictions)
                .sum::<u64>();
            drop(old);
            out.copied_bytes.push(
                self.router
                    .snapshot(MODEL)
                    .expect("model registered")
                    .cow_copied_bytes(),
            );
        }
        out
    }
}

/// Result of checking the `refresh` reads.
#[derive(Default)]
pub struct ReadCheck {
    /// Largest distance of a row read from the fp32 row the store was
    /// last asked to hold for that id, over the rows that passed.
    pub err_max: f64,
    pub rows: u64,
    /// Rows read that match no snapshot live during the read.
    pub stale_rows: u64,
    /// The first of them, described.
    pub first_stale: Option<String>,
}

/// Checks every recorded read against the snapshot versions live while
/// it ran.
///
/// `reference` is an uncached copy of the store as first served; the
/// writer's `deltas` are generated again from `seed` and applied to it
/// one by one, so version `v` of the reference holds what served
/// version `v` stored. A row read for id `x` during versions `lo..=hi`
/// must be bit-equal to `x`'s row in one of those versions; every row
/// that is not counts in `stale_rows`.
pub fn check_reads(
    reads: &[Read],
    emb: &dyn EmbeddingCompressor,
    mut reference: ShardedStore,
    spec: &Spec,
    seed: u64,
    deltas: usize,
) -> Result<ReadCheck, String> {
    let dim = spec.dim;
    let last = deltas as u64;
    let mut need: Vec<Vec<usize>> = vec![Vec::new(); deltas + 1];
    let mut finish: Vec<Vec<usize>> = vec![Vec::new(); deltas + 1];
    for (r, read) in reads.iter().enumerate() {
        let hi = read.v_hi.min(last);
        for v in read.v_lo..=hi {
            need[v as usize].push(r);
        }
        finish[hi as usize].push(r);
    }
    // Per id: its row in each version a read needed, as (version,
    // fingerprint, error).
    let mut seen: HashMap<usize, Vec<(u64, u64, f32)>> = HashMap::new();
    // Per id: the row the last delta naming it asked for.
    let mut asked: HashMap<usize, Vec<f32>> = HashMap::new();
    let mut rng = gen::rng(seed, gen::stream::DELTAS);
    let mut exact = vec![0f32; dim];
    let mut out = ReadCheck::default();
    for v in 0..=last {
        if v > 0 {
            let (ids, values, delta) = make_delta(emb, spec.vocab, DELTA_ROWS, &mut rng);
            reference = reference
                .apply_delta(&delta)
                .map_err(|e| format!("reference delta {v}: {e}"))?;
            for (&id, row) in ids.iter().zip(values.chunks_exact(dim)) {
                asked.insert(id, row.to_vec());
            }
        }
        for &r in &need[v as usize] {
            for &id in &reads[r].ids {
                let obs = seen.entry(id).or_default();
                if obs.last().is_some_and(|o| o.0 == v) {
                    continue;
                }
                let row = reference.get(id).map_err(|e| e.to_string())?;
                let err = match asked.get(&id) {
                    Some(want) => max_abs_diff(&row, want),
                    None => {
                        emb.embed_into(id, &mut exact).map_err(|e| e.to_string())?;
                        max_abs_diff(&row, &exact)
                    }
                };
                obs.push((v, fingerprint(&row), err as f32));
            }
        }
        for &r in &finish[v as usize] {
            let read = &reads[r];
            for (&id, &fp) in read.ids.iter().zip(&read.fps) {
                out.rows += 1;
                let obs = seen.get(&id).map_or(&[][..], Vec::as_slice);
                if let Some(o) = obs
                    .iter()
                    .find(|o| o.0 >= read.v_lo && o.0 <= v && o.1 == fp)
                {
                    out.err_max = out.err_max.max(f64::from(o.2));
                    continue;
                }
                out.stale_rows += 1;
                if out.first_stale.is_none() {
                    let older = obs.iter().rev().find(|o| o.0 < read.v_lo && o.1 == fp);
                    let was = older.map_or(String::new(), |o| {
                        format!(" (it equals the row of version {})", o.0)
                    });
                    out.first_stale = Some(format!(
                        "row for id {id} read during versions {}..={} matches none of them{was}",
                        read.v_lo, read.v_hi
                    ));
                }
            }
        }
    }
    Ok(out)
}
