//! The wire generator: a closed loop of one caller over one `NetClient`
//! connection, one request in flight. Latency runs from just before
//! `send`/`send_score` to the end of `Pending::wait`.
//!
//! A closed loop rather than a paced open loop: on the 2-vCPU reference
//! VM the host takes the vCPUs away for milliseconds at a time (steal),
//! in episodes of minutes at 10–35 %. An open loop times every request
//! queued behind such a stall, so its latencies measure how long the
//! host stalled: at 15 % steal the open-loop p90 at 1 500 req/s read
//! 5.8 ms against 0.3 ms on a quiet host, and sets of ten runs spread by
//! up to 8× their median. In a closed loop a stall delays the one
//! request in flight, so the latencies stay the program's.

use std::time::{Duration, Instant};

use memcom_net::{NetClient, RowsResponse};
use rand::rngs::StdRng;
use rand::Rng;

use crate::check::Oracle;
use crate::gen::IdStream;
use crate::setup::MODEL;
use crate::spans::{Span, Tracer};
use crate::stats::{corrupt, Samples, Windowed};

/// What one closed-loop phase over the wire produced.
#[derive(Default)]
pub struct Phase {
    /// Send to reply, successful requests, microseconds.
    pub lat: Samples,
    /// The same, split by send time into windows.
    pub windows: Windowed,
    /// Gap between one reply and the next send, microseconds, split by
    /// send time into windows.
    pub gap: Windowed,
    /// Time spent inside `send`/`send_score`, microseconds.
    pub send_us: Samples,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub err_max: f64,
    pub mismatches: Vec<String>,
    /// The last few requests and their reply data, for replays.
    pub captured: Vec<(Vec<usize>, Vec<f32>)>,
}

impl Phase {
    /// MB the loop's own samples hold: the benchmark's memory, which
    /// grows with throughput and is taken out of `peak_rss_mb`. Their
    /// room is reserved before the loop starts: growing them as they
    /// fill would leave old buffers resident at times that vary from
    /// run to run, which moved `peak_rss_mb` by 6 % between runs.
    pub fn record_mb(&self) -> f64 {
        let samples = self.lat.len() + self.windows.len() + self.gap.len() + self.send_us.len();
        (samples * std::mem::size_of::<f64>()) as f64 / 1e6
    }
}

/// Where a request's ids come from.
pub enum Source<'a> {
    Ids(IdStream),
    /// Uniform picks from a fixed pool of requests.
    Pool(&'a [Vec<usize>], StdRng),
}

impl Source<'_> {
    fn next(&mut self) -> (usize, Vec<usize>) {
        match self {
            Source::Ids(s) => (0, s.next()),
            Source::Pool(pool, rng) => {
                let idx = rng.gen_range(0..pool.len());
                (idx, pool[idx].clone())
            }
        }
    }
}

const CAPTURE: usize = 64;

pub struct WireLoop<'a> {
    pub client: &'a NetClient,
    pub oracle: &'a Oracle,
    pub score: bool,
    pub tracer: Option<&'a Tracer>,
    /// Test hook: flip one bit of this many-th reply before checking it.
    pub corrupt_at: Option<u64>,
}

impl WireLoop<'_> {
    /// Sends requests one at a time from this thread for `duration`,
    /// checking every reply as it arrives. Room for `expected` requests
    /// is reserved up front.
    pub fn run(
        &self,
        source: &mut Source<'_>,
        duration: Duration,
        windows: usize,
        expected: usize,
    ) -> Phase {
        let start = Instant::now();
        let end = start + duration;
        let mut phase = Phase {
            windows: Windowed::new(start, duration, windows),
            gap: Windowed::new(start, duration, windows),
            ..Phase::default()
        };
        phase.windows.reserve(expected);
        phase.gap.reserve(expected);
        phase.lat.reserve(expected);
        phase.send_us.reserve(expected);
        let mut spans: Vec<Span> = Vec::new();
        let mut prev_done: Option<Instant> = None;
        while Instant::now() < end {
            let (pool_idx, ids) = source.next();
            let wire_ids: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
            let sent = Instant::now();
            if let Some(prev) = prev_done {
                phase.gap.push(sent, (sent - prev).as_secs_f64() * 1e6);
            }
            let pending = if self.score {
                self.client.send_score(MODEL, &wire_ids, None)
            } else {
                self.client.send(MODEL, &wire_ids, None)
            };
            let send_done = Instant::now();
            phase.attempted += 1;
            phase.send_us.push_duration(send_done - sent);
            let (request, reply) = match pending {
                Ok(p) => (p.request_id(), p.wait()),
                Err(e) => (0, Err(e)),
            };
            let done = Instant::now();
            prev_done = Some(done);
            match reply {
                Ok(reply) => {
                    let lat = done - sent;
                    phase.lat.push_duration(lat);
                    phase.windows.push(sent, lat.as_secs_f64() * 1e6);
                    self.accept(&mut phase, pool_idx, ids, reply);
                    if let Some(t) = self.tracer {
                        let root = t.span("client.request", 0, request, sent, done);
                        spans.push(t.span("net.client.send", root.id, request, sent, send_done));
                        spans.push(t.span("net.client.wait", root.id, request, send_done, done));
                        spans.push(root);
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    if phase.mismatches.len() < 4 {
                        phase.mismatches.push(format!("request failed: {e}"));
                    }
                }
            }
        }
        if let Some(t) = self.tracer {
            t.absorb(spans);
        }
        phase
    }

    fn accept(&self, phase: &mut Phase, pool_idx: usize, ids: Vec<usize>, mut reply: RowsResponse) {
        phase.ok += 1;
        if self.corrupt_at == Some(phase.ok) {
            if let Some(v) = reply.data.first_mut() {
                corrupt(v);
            }
        }
        let checked = match self.oracle {
            Oracle::Rows(o) => o.check(&ids, &reply.data),
            Oracle::Scores(o) => o.check(pool_idx, &reply.data),
        };
        match checked {
            Ok(err) => phase.err_max = phase.err_max.max(err),
            Err(msg) if phase.mismatches.len() < 4 => phase.mismatches.push(msg),
            Err(_) => {}
        }
        if phase.captured.len() == CAPTURE {
            phase.captured.remove(0);
        }
        phase.captured.push((ids, reply.data));
    }
}
