//! Concurrency correctness: batched parallel serving must be
//! indistinguishable from serial replay, and a worker must flush a full
//! batch at `max_batch` and everything queued as soon as the queue
//! drains, never holding a batch open.

use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom, MemComConfig, MethodSpec};
use memcom_serve::{EmbedServer, ServeConfig, ServeError, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn memcom(vocab: usize, dim: usize, m: usize) -> MemCom {
    let mut rng = StdRng::seed_from_u64(1234);
    MemCom::new(MemComConfig::with_bias(vocab, dim, m), &mut rng).unwrap()
}

/// N threads × M requests through the batched server give results
/// identical to serial replay through the compressor's lookup path.
#[test]
fn concurrent_batched_results_match_serial_replay() {
    let vocab = 2_000;
    let emb = memcom(vocab, 16, 200);
    let server = EmbedServer::start(
        &emb,
        ServeConfig {
            n_shards: 4,
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();

    let threads = 8;
    let requests_per_thread = 250;
    // Pre-generate each thread's id stream so the serial replay sees the
    // exact same requests.
    let streams: Vec<Vec<usize>> = (0..threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(t as u64);
            (0..requests_per_thread)
                .map(|_| rng.gen_range(0..vocab))
                .collect()
        })
        .collect();

    let results: Vec<Vec<Vec<f32>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let handle = handle.clone();
                scope.spawn(move || {
                    stream
                        .iter()
                        .map(|&id| handle.get(id).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Serial replay: same ids through the untouched training-side path.
    for (stream, thread_results) in streams.iter().zip(&results) {
        for (&id, got) in stream.iter().zip(thread_results) {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "id {id}");
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests, (threads * requests_per_thread) as u64);
    assert!(
        stats.batches < stats.requests,
        "micro-batching must coalesce"
    );
    assert!(
        stats.max_batch_observed > 1,
        "some batch should exceed one request"
    );
}

/// Every serializable technique (not just MEmCom) serves correctly.
#[test]
fn every_method_serves_exact_rows() {
    let mut rng = StdRng::seed_from_u64(5);
    let specs = [
        MethodSpec::Uncompressed,
        MethodSpec::NaiveHash { hash_size: 32 },
        MethodSpec::MemCom {
            hash_size: 32,
            bias: false,
        },
        MethodSpec::TruncateRare { keep: 64 },
    ];
    for spec in specs {
        let emb = spec.build(300, 8, &mut rng).unwrap();
        let server = EmbedServer::start(emb.as_ref(), ServeConfig::with_shards(4)).unwrap();
        let handle = server.handle();
        for id in (0..300).step_by(7) {
            let want = emb.lookup(&[id]).unwrap();
            assert_eq!(
                handle.get(id).unwrap().as_slice(),
                want.as_slice(),
                "{spec:?} id {id}"
            );
        }
    }
}

/// A single-shard server whose worker sleeps `WEDGE` on every batch
/// that reaches the store, with full telemetry so admissions are
/// countable.
fn wedgeable(emb: &MemCom, max_batch: usize) -> EmbedServer {
    EmbedServer::start(
        emb,
        ServeConfig {
            n_shards: 1,
            max_batch,
            store_latency: WEDGE,
            telemetry: TelemetryConfig::full(0.0),
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// How long a wedged worker sleeps: far longer than it takes to queue a
/// handful of requests behind it.
const WEDGE: Duration = Duration::from_millis(300);

/// Polls the router's own counters until `done` holds, failing after
/// 10 s.
fn wait_for(mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "condition never held"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Queues `ids` as concurrent single-id requests behind a wedged worker
/// and returns once all of them (and the wedger) are served.
fn serve_behind_a_wedge(server: &EmbedServer, ids: &[usize]) {
    std::thread::scope(|scope| {
        let wedger = server.handle();
        scope.spawn(move || wedger.get(0).unwrap());
        // The worker has dequeued the wedger and now sleeps out WEDGE.
        wait_for(|| server.stats().batches == 1);
        for &id in ids {
            let handle = server.handle();
            scope.spawn(move || handle.get(id).unwrap());
        }
        // Every request is in the queue: admission is recorded only
        // after the push succeeds.
        wait_for(|| server.metrics().stages[0].admission_wait.count() == 1 + ids.len() as u64);
    });
}

/// `max_batch` requests queued behind a busy worker flush as one full
/// batch.
#[test]
fn flush_triggers_on_max_batch() {
    let emb = memcom(400, 8, 40);
    let max_batch = 4;
    let server = wedgeable(&emb, max_batch);
    let ids: Vec<usize> = (1..=max_batch).map(|i| i * 3).collect();
    serve_behind_a_wedge(&server, &ids);
    let stats = server.shutdown();
    assert_eq!(stats.requests, max_batch as u64 + 1);
    assert_eq!(stats.batches, 2, "the wedger, then the queued burst");
    assert_eq!(stats.flushes_full, 1, "exactly one full flush");
    assert_eq!(stats.flushes_idle, 1, "the wedger flushed alone");
    assert_eq!(stats.flushes_timeout, 0);
    assert_eq!(stats.max_batch_observed, max_batch);
}

/// A lone request flushes as soon as the worker sees the queue drained:
/// a 30 s `max_wait` holds nothing open.
#[test]
fn lone_request_flushes_when_the_queue_drains() {
    let emb = memcom(400, 8, 40);
    let server = EmbedServer::start(
        &emb,
        ServeConfig {
            n_shards: 1,
            max_batch: 1_024, // can never fill from one request
            max_wait: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();

    let t0 = Instant::now();
    handle.get(11).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "a lone request must not wait out max_wait (took {elapsed:?})"
    );
    let stats = server.shutdown();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.flushes_idle, 1, "exactly one idle flush");
    assert_eq!(stats.flushes_timeout, 0, "no timer ever fires");
    assert_eq!(stats.flushes_full, 0);
}

/// Requests that arrive while the worker is busy form the next batch:
/// batches grow with load without any timer.
#[test]
fn requests_queued_behind_a_busy_worker_form_one_batch() {
    let emb = memcom(400, 8, 40);
    let server = wedgeable(&emb, 64);
    let k = 5;
    let ids: Vec<usize> = (1..=k).collect();
    serve_behind_a_wedge(&server, &ids);
    let stats = server.shutdown();
    assert_eq!(stats.requests, k as u64 + 1);
    assert_eq!(stats.batches, 2, "the wedger, then all k at once");
    assert_eq!(stats.max_batch_observed, k);
    assert_eq!(stats.flushes_idle, 2);
    assert_eq!(stats.flushes_full + stats.flushes_timeout, 0);
}

/// Shutdown drains queued requests (none hang, none are lost) and then
/// rejects new traffic.
#[test]
fn shutdown_drains_inflight_work() {
    let emb = memcom(500, 8, 50);
    let server = EmbedServer::start(
        &emb,
        ServeConfig {
            n_shards: 2,
            max_batch: 64,
            max_wait: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();

    let (stats, outcomes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..6)
            .map(|i| {
                let handle = handle.clone();
                scope.spawn(move || handle.get(i * 11))
            })
            .collect();
        // Give the clients a moment to enqueue, then pull the plug while
        // their batches are still open. A heavily loaded scheduler may
        // deschedule a client past the shutdown — then its push is
        // *rejected*, which is also a valid outcome; what must never
        // happen is a request that was accepted but never answered.
        std::thread::sleep(Duration::from_millis(20));
        let stats = server.shutdown();
        let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (stats, outcomes)
    });
    let mut served = 0u64;
    for outcome in outcomes {
        match outcome {
            Ok(row) => {
                assert_eq!(row.len(), 8);
                served += 1;
            }
            Err(ServeError::ShuttingDown) => {} // raced the close; rejected cleanly
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(
        stats.requests, served,
        "every accepted request was served exactly once"
    );
    assert!(matches!(handle.get(1), Err(ServeError::ShuttingDown)));
}
