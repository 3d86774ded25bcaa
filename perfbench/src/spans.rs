//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The request the span belongs to: `Pending::request_id` on the
    /// wire, a per-run counter in process, 0 for set-up and replays.
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (ids only need to be unique).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Builds a span with a fresh id.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            id: self.id(),
            parent,
            request,
            start,
            end,
        }
    }

    /// Moves a thread's local spans into the run's set.
    pub fn absorb(&self, local: Vec<Span>) {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .extend(local);
    }

    pub fn record(&self, span: Span) {
        self.absorb(vec![span]);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// Writes every span as one JSON object per line, times in
    /// nanoseconds since the trace began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                s.parent,
                s.request,
                at(s.start),
                at(s.end)
            )?;
        }
        out.flush()
    }
}
