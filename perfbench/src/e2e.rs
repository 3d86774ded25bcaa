//! The end-to-end run: tracing and telemetry off, every reply checked,
//! the metrics a user of the system sees.

use std::time::Duration;

use memcom_serve::TelemetryConfig;

use crate::drive::{build_oracle, drive, idle_applies, reconcile, Plan};
use crate::report::Report;
use crate::setup::{System, MODEL};
use crate::spec::{Spec, LATE_P90_LIMIT_US};
use crate::stats::median;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
const IDLE_DELTAS: usize = 61;

pub fn plan(seconds: f64) -> Plan {
    Plan {
        warm: Duration::from_secs_f64(0.05 * seconds),
        window: Duration::from_secs_f64(0.9 * seconds),
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, corrupt_at: Option<u64>) -> Report {
    let mut report = Report::new(spec.name, seed);

    let mut setup_s = Vec::new();
    let mut built: Option<System> = None;
    for _ in 0..SETUPS {
        if let Some(old) = built.take() {
            old.shutdown();
        }
        let sys = System::build(spec, TelemetryConfig::off());
        setup_s.push(sys.times.total().as_secs_f64());
        built = Some(sys);
    }
    let sys = built.expect("at least one set-up");
    let snapshot = sys.router().snapshot(MODEL).expect("model registered");
    let store_mb = snapshot.stored_bytes() as f64 / 1e6;
    drop(snapshot);

    let oracle = build_oracle(&sys);
    let mut m = drive(&sys, &oracle, seed, &plan(seconds), None, corrupt_at);

    let throughput = m.windows.median_rate(f64::INFINITY);
    // Every workload is a closed loop that runs at its own pace: count
    // the requests per second that completed within the limit.
    let max_rps = m.windows.median_rate(spec.slo_p90_us);
    let mut applies = match &m.writes {
        Some(w) => w.apply_ms.clone(),
        None => idle_applies(&sys, seed, IDLE_DELTAS).0,
    };
    let late_p90 = m.late.median_of(0.9);
    if late_p90 > LATE_P90_LIMIT_US {
        m.mismatches.push(format!(
            "generator ran late: p90 {late_p90:.1} us over the {LATE_P90_LIMIT_US} us limit"
        ));
    }

    let client_stats = sys.client().map(|c| c.stats());
    let rows_sent = m.rows_sent;
    let down = sys.shutdown();
    let net = down.net.as_ref().zip(client_stats);
    m.mismatches.extend(reconcile(&down.stats, rows_sent, net));

    report.attempted = m.attempted_all;
    report.failed = m.failed_all;
    report.problems = m.mismatches.clone();
    let n = m.lat.len();
    report.metric("setup_s", median(&setup_s), "s", Some(setup_s.len()));
    report.metric("p50_us", m.windows.median_of(0.5), "us", Some(n));
    report.metric("p90_us", m.windows.median_of(0.9), "us", Some(n));
    report.metric("throughput_rps", throughput, "req/s", Some(n));
    report.metric("max_rps_at_slo", max_rps, "req/s", None);
    report.metric(
        "delta_apply_ms",
        applies.median(),
        "ms",
        Some(applies.len()),
    );
    report.metric("store_mb", store_mb, "MB", None);
    report.metric("peak_rss_mb", m.peak_rss_mb, "MB", None);
    report.metric("score_err_max", m.err_max, "abs", Some(n));
    report.note("p99_us", m.lat.quantile(0.99), "us", Some(n));
    report.note("p99.9_us", m.lat.quantile(0.999), "us", Some(n));
    report.note("late_p90_us", late_p90, "us", Some(n));
    // Time the host ran other guests during the timed window: timings
    // move with it (see perfbench/README.md).
    report.note("host_steal_pct", m.steal_pct, "%", None);
    report
}
