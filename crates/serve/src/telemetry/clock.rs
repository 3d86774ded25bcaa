//! The stage clock: cheap timestamps for per-stage telemetry.
//!
//! `Instant::now()` is a vDSO `clock_gettime`, which orders its counter
//! read after every earlier load. On the serving hot path most stage
//! reads land right after a futex wake, with the thread's caches cold,
//! so each one waits out those misses: in `bench_smoke`'s closed loop
//! (16 ids over 4 shards, 2 callers, 2 vCPUs) every such read per
//! sub-request cost about 1 % of QPS. Stage intervals need no such
//! ordering. So on x86_64, when the kernel itself keeps time with the
//! TSC (its `tsc` clocksource, which Linux selects only when the counter
//! is invariant and synchronized across CPUs), a [`Stamp`] is one bare
//! `rdtsc`, scaled by a rate calibrated against `Instant` once per
//! process. Anywhere else it falls back to `Instant`.
//!
//! Stamps only ever measure the interval between two stamps. Deadlines,
//! and anything else compared against an `Instant`, keep using
//! `Instant`.

use std::sync::LazyLock;
use std::time::{Duration, Instant};

/// A point on the stage clock, meaningful only relative to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp(u64);

#[derive(Debug)]
enum Source {
    /// Raw TSC ticks, `nanos_per_tick` apart.
    #[cfg(target_arch = "x86_64")]
    Tsc { nanos_per_tick: f64 },
    /// Nanoseconds since `epoch`.
    Instant { epoch: Instant },
}

static SOURCE: LazyLock<Source> = LazyLock::new(|| {
    #[cfg(target_arch = "x86_64")]
    if kernel_keeps_time_with_tsc() {
        return Source::Tsc {
            nanos_per_tick: calibrate(),
        };
    }
    Source::Instant {
        epoch: Instant::now(),
    }
});

/// How long calibration compares the TSC against `Instant`: the two
/// anchor reads are ~50 ns apart at worst, so the rate is off by
/// ~0.003 %.
#[cfg(target_arch = "x86_64")]
const CALIBRATION: Duration = Duration::from_millis(2);

#[cfg(target_arch = "x86_64")]
fn kernel_keeps_time_with_tsc() -> bool {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .is_ok_and(|source| source.trim() == "tsc")
}

#[cfg(target_arch = "x86_64")]
fn rdtsc() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter; it takes no
    // operands, touches no memory and is available on every x86_64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Nanoseconds per TSC tick, measured against `Instant` over
/// [`CALIBRATION`].
#[cfg(target_arch = "x86_64")]
fn calibrate() -> f64 {
    let (t0, c0) = (Instant::now(), rdtsc());
    let mut t1 = Instant::now();
    while t1 - t0 < CALIBRATION {
        std::hint::spin_loop();
        t1 = Instant::now();
    }
    let ticks = rdtsc().saturating_sub(c0).max(1);
    (t1 - t0).as_nanos() as f64 / ticks as f64
}

/// Chooses and calibrates the clock now, so the first stage read on a
/// hot path does not pay for it.
pub(crate) fn init() {
    LazyLock::force(&SOURCE);
}

impl Stamp {
    /// Reads the stage clock.
    pub(crate) fn now() -> Stamp {
        match &*SOURCE {
            #[cfg(target_arch = "x86_64")]
            Source::Tsc { .. } => Stamp(rdtsc()),
            Source::Instant { epoch } => Stamp(epoch.elapsed().as_nanos() as u64),
        }
    }

    /// Nanoseconds from `earlier` to `self`; `0` if `earlier` is not
    /// earlier.
    pub(crate) fn nanos_since(self, earlier: Stamp) -> u64 {
        let ticks = self.0.saturating_sub(earlier.0);
        match &*SOURCE {
            #[cfg(target_arch = "x86_64")]
            Source::Tsc { nanos_per_tick } => (ticks as f64 * nanos_per_tick) as u64,
            Source::Instant { .. } => ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_measure_wall_time_intervals() {
        init();
        let (s0, t0) = (Stamp::now(), Instant::now());
        std::thread::sleep(Duration::from_millis(20));
        let (s1, t1) = (Stamp::now(), Instant::now());
        let measured = s1.nanos_since(s0) as f64;
        let truth = (t1 - t0).as_nanos() as f64;
        assert!(
            (measured - truth).abs() < 0.01 * truth,
            "stage clock read {measured} ns over {truth} ns"
        );
        assert_eq!(s0.nanos_since(s1), 0, "backwards intervals clamp to zero");
    }
}
