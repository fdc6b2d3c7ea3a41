//! The calibrated clock.
//!
//! The benchmark host's speed drifts by tens of percent between runs
//! with no visible CPU steal. A fixed reference loop (hash-map probes, a
//! byte-state scan, a sort — the same kinds of work extraction does) is
//! timed next to every measured pass, and CPU-bound timings are scaled
//! to what they would be on a machine that runs the loop in exactly
//! `NOMINAL_MS`. Both sides of a comparison run the same loop, so the
//! scaling is the same on parent and change.
//!
//! The workloads' times move more than the loop's: over six runs each,
//! batch times went as the loop's time to the power 1.5 (large pages,
//! RSIH) and 2 (ORSIH). Scaling by the plain ratio left a 2–5 %
//! between-run spread that the power [`SENSITIVITY`] takes down to
//! 1.5–2.3 %.
//!
//! Serve timings are not CPU-bound, so the reference loop leaves them
//! alone; [`TimerProbe`] is their clock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reference-loop time, in milliseconds, that defines nominal speed.
pub const NOMINAL_MS: f64 = 20.0;

/// How strongly CPU-bound timings follow the reference loop's time.
pub const SENSITIVITY: f64 = 1.5;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The reference work: fixed, deterministic, allocation-bearing.
fn reference_loop() -> u64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut acc = 0u64;

    // Hash-map probes (a deterministic hasher, so every run probes the
    // same buckets).
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..1u64 << 14 {
        map.insert(rng.next() & 0xffff, i);
    }
    for _ in 0..1 << 17 {
        if let Some(v) = map.get(&(rng.next() & 0xffff)) {
            acc = acc.wrapping_add(*v);
        }
    }

    // Byte-state scan over markup-like bytes: a small tokenizer-shaped
    // state machine.
    const ALPHABET: &[u8] = b"<a>text </p>&amp; b";
    let len = ALPHABET.len() as u64;
    let bytes: Vec<u8> = (0..1 << 20)
        .map(|_| ALPHABET[usize::try_from(rng.next() % len).unwrap_or(0)])
        .collect();
    let mut state = 0u8;
    for &b in &bytes {
        state = match (state, b) {
            (_, b'<') => 1,
            (1, b'/') => 2,
            (1 | 2, b'>') => 0,
            (0, b'&') => 3,
            (3, b';') => 0,
            (s, _) => s,
        };
        acc = acc.wrapping_add(u64::from(state));
    }

    // Sort.
    let mut values: Vec<u64> = (0..1 << 15).map(|_| rng.next()).collect();
    values.sort_unstable();
    acc ^= values[values.len() / 2];
    black_box(acc)
}

/// Runs the reference loop once on each of `threads` threads at the same
/// time (the measured passes run that many workers) and returns the mean
/// per-thread time in milliseconds.
pub fn measure(threads: usize) -> f64 {
    let time_one = || {
        let started = Instant::now();
        black_box(reference_loop());
        started.elapsed().as_secs_f64() * 1e3
    };
    if threads <= 1 {
        return time_one();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(time_one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that converts a CPU-bound duration measured next to a
/// reference loop of `calib_ms` into nominal time (multiply durations,
/// divide rates).
pub fn to_nominal(calib_ms: f64) -> f64 {
    to_nominal_at(calib_ms, SENSITIVITY)
}

/// [`to_nominal`] for a timing that follows the reference loop's time to
/// the power `sensitivity`.
pub fn to_nominal_at(calib_ms: f64, sensitivity: f64) -> f64 {
    (NOMINAL_MS / calib_ms).powf(sensitivity)
}

/// The timer probe's sleep: the server's accept-loop poll interval.
const TIMER_SLEEP: Duration = Duration::from_millis(2);

/// Mean probe period, in milliseconds, that defines a nominal timer: the
/// host's timer slack and wake-up delay add about 0.08 ms to each sleep
/// on a quiet host.
pub const NOMINAL_TIMER_MS: f64 = 2.08;

/// The timer-bound clock. Serve timings are set by thread wake-ups, not by
/// CPU speed: the accept loop sleeps [`TIMER_SLEEP`] whenever no
/// connection is waiting, and each request then waits for a worker and
/// for the client to wake. When the host is busy, every wake-up comes
/// late. A thread that does nothing but sleep [`TIMER_SLEEP`] in a loop,
/// next to the measured traffic, sees the same delays: it is an accept
/// loop that serves nothing.
pub struct TimerProbe {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<Instant>>,
}

impl TimerProbe {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut ticks = vec![Instant::now()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(TIMER_SLEEP);
                ticks.push(Instant::now());
            }
            ticks
        });
        TimerProbe { stop, thread }
    }

    /// Stops the probe; returns the instants it woke at.
    pub fn finish(self) -> Ticks {
        self.stop.store(true, Ordering::Relaxed);
        Ticks(self.thread.join().expect("timer probe panicked"))
    }
}

/// The instants a [`TimerProbe`] woke at, in order.
pub struct Ticks(Vec<Instant>);

impl Ticks {
    /// Mean time between ticks, in milliseconds.
    pub fn mean_period_ms(&self) -> f64 {
        match (self.0.first(), self.0.last()) {
            (Some(first), Some(last)) if self.0.len() > 1 => {
                last.duration_since(*first).as_secs_f64() * 1e3 / (self.0.len() - 1) as f64
            }
            _ => NOMINAL_TIMER_MS,
        }
    }

    /// For each of `due` (ascending), the wait from it to the next tick,
    /// in milliseconds: what a connection arriving then would have waited
    /// for an accept loop that serves nothing.
    pub fn waits_ms(&self, due: impl Iterator<Item = Instant>) -> Vec<f64> {
        let mut k = 0;
        due.filter_map(|at| {
            while self.0.get(k).is_some_and(|&tick| tick < at) {
                k += 1;
            }
            self.0
                .get(k)
                .map(|tick| tick.duration_since(at).as_secs_f64() * 1e3)
        })
        .collect()
    }
}

/// The factor that converts a timer-bound duration measured next to a
/// probe period of `timer_ms` into nominal time, for a timing that moves
/// as the period to the power `power` (multiply durations, divide rates).
pub fn timer_to_nominal(timer_ms: f64, power: f64) -> f64 {
    (NOMINAL_TIMER_MS / timer_ms).powf(power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_waits_run_to_the_next_tick() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let ticks = Ticks(vec![ms(0), ms(2), ms(4), ms(7)]);
        assert!((ticks.mean_period_ms() - 7.0 / 3.0).abs() < 1e-9);
        let waits = ticks.waits_ms([ms(1), ms(2), ms(5), ms(8)].into_iter());
        // The last due time comes after the last tick: no wait is known.
        assert_eq!(waits, vec![1.0, 0.0, 2.0]);
    }
}
