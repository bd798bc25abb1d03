//! Open-loop request generation over one blocking connection.
//!
//! Requests are due on a fixed schedule that does not adapt to service
//! time. A request is sent at its due time, or as soon as the connection is
//! free if the previous reply came late, and its latency is measured from
//! when it was due. A stalled request therefore makes every request queued
//! behind it late, and that wait shows in their latencies.

use std::time::{Duration, Instant};

/// Timing of one scheduled request, relative to the loop's start.
#[derive(Debug, Clone, Copy)]
pub struct Sent<K> {
    pub kind: K,
    pub due: Duration,
    pub start: Duration,
    pub end: Duration,
    pub ok: bool,
}

impl<K> Sent<K> {
    /// Latency from due time to reply, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.start.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// Runs `schedule` (due offsets from `t0`, ascending) one request at a
/// time. While the next request is not yet due, `idle` is called with that
/// due instant; it must return by then (sleeping until it, or doing other
/// work on the same connection). `send` issues one request and reports
/// whether it succeeded. With a `stop` offset, requests still unsent at
/// `t0 + stop` are dropped: a schedule beyond capacity ends on time instead
/// of working off its backlog.
pub fn run<K: Copy>(
    t0: Instant,
    schedule: &[(Duration, K)],
    stop: Option<Duration>,
    mut idle: impl FnMut(Instant),
    mut send: impl FnMut(K, Instant) -> bool,
) -> Vec<Sent<K>> {
    let mut out = Vec::with_capacity(schedule.len());
    for &(due, kind) in schedule {
        if stop.is_some_and(|stop| t0.elapsed() >= stop) {
            break;
        }
        let due_at = t0 + due;
        while Instant::now() < due_at {
            idle(due_at);
        }
        let start = Instant::now();
        let ok = send(kind, start);
        let end = Instant::now();
        out.push(Sent {
            kind,
            due,
            start: start - t0,
            end: end - t0,
            ok,
        });
    }
    out
}

/// The idle hook that just waits for the next due time.
pub fn sleep_until(due: Instant) {
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
}

/// `count` due offsets spaced `1/rate` seconds apart, starting at 0.
pub fn evenly_spaced(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_request_makes_later_requests_late() {
        let schedule: Vec<(Duration, usize)> =
            evenly_spaced(1000.0, 20).into_iter().zip(0..).collect();
        let t0 = Instant::now();
        let sent = run(t0, &schedule, None, sleep_until, |i, _| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        // The stalled request itself takes its 30 ms.
        assert!(sent[5].latency_ms() >= 30.0);
        // Requests due during the stall go out late and carry the wait.
        for s in &sent[6..20] {
            assert!(
                s.late_ms() > 10.0,
                "request {} late by {}",
                s.kind,
                s.late_ms()
            );
            assert!(s.latency_ms() >= s.late_ms());
        }
        // Before the stall, the generator kept to its schedule.
        assert!(sent[..5].iter().all(|s| s.late_ms() < 10.0));
    }

    #[test]
    fn a_stop_drops_the_backlog() {
        // Each request takes 5 ms against a 1 ms schedule: far past capacity.
        let schedule: Vec<(Duration, usize)> =
            evenly_spaced(1000.0, 100).into_iter().zip(0..).collect();
        let t0 = Instant::now();
        let sent = run(
            t0,
            &schedule,
            Some(Duration::from_millis(30)),
            sleep_until,
            |_, _| {
                std::thread::sleep(Duration::from_millis(5));
                true
            },
        );
        // At most 30 ms / 5 ms + 1 of the 100 went out.
        assert!(
            (1..=7).contains(&sent.len()),
            "{} requests sent",
            sent.len()
        );
        // Every request went out before the stop.
        assert!(sent.iter().all(|s| s.start < Duration::from_millis(30)));
    }

    #[test]
    fn evenly_spaced_due_times() {
        let d = evenly_spaced(4.0, 3);
        assert_eq!(d[1], Duration::from_millis(250));
        assert_eq!(d[2], Duration::from_millis(500));
    }
}
