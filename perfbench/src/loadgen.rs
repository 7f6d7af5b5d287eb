//! Load generators: an open loop on a fixed schedule and a closed loop of
//! waiting clients.

use crate::stats::{median, percentile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one load loop observed. Latencies are in milliseconds.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub latencies_ms: Vec<f64>,
    /// Open loop only: how late each operation started after its
    /// scheduled send time.
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub elapsed: Duration,
}

impl LoopResult {
    pub fn absorb(&mut self, other: LoopResult) {
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
    }

    /// Completed operations per second.
    pub fn rate(&self) -> f64 {
        self.attempted as f64 / self.elapsed.as_secs_f64()
    }
}

/// Length of one measuring block (see [`BlockStats`]).
pub const BLOCK: Duration = Duration::from_secs(1);

/// Open loop: operation `i` is due at `start + i / rate`, whatever happened
/// to earlier ones. `threads` senders take due operations in order, so a
/// stalled operation delays the ones queued behind it. Latency is timed
/// from the scheduled send, which charges that wait to the operations
/// that suffered it. `op(i, due)` returns false on failure.
pub fn open_loop(
    threads: usize,
    rate_per_s: f64,
    duration: Duration,
    op: impl Fn(usize, Instant) -> bool + Sync,
) -> LoopResult {
    let total = (rate_per_s * duration.as_secs_f64()).round() as usize;
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(LoopResult::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let mut mine = LoopResult::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = op(i, due);
                    let done = Instant::now();
                    mine.attempted += 1;
                    mine.failed += usize::from(!ok);
                    mine.late_ms.push(ms(sent.saturating_duration_since(due)));
                    mine.latencies_ms
                        .push(ms(done.saturating_duration_since(due)));
                }
                merged.lock().expect("no sender panicked").absorb(mine);
            });
        }
    });
    let mut result = merged.into_inner().expect("no sender panicked");
    result.elapsed = start.elapsed();
    result
}

/// Closed loop: `clients` threads each send their next operation when the
/// previous one returns, until `duration` has passed. `op(client, i)`
/// returns false on failure.
pub fn closed_loop(
    clients: usize,
    duration: Duration,
    op: impl Fn(usize, usize) -> bool + Sync,
) -> LoopResult {
    let merged = Mutex::new(LoopResult::default());
    let start = Instant::now();
    let stop = start + duration;
    std::thread::scope(|s| {
        for client in 0..clients.max(1) {
            let (op, merged) = (&op, &merged);
            s.spawn(move || {
                let mut mine = LoopResult::default();
                let mut i = 0;
                while Instant::now() < stop {
                    let sent = Instant::now();
                    let ok = op(client, i);
                    mine.latencies_ms.push(ms(sent.elapsed()));
                    mine.attempted += 1;
                    mine.failed += usize::from(!ok);
                    i += 1;
                }
                merged.lock().expect("no client panicked").absorb(mine);
            });
        }
    });
    let mut result = merged.into_inner().expect("no client panicked");
    result.elapsed = start.elapsed();
    result
}

/// A closed loop run as `blocks` consecutive blocks of [`BLOCK`].
/// `op(client, i)` sees indices that keep counting across blocks.
pub fn closed_loop_blocks(
    clients: usize,
    blocks: usize,
    op: impl Fn(usize, usize) -> bool + Sync,
) -> Vec<LoopResult> {
    let mut done = 0;
    (0..blocks)
        .map(|_| {
            let offset = done;
            let block = closed_loop(clients, BLOCK, |c, i| op(c, offset + i));
            done += block.attempted;
            block
        })
        .collect()
}

/// What closed-loop blocks measured. The rate and the median latency are
/// medians over blocks, so a burst of host noise in a few blocks does not
/// move them. The p99 pools every sample, since no block holds enough.
#[derive(Debug)]
pub struct BlockStats {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub qps: f64,
    pub blocks: usize,
}

impl BlockStats {
    pub fn of(blocks: &[LoopResult]) -> Option<BlockStats> {
        let pooled: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.latencies_ms.iter().copied())
            .collect();
        let p50s: Vec<f64> = blocks
            .iter()
            .filter_map(|b| median(&b.latencies_ms))
            .collect();
        let rates: Vec<f64> = blocks.iter().map(LoopResult::rate).collect();
        Some(BlockStats {
            p50_ms: median(&p50s)?,
            p99_ms: percentile(&pooled, 0.99)?,
            samples: pooled.len(),
            qps: median(&rates)?,
            blocks: blocks.len(),
        })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_scheduled_send() {
        // One sender, due every 5 ms, each operation takes 20 ms: the
        // queue grows by 15 ms per operation, and that wait must show in
        // the latency even though each call itself takes only 20 ms.
        let r = open_loop(1, 200.0, Duration::from_millis(50), |_, _| {
            std::thread::sleep(Duration::from_millis(20));
            true
        });
        assert_eq!(r.attempted, 10);
        assert_eq!(r.failed, 0);
        let last = r.latencies_ms[9];
        assert!(last >= 20.0 + 15.0 * 9.0, "last latency {last} ms");
        assert!(
            r.late_ms[9] >= 15.0 * 9.0,
            "last start {} ms late",
            r.late_ms[9]
        );
        assert!(r.late_ms[0] < 15.0, "first start {} ms late", r.late_ms[0]);
    }

    #[test]
    fn open_loop_counts_failures() {
        let r = open_loop(2, 1000.0, Duration::from_millis(20), |i, _| i % 4 != 0);
        assert_eq!(r.attempted, 20);
        assert_eq!(r.failed, 5);
        assert_eq!(r.latencies_ms.len(), 20);
    }

    #[test]
    fn block_stats_take_medians_over_blocks() {
        let block = |lat: &[f64]| LoopResult {
            latencies_ms: lat.to_vec(),
            attempted: lat.len(),
            elapsed: Duration::from_secs(1),
            ..LoopResult::default()
        };
        // One noisy block of five cannot move the medians.
        let blocks = [
            block(&[1.0, 2.0, 3.0]),
            block(&[1.0, 2.0, 3.0]),
            block(&[50.0, 60.0]),
            block(&[1.0, 2.0, 3.0]),
            block(&[1.0, 2.0, 3.0]),
        ];
        let s = BlockStats::of(&blocks).unwrap();
        assert_eq!((s.p50_ms, s.qps, s.samples, s.blocks), (2.0, 3.0, 14, 5));
        assert_eq!(s.p99_ms, 60.0);
        assert!(BlockStats::of(&[]).is_none());
    }

    #[test]
    fn closed_loop_waits_for_each_reply() {
        let r = closed_loop(2, Duration::from_millis(60), |_, _| {
            std::thread::sleep(Duration::from_millis(10));
            true
        });
        // Two clients, 10 ms per call, 60 ms: at most 7 calls each.
        assert!(r.attempted >= 8 && r.attempted <= 14, "{}", r.attempted);
        assert!(r.latencies_ms.iter().all(|&l| l >= 10.0));
        assert!(r.late_ms.is_empty());
    }
}
