//! Timeline resources: serial FIFO devices and k-parallel server pools.

use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Closed interval of busy time returned by an acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Busy {
    pub start: SimTime,
    pub end: SimTime,
}

impl Busy {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A serial resource that services requests in arrival order: a USB bulk
/// endpoint, a DDR channel, the RISC command processor.
///
/// ```
/// use desim::{FifoResource, SimTime, Duration};
/// let mut bus = FifoResource::new("usb");
/// let a = bus.acquire(SimTime(0), Duration(100));
/// let b = bus.acquire(SimTime(10), Duration(50));
/// assert_eq!(b.start, a.end); // second request queues
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FifoResource {
    name: String,
    available_at: SimTime,
    busy_total: Duration,
    requests: u64,
}

impl FifoResource {
    pub fn new(name: impl Into<String>) -> Self {
        FifoResource {
            name: name.into(),
            available_at: SimTime::ZERO,
            busy_total: Duration::ZERO,
            requests: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Occupy the resource for `service`, starting no earlier than `ready`.
    pub fn acquire(&mut self, ready: SimTime, service: Duration) -> Busy {
        let start = SimTime::max_of(ready, self.available_at);
        let end = start + service;
        self.available_at = end;
        self.busy_total += service;
        self.requests += 1;
        Busy { start, end }
    }

    /// Book the acquisitions `recorded` took, new and from time zero, as
    /// if each had been issued here `by` later. Exact when this resource
    /// is free by then: every acquisition is `max(ready, free) + service`,
    /// so delaying every `ready` by `by` delays every start and end by it.
    pub fn replay(&mut self, recorded: &FifoResource, by: Duration) {
        if recorded.requests > 0 {
            debug_assert!(self.available_at <= SimTime::ZERO + by, "replay onto a busy resource");
            self.available_at = recorded.available_at + by;
            self.busy_total += recorded.busy_total;
            self.requests += recorded.requests;
        }
    }

    /// Earliest instant a new request could start.
    pub fn available_at(&self) -> SimTime {
        self.available_at
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.busy_total.nanos() as f64 / horizon.nanos() as f64
        }
    }
}

/// `k` identical parallel servers with a shared FIFO queue — the SHAVE
/// processor pool, or a multi-lane DMA engine. Each request occupies one
/// server; the earliest-free server wins (ties broken by index, so the
/// simulation is deterministic).
///
/// ```
/// use desim::{ServerPool, SimTime, Duration};
/// let mut shaves = ServerPool::new("shaves", 12);
/// // 1200 ns of work forked 12 ways finishes in 100 ns.
/// let busy = shaves.acquire_parallel(SimTime::ZERO, Duration(1200), 12);
/// assert_eq!(busy.end, SimTime(100));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerPool {
    name: String,
    free_at: Vec<SimTime>,
    busy_total: Duration,
    requests: u64,
}

impl ServerPool {
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "pool needs at least one server");
        ServerPool {
            name: name.into(),
            free_at: vec![SimTime::ZERO; servers],
            busy_total: Duration::ZERO,
            requests: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Acquire one server; returns `(server_index, busy_interval)`.
    pub fn acquire(&mut self, ready: SimTime, service: Duration) -> (usize, Busy) {
        let (idx, &free) =
            self.free_at.iter().enumerate().min_by_key(|&(i, &t)| (t, i)).expect("non-empty pool");
        let start = SimTime::max_of(ready, free);
        let end = start + service;
        self.free_at[idx] = end;
        self.busy_total += service;
        self.requests += 1;
        (idx, Busy { start, end })
    }

    /// Run a job split into `parts` equal chunks across the pool,
    /// returning when the last chunk finishes (fork-join). Each chunk is
    /// one [`Self::acquire`] of `ceil(total_work / parts)`.
    ///
    /// When the pool is idle (every server free by `ready`) and there is
    /// one chunk per server, the result has a closed form: every chunk
    /// runs `[ready, ready + per_part)`, so that is the returned span and
    /// every server's free instant. A chip's SHAVE pool is always in this
    /// state when a layer starts, so the per-chunk loop only runs for
    /// contended pools.
    pub fn acquire_parallel(&mut self, ready: SimTime, total_work: Duration, parts: usize) -> Busy {
        assert!(parts > 0, "parts must be positive");
        let per_part = Duration::from_nanos(total_work.nanos().div_ceil(parts as u64));
        if parts == self.free_at.len() && self.free_at.iter().all(|&f| f <= ready) {
            let end = ready + per_part;
            self.free_at.fill(end);
            self.busy_total += per_part * parts as u64;
            self.requests += parts as u64;
            return Busy { start: ready, end };
        }
        let mut start = SimTime(u64::MAX);
        let mut end = SimTime::ZERO;
        for _ in 0..parts {
            let (_, b) = self.acquire(ready, per_part);
            start = start.min(b.start);
            end = SimTime::max_of(end, b.end);
        }
        Busy { start, end }
    }

    /// [`FifoResource::replay`] for a pool whose recorded acquisitions
    /// left every server free at one instant, as fork-joins across the
    /// whole idle pool do.
    pub fn replay(&mut self, recorded: &ServerPool, by: Duration) {
        if recorded.requests > 0 {
            debug_assert!(self.all_free() <= SimTime::ZERO + by, "replay onto a busy pool");
            debug_assert_eq!(recorded.next_free(), recorded.all_free(), "ragged recorded pool");
            self.free_at.fill(recorded.all_free() + by);
            self.busy_total += recorded.busy_total;
            self.requests += recorded.requests;
        }
    }

    /// Earliest instant any server is free.
    pub fn next_free(&self) -> SimTime {
        *self.free_at.iter().min().expect("non-empty pool")
    }

    /// Instant all servers are idle.
    pub fn all_free(&self) -> SimTime {
        *self.free_at.iter().max().expect("non-empty pool")
    }

    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Aggregate utilization over `[0, horizon]` (1.0 = all servers busy
    /// the whole time).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.busy_total.nanos() as f64 / (horizon.nanos() as f64 * self.servers() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_requests() {
        let mut r = FifoResource::new("usb");
        let a = r.acquire(SimTime(0), Duration(100));
        assert_eq!((a.start, a.end), (SimTime(0), SimTime(100)));
        // Second request ready at 50 must wait until 100.
        let b = r.acquire(SimTime(50), Duration(30));
        assert_eq!((b.start, b.end), (SimTime(100), SimTime(130)));
        // A request ready after the backlog starts immediately.
        let c = r.acquire(SimTime(500), Duration(10));
        assert_eq!(c.start, SimTime(500));
        assert_eq!(r.requests(), 3);
        assert_eq!(r.busy_total(), Duration(140));
    }

    #[test]
    fn fifo_utilization() {
        let mut r = FifoResource::new("bus");
        r.acquire(SimTime(0), Duration(250));
        assert!((r.utilization(SimTime(1000)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn pool_runs_k_jobs_concurrently() {
        let mut p = ServerPool::new("shaves", 3);
        let b1 = p.acquire(SimTime(0), Duration(100)).1;
        let b2 = p.acquire(SimTime(0), Duration(100)).1;
        let b3 = p.acquire(SimTime(0), Duration(100)).1;
        assert_eq!(b1.start, SimTime(0));
        assert_eq!(b2.start, SimTime(0));
        assert_eq!(b3.start, SimTime(0));
        // Fourth job queues behind the earliest finisher.
        let b4 = p.acquire(SimTime(0), Duration(50)).1;
        assert_eq!(b4.start, SimTime(100));
        assert_eq!(p.all_free(), SimTime(150));
    }

    #[test]
    fn pool_is_deterministic_on_ties() {
        let mut p = ServerPool::new("x", 2);
        let (i1, _) = p.acquire(SimTime(0), Duration(10));
        let (i2, _) = p.acquire(SimTime(0), Duration(10));
        assert_eq!((i1, i2), (0, 1));
    }

    #[test]
    fn fork_join_scales_with_parts() {
        let mut p = ServerPool::new("shaves", 4);
        // 400 ns of work over 4 servers -> 100 ns wall.
        let b = p.acquire_parallel(SimTime(0), Duration(400), 4);
        assert_eq!(b.start, SimTime(0));
        assert_eq!(b.end, SimTime(100));
        // Over 2 parts on now-busy servers: starts at 100.
        let b2 = p.acquire_parallel(SimTime(0), Duration(400), 2);
        assert_eq!(b2.end, SimTime(300));
    }

    #[test]
    fn fork_join_more_parts_than_servers() {
        let mut p = ServerPool::new("s", 2);
        // 6 parts of 100 ns on 2 servers: 3 rounds -> 300 ns.
        let b = p.acquire_parallel(SimTime(0), Duration(600), 6);
        assert_eq!(b.end, SimTime(300));
    }

    #[test]
    fn replay_books_the_recorded_acquisitions_shifted() {
        let mut recorded = FifoResource::new("ddr");
        recorded.acquire(SimTime(0), Duration(40));
        recorded.acquire(SimTime(10), Duration(30));
        let mut walked = FifoResource::new("ddr");
        walked.acquire(SimTime(100), Duration(40));
        walked.acquire(SimTime(110), Duration(30));
        let mut replayed = FifoResource::new("ddr");
        replayed.replay(&recorded, Duration(100));
        assert_eq!(replayed.available_at(), walked.available_at());
        assert_eq!(replayed.busy_total(), walked.busy_total());
        assert_eq!(replayed.requests(), walked.requests());
        // An untouched recording leaves the books alone.
        replayed.replay(&FifoResource::new("idle"), Duration(500));
        assert_eq!(replayed.available_at(), SimTime(170));

        let mut recorded = ServerPool::new("shaves", 4);
        recorded.acquire_parallel(SimTime(0), Duration(400), 4);
        recorded.acquire_parallel(SimTime(200), Duration(40), 4);
        let mut walked = ServerPool::new("shaves", 4);
        walked.acquire_parallel(SimTime(100), Duration(400), 4);
        walked.acquire_parallel(SimTime(300), Duration(40), 4);
        let mut replayed = ServerPool::new("shaves", 4);
        replayed.replay(&recorded, Duration(100));
        assert_eq!((replayed.next_free(), replayed.all_free()), (SimTime(310), SimTime(310)));
        assert_eq!(replayed.busy_total(), walked.busy_total());
        assert_eq!(replayed.requests(), walked.requests());
        assert_eq!(
            replayed.acquire(SimTime(0), Duration(5)),
            walked.acquire(SimTime(0), Duration(5))
        );
    }

    #[test]
    fn pool_utilization() {
        let mut p = ServerPool::new("s", 2);
        p.acquire(SimTime(0), Duration(100));
        // One of two servers busy for 100 of 200 ns -> 25%.
        assert!((p.utilization(SimTime(200)) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        ServerPool::new("none", 0);
    }
}
