//! Property-based tests of the simulation kernel's invariants.

use desim::resource::Busy;
use desim::{Duration, FifoResource, ServerPool, SimTime};
use proptest::prelude::*;

proptest! {
    /// A FIFO resource never overlaps two busy intervals and never runs
    /// a request before it is ready.
    #[test]
    fn fifo_never_overlaps(reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..60)) {
        let mut r = FifoResource::new("p");
        let mut prev_end = SimTime::ZERO;
        for &(ready, service) in &reqs {
            let busy = r.acquire(SimTime(ready), Duration(service));
            prop_assert!(busy.start >= SimTime(ready), "started before ready");
            prop_assert!(busy.start >= prev_end, "overlapped previous request");
            prop_assert_eq!(busy.end - busy.start, Duration(service));
            prev_end = busy.end;
        }
        // Busy total equals the sum of services.
        let total: u64 = reqs.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(r.busy_total(), Duration(total));
    }

    /// A server pool never runs more than `k` jobs at once.
    #[test]
    fn pool_respects_capacity(
        servers in 1usize..6,
        reqs in proptest::collection::vec((0u64..2_000, 1u64..300), 1..50),
    ) {
        let mut p = ServerPool::new("pool", servers);
        let mut intervals = Vec::new();
        for &(ready, service) in &reqs {
            let (_, busy) = p.acquire(SimTime(ready), Duration(service));
            intervals.push((busy.start.nanos(), busy.end.nanos()));
        }
        // Sample concurrency at every interval start.
        for &(t, _) in &intervals {
            let busy_at = intervals.iter().filter(|&&(a, b)| a <= t && t < b).count();
            prop_assert!(busy_at <= servers, "{busy_at} > {servers} at t={t}");
        }
        // Utilization over the horizon never exceeds 1.
        let horizon = intervals.iter().map(|&(_, b)| b).max().unwrap();
        prop_assert!(p.utilization(SimTime(horizon)) <= 1.0 + 1e-12);
    }

    /// Fork-join wall time is bounded below by work/k and above by the
    /// serial time.
    #[test]
    fn fork_join_bounds(
        servers in 1usize..8,
        work in 1u64..100_000,
        parts in 1usize..32,
    ) {
        let mut p = ServerPool::new("pool", servers);
        let busy = p.acquire_parallel(SimTime::ZERO, Duration(work), parts);
        let wall = (busy.end - busy.start).nanos();
        let per_part = work.div_ceil(parts as u64);
        let rounds = (parts as u64).div_ceil(servers as u64);
        prop_assert_eq!(wall, per_part * rounds, "wall {} per_part {} rounds {}", wall, per_part, rounds);
        prop_assert!(wall >= work / servers as u64, "beat the ideal bound");
    }

    /// `acquire_parallel` is exactly `parts` single acquires, whatever
    /// the pool's history: the idle closed form and the contended loop
    /// both match the written-out reference, in the returned span and in
    /// the pool's full state.
    #[test]
    fn fork_join_equals_per_part_acquires(
        servers in 1usize..14,
        history in proptest::collection::vec(
            (0u64..5_000, 0u64..2_000, any::<bool>(), 0usize..100),
            0..12,
        ),
        idle in any::<bool>(),
        offset in 0u64..3_000,
        work in 0u64..100_000,
        one_per_server in any::<bool>(),
        parts_pick in 0usize..100,
    ) {
        let mut p = ServerPool::new("pool", servers);
        for &(ready, service, single, pick) in &history {
            if single {
                p.acquire(SimTime(ready), Duration(service));
            } else {
                p.acquire_parallel(SimTime(ready), Duration(service), pick % (2 * servers) + 1);
            }
        }
        // Half the cases start at or after the pool drains, half at an
        // arbitrary instant; half split the work once per server (the
        // chip's case), half into any of 1..=2*servers parts.
        let ready = if idle { p.all_free() + Duration(offset) } else { SimTime(offset) };
        let parts = if one_per_server { servers } else { parts_pick % (2 * servers) + 1 };

        let mut reference = p.clone();
        let per_part = Duration(work.div_ceil(parts as u64));
        let (mut start, mut end) = (SimTime(u64::MAX), SimTime::ZERO);
        for _ in 0..parts {
            let (_, b) = reference.acquire(ready, per_part);
            start = start.min(b.start);
            end = end.max(b.end);
        }

        let busy = p.acquire_parallel(ready, Duration(work), parts);
        prop_assert_eq!(busy, Busy { start, end });
        prop_assert_eq!(format!("{:?}", p), format!("{:?}", reference));
    }
}
