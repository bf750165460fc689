//! Split marks: the instants, since the workload started, at which it
//! passes fixed points of its own work. The points depend only on the
//! workload and the seed (the end of a phase or sweep cell, every
//! [`CALLS_PER_MARK`]th device call inside a serve call), so every
//! repetition of a run is split into the same segments and `run.py`
//! can compare repetitions segment by segment.

use std::cell::RefCell;
use std::time::Instant;

/// Device calls between two marks made inside a serve call.
pub const CALLS_PER_MARK: u64 = 64;

struct Clock {
    origin: Instant,
    marks: Vec<f64>,
    calls: u64,
}

thread_local! {
    static CLOCK: RefCell<Option<Clock>> = const { RefCell::new(None) };
}

/// Start the clock on this thread, with no marks.
pub fn start() {
    CLOCK.with(|c| {
        *c.borrow_mut() = Some(Clock { origin: Instant::now(), marks: Vec::new(), calls: 0 })
    });
}

/// Mark now; the seconds since [`start`] (0 when the clock is off).
pub fn mark() -> f64 {
    CLOCK.with(|c| {
        c.borrow_mut().as_mut().map_or(0.0, |c| {
            let at = c.origin.elapsed().as_secs_f64();
            c.marks.push(at);
            at
        })
    })
}

/// Count one device call, marking before every [`CALLS_PER_MARK`]th.
pub fn device_call() {
    let due = CLOCK.with(|c| {
        c.borrow_mut().as_mut().is_some_and(|c| {
            c.calls += 1;
            c.calls % CALLS_PER_MARK == 0
        })
    });
    if due {
        mark();
    }
}

/// How many marks the clock holds.
pub fn len() -> usize {
    CLOCK.with(|c| c.borrow().as_ref().map_or(0, |c| c.marks.len()))
}

/// Stop the clock and hand back its marks, in order.
pub fn finish() -> Vec<f64> {
    CLOCK.with(|c| c.borrow_mut().take().map(|c| c.marks).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_rise_and_device_calls_mark_every_nth() {
        start();
        let first = mark();
        for _ in 0..2 * CALLS_PER_MARK + 1 {
            device_call();
        }
        let last = mark();
        let marks = finish();
        assert_eq!(marks.len(), 4);
        assert_eq!((marks[0], marks[3]), (first, last));
        assert!(marks.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(mark(), 0.0);
        assert!(finish().is_empty());
    }
}
