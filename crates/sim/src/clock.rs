//! A shareable logical clock.
//!
//! Components that model costs (filesystem drivers, network transfers,
//! decompression) advance the clock instead of sleeping. The clock is an
//! atomic so that models can share it behind an `Arc` without locking; the
//! discrete-event [`crate::des::Engine`] drives its own clock instead.

use crate::time::{SimSpan, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe logical clock. Monotonically non-decreasing.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// A clock at the experiment origin.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current logical time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Relaxed))
    }

    /// Charge `span` of logical time to the clock and return the new time.
    ///
    /// This models a *serial* cost: callers that want concurrent costs
    /// should track per-actor completion times and use [`advance_to`].
    ///
    /// [`advance_to`]: SimClock::advance_to
    #[inline]
    pub fn advance(&self, span: SimSpan) -> SimTime {
        SimTime(self.nanos.fetch_add(span.as_nanos(), Ordering::Relaxed) + span.as_nanos())
    }

    /// Move the clock forward to `t` if `t` is in the future; otherwise
    /// leave it unchanged. Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.nanos.load(Ordering::Relaxed);
        loop {
            if t.as_nanos() <= cur {
                return SimTime(cur);
            }
            match self.nanos.compare_exchange_weak(
                cur,
                t.as_nanos(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reset to the origin. Only used between benchmark iterations.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimSpan::millis(3));
        c.advance(SimSpan::millis(4));
        assert_eq!(c.now(), SimTime::ZERO + SimSpan::millis(7));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(SimSpan::secs(1));
        let before = c.now();
        c.advance_to(SimTime::ZERO + SimSpan::millis(1));
        assert_eq!(c.now(), before);
        c.advance_to(SimTime::ZERO + SimSpan::secs(2));
        assert_eq!(c.now(), SimTime::ZERO + SimSpan::secs(2));
    }

    #[test]
    fn concurrent_advances_are_all_counted() {
        let c = Arc::new(SimClock::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(SimSpan::nanos(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now().as_nanos(), 8000);
    }

    #[test]
    fn reset_returns_to_origin() {
        let c = SimClock::new();
        c.advance(SimSpan::secs(5));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }
}
