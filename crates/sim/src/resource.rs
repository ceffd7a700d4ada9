//! Contention models: token buckets and queueing servers.
//!
//! These express the two bottlenecks the survey keeps returning to:
//! rate-limited services (DockerHub pull limits, metadata-server IOPS) and
//! serial service points where concurrent clients queue (a cluster
//! filesystem's metadata server under a many-small-files load).
//!
//! Both operate purely on logical time: callers present an arrival time and
//! get back the time at which service completes.

use crate::time::{SimSpan, SimTime};
use parking_lot::Mutex;

/// A token bucket refilling at `rate_per_sec`, holding at most `burst`
/// tokens. Used to model request-rate limits.
#[derive(Debug)]
pub struct TokenBucket {
    inner: Mutex<BucketState>,
    rate_per_sec: f64,
    burst: f64,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last: SimTime,
}

/// Outcome of asking a [`TokenBucket`] for a token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Token granted immediately.
    Granted,
    /// Caller must wait this long for a token (the token is reserved).
    Delayed(SimSpan),
}

impl TokenBucket {
    pub fn new(rate_per_sec: f64, burst: u64) -> TokenBucket {
        assert!(rate_per_sec > 0.0);
        assert!(burst > 0);
        TokenBucket {
            inner: Mutex::new(BucketState {
                tokens: burst as f64,
                last: SimTime::ZERO,
            }),
            rate_per_sec,
            burst: burst as f64,
        }
    }

    /// Request one token at logical time `now`. Either granted immediately
    /// or the caller learns how long it must wait (the bucket reserves the
    /// token, going temporarily negative, so queued callers are serialized
    /// fairly in arrival order).
    pub fn acquire(&self, now: SimTime) -> Admission {
        let mut st = self.inner.lock();
        // Refill for elapsed time.
        let dt = now.since(st.last).as_secs_f64();
        st.tokens = (st.tokens + dt * self.rate_per_sec).min(self.burst);
        st.last = now;
        st.tokens -= 1.0;
        if st.tokens >= 0.0 {
            Admission::Granted
        } else {
            let wait = -st.tokens / self.rate_per_sec;
            Admission::Delayed(SimSpan::from_secs_f64(wait))
        }
    }

    /// Convenience: the absolute time at which a request arriving at `now`
    /// is admitted.
    pub fn admit_at(&self, now: SimTime) -> SimTime {
        match self.acquire(now) {
            Admission::Granted => now,
            Admission::Delayed(wait) => now + wait,
        }
    }
}

/// A FIFO queueing server with `servers` parallel service slots.
///
/// `submit(arrival, service)` returns `(start, finish)`: the request begins
/// service at the earliest of the `servers` next-free times (but not before
/// `arrival`) and completes `service` later. This is an event-free G/G/c
/// queue sufficient for modelling metadata servers and registry frontends.
#[derive(Debug)]
pub struct QueueServer {
    free_at: Mutex<Vec<SimTime>>,
}

impl QueueServer {
    pub fn new(servers: usize) -> QueueServer {
        assert!(servers > 0);
        QueueServer {
            free_at: Mutex::new(vec![SimTime::ZERO; servers]),
        }
    }

    /// Enqueue a request. Returns (service start, service finish).
    pub fn submit(&self, arrival: SimTime, service: SimSpan) -> (SimTime, SimTime) {
        let mut free = self.free_at.lock();
        // Pick the slot that frees earliest.
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("at least one server");
        let start = free[idx].max(arrival);
        let finish = start + service;
        free[idx] = finish;
        (start, finish)
    }

    /// Reset all servers to idle at t=0 (between benchmark iterations).
    pub fn reset(&self) {
        for t in self.free_at.lock().iter_mut() {
            *t = SimTime::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_grants_within_burst() {
        let b = TokenBucket::new(10.0, 5);
        for _ in 0..5 {
            assert_eq!(b.acquire(SimTime::ZERO), Admission::Granted);
        }
        // Sixth request at t=0 must wait 1/rate.
        match b.acquire(SimTime::ZERO) {
            Admission::Delayed(w) => assert_eq!(w, SimSpan::millis(100)),
            other => panic!("expected delay, got {other:?}"),
        }
    }

    #[test]
    fn bucket_refills_over_time() {
        let b = TokenBucket::new(10.0, 1);
        assert_eq!(b.acquire(SimTime::ZERO), Admission::Granted);
        // After 100ms one token has refilled.
        let t = SimTime::ZERO + SimSpan::millis(100);
        assert_eq!(b.acquire(t), Admission::Granted);
    }

    #[test]
    fn bucket_serializes_queued_callers() {
        let b = TokenBucket::new(1.0, 1);
        assert_eq!(b.admit_at(SimTime::ZERO), SimTime::ZERO);
        let second = b.admit_at(SimTime::ZERO);
        let third = b.admit_at(SimTime::ZERO);
        assert_eq!(second, SimTime::ZERO + SimSpan::secs(1));
        assert_eq!(third, SimTime::ZERO + SimSpan::secs(2));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let b = TokenBucket::new(1000.0, 2);
        // Long idle period...
        let t = SimTime::ZERO + SimSpan::secs(100);
        assert_eq!(b.acquire(t), Admission::Granted);
        assert_eq!(b.acquire(t), Admission::Granted);
        // ...still only `burst` immediate grants.
        assert!(matches!(b.acquire(t), Admission::Delayed(_)));
    }

    #[test]
    fn single_server_fifo() {
        let q = QueueServer::new(1);
        let (s1, f1) = q.submit(SimTime::ZERO, SimSpan::millis(10));
        let (s2, f2) = q.submit(SimTime::ZERO, SimSpan::millis(10));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(f1, SimTime::ZERO + SimSpan::millis(10));
        assert_eq!(s2, f1, "second request queues behind the first");
        assert_eq!(f2, SimTime::ZERO + SimSpan::millis(20));
    }

    #[test]
    fn idle_server_starts_at_arrival() {
        let q = QueueServer::new(1);
        let arrival = SimTime::ZERO + SimSpan::secs(5);
        let (s, f) = q.submit(arrival, SimSpan::millis(1));
        assert_eq!(s, arrival);
        assert_eq!(f, arrival + SimSpan::millis(1));
    }

    #[test]
    fn multiple_servers_run_in_parallel() {
        let q = QueueServer::new(4);
        let finishes: Vec<SimTime> = (0..4)
            .map(|_| q.submit(SimTime::ZERO, SimSpan::millis(10)).1)
            .collect();
        assert!(finishes
            .iter()
            .all(|f| *f == SimTime::ZERO + SimSpan::millis(10)));
        // Fifth queues.
        let (_, f5) = q.submit(SimTime::ZERO, SimSpan::millis(10));
        assert_eq!(f5, SimTime::ZERO + SimSpan::millis(20));
    }

    #[test]
    fn reset_clears_backlog() {
        let q = QueueServer::new(1);
        q.submit(SimTime::ZERO, SimSpan::secs(100));
        q.reset();
        let (s, _) = q.submit(SimTime::ZERO, SimSpan::millis(1));
        assert_eq!(s, SimTime::ZERO);
    }
}
