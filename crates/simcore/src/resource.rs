//! A fluid-model shared resource with equal capacity sharing.
//!
//! [`SharedResource`] models a single bottleneck (a local disk, a page
//! cache) serving several outstanding byte-counted requests at once.
//! Capacity is divided equally: with `n` requests outstanding, each runs
//! at `capacity / n` (the max–min fair share when no request has a rate
//! cap of its own, which none in this simulator has).
//!
//! The model is *incremental*: the embedding event loop calls
//! [`SharedResource::submit`] / [`SharedResource::cancel`] /
//! [`SharedResource::complete`] at event boundaries and asks
//! [`SharedResource::next_completion`] for the earliest finish time to
//! schedule. Between boundaries rates are constant, so progress integration
//! is exact (no fixed time-stepping).
//!
//! # Costs
//!
//! A lane holds a handful of requests (about three on a 256-node fleet),
//! so what matters is constant overhead, not asymptotics. Requests live in
//! a `Vec` kept in [`ReqId`] order: ids only grow, so `submit` is a push
//! and `complete`/`cancel` a binary search plus `remove`. Every mutation
//! re-integrates progress and re-shares capacity in one allocation-free
//! pass, O(n). Each request caches its finish time whenever its remaining
//! bytes, its rate or the integration clock change, so
//! [`SharedResource::next_completion`] is a compare-only scan with no
//! division. Finish times saturate at [`SimTime::FAR_FUTURE`], so a lane
//! too slow to ever finish a request never schedules it.
//!
//! The multi-resource generalization (flows coupling NIC-up, NIC-down and a
//! switch) lives in `lsm-netsim`; this single-resource version is what disks
//! and page caches use.

use crate::time::{SimDuration, SimTime};

/// Handle to an outstanding request on a [`SharedResource`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

#[derive(Debug, Clone)]
struct Req {
    id: ReqId,
    remaining: f64,
    rate: f64,
    /// `finish_time(last_advance, remaining, rate)`, refreshed whenever
    /// any of the three changes.
    finish: SimTime,
}

/// A single fair-shared resource (see module docs).
#[derive(Debug)]
pub struct SharedResource {
    capacity: f64,
    /// Outstanding requests, ascending by id.
    reqs: Vec<Req>,
    next_id: u64,
    last_advance: SimTime,
    total_served: f64,
    busy: SimDuration,
}

impl SharedResource {
    /// Create a resource with `capacity` bytes/second.
    ///
    /// `f64::INFINITY` is allowed and models a resource that is never the
    /// bottleneck (requests then complete instantly).
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "resource capacity must be positive");
        SharedResource {
            capacity,
            reqs: Vec::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            total_served: 0.0,
            busy: SimDuration::ZERO,
        }
    }

    /// The configured capacity in bytes/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of outstanding requests.
    pub fn active(&self) -> usize {
        self.reqs.len()
    }

    /// Total bytes served since construction.
    pub fn total_served(&self) -> u64 {
        self.total_served as u64
    }

    /// Cumulative time during which at least one request was in service.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Submit a request for `bytes`. Returns its handle.
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> ReqId {
        self.integrate(now);
        let id = ReqId(self.next_id);
        self.next_id += 1;
        self.reqs.push(Req {
            id,
            remaining: bytes as f64,
            rate: 0.0,
            finish: SimTime::FAR_FUTURE,
        });
        self.recompute();
        id
    }

    /// Cancel an outstanding request, returning the bytes it had left
    /// (rounded up). Unknown ids return `None`.
    pub fn cancel(&mut self, now: SimTime, id: ReqId) -> Option<u64> {
        let Some(pos) = self.position(id) else {
            self.advance(now);
            return None;
        };
        self.integrate(now);
        let req = self.reqs.remove(pos);
        self.recompute();
        Some(req.remaining.ceil().max(0.0) as u64)
    }

    /// Mark `id` complete at `now`. Must only be called at (or after) the
    /// time previously returned by [`Self::next_completion`] for this id;
    /// debug builds assert the request had (numerically) finished.
    pub fn complete(&mut self, now: SimTime, id: ReqId) {
        let pos = self.position(id).expect("completing unknown request");
        self.integrate(now);
        let req = self.reqs.remove(pos);
        debug_assert!(
            req.remaining < 1.0,
            "request completed with {} bytes left",
            req.remaining
        );
        self.recompute();
    }

    /// Earliest `(finish_time, id)` among outstanding requests, or `None`
    /// when idle. Deterministic: ties resolve to the lowest id.
    pub fn next_completion(&self) -> Option<(SimTime, ReqId)> {
        let mut best: Option<(SimTime, ReqId)> = None;
        for req in &self.reqs {
            match best {
                Some((bt, _)) if req.finish >= bt => {}
                _ => best = Some((req.finish, req.id)),
            }
        }
        best
    }

    /// Integrate progress up to `now` using the rates fixed at the last
    /// mutation. Idempotent for repeated calls with the same `now`.
    pub fn advance(&mut self, now: SimTime) {
        if self.integrate(now) {
            let from = self.last_advance;
            for req in &mut self.reqs {
                req.finish = finish_time(from, req.remaining, req.rate);
            }
        }
    }

    /// Serve every request at its current rate from `last_advance` to
    /// `now`, leaving cached finish times stale. Returns whether the clock
    /// moved; the caller refreshes finish times.
    fn integrate(&mut self, now: SimTime) -> bool {
        debug_assert!(now >= self.last_advance, "resource time went backwards");
        let elapsed = now.since(self.last_advance);
        let dt = elapsed.as_secs_f64();
        if dt > 0.0 {
            if !self.reqs.is_empty() {
                self.busy += elapsed;
            }
            for req in &mut self.reqs {
                let served = (req.rate * dt).min(req.remaining);
                req.remaining -= served;
                self.total_served += served;
            }
        }
        let moved = now != self.last_advance;
        self.last_advance = now;
        moved
    }

    /// Equal sharing: every request runs at `capacity / n`. Refreshes
    /// every cached finish time.
    fn recompute(&mut self) {
        let n = self.reqs.len();
        if n == 0 {
            return;
        }
        let share = self.capacity / n as f64;
        let from = self.last_advance;
        for req in &mut self.reqs {
            req.rate = share;
            req.finish = finish_time(from, req.remaining, share);
        }
    }

    fn position(&self, id: ReqId) -> Option<usize> {
        self.reqs.binary_search_by_key(&id, |r| r.id).ok()
    }

    /// Current service rate of a request (bytes/second), if outstanding.
    pub fn rate_of(&self, id: ReqId) -> Option<f64> {
        self.position(id).map(|i| self.reqs[i].rate)
    }

    /// Bytes remaining for a request, if outstanding.
    pub fn remaining_of(&self, id: ReqId) -> Option<u64> {
        self.position(id)
            .map(|i| self.reqs[i].remaining.ceil() as u64)
    }
}

/// When a request with `remaining` bytes at `rate` finishes, measured from
/// `from`. Sub-half-byte residue counts as done; a transfer too slow to end
/// before [`SimTime::FAR_FUTURE`] (including a rate that underflowed to
/// zero) saturates to it.
fn finish_time(from: SimTime, remaining: f64, rate: f64) -> SimTime {
    if remaining <= 0.5 {
        return from;
    }
    let secs = remaining / rate;
    if !secs.is_finite() {
        return SimTime::FAR_FUTURE;
    }
    from.saturating_add(SimDuration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{mb_per_s, MIB};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_request_gets_full_capacity() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let id = r.submit(SimTime::ZERO, 100 * MIB);
        let (done, got) = r.next_completion().unwrap();
        assert_eq!(got, id);
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_requests_share_equally() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(SimTime::ZERO, 100 * MIB);
        let _b = r.submit(SimTime::ZERO, 100 * MIB);
        assert!((r.rate_of(a).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        let (done, _) = r.next_completion().unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn share_rebalances_on_every_change() {
        let mut r = SharedResource::new(mb_per_s(90.0));
        let a = r.submit(SimTime::ZERO, 100 * MIB);
        let b = r.submit(SimTime::ZERO, 100 * MIB);
        let c = r.submit(SimTime::ZERO, 100 * MIB);
        for id in [a, b, c] {
            assert_eq!(r.rate_of(id), Some(mb_per_s(90.0) / 3.0));
        }
        r.cancel(t(0.1), b);
        assert_eq!(r.rate_of(b), None);
        assert_eq!(r.rate_of(a), Some(mb_per_s(90.0) / 2.0));
        assert_eq!(r.rate_of(c), Some(mb_per_s(90.0) / 2.0));
    }

    #[test]
    fn progress_integrates_across_mutations() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(SimTime::ZERO, 100 * MIB);
        // After 0.5s alone, a has 50 MiB left; then b arrives.
        let _b = r.submit(t(0.5), 100 * MIB);
        assert_eq!(r.remaining_of(a).unwrap() / MIB, 50);
        // Now both at 50 MB/s: a finishes at 0.5 + 1.0 = 1.5s.
        let (done, id) = r.next_completion().unwrap();
        assert_eq!(id, a);
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn completion_then_speedup() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(SimTime::ZERO, 50 * MIB);
        let b = r.submit(SimTime::ZERO, 100 * MIB);
        let (ta, ia) = r.next_completion().unwrap();
        assert_eq!(ia, a);
        r.complete(ta, a);
        // b speeds up to full rate afterwards.
        assert!((r.rate_of(b).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        let (tb, ib) = r.next_completion().unwrap();
        assert_eq!(ib, b);
        // b: 25 MiB served in first second (half rate... 50MB/s * 1s = 50 MiB),
        // remaining 50 MiB at 100 MB/s => 0.5s more.
        assert!((tb.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn cancel_returns_remaining() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(SimTime::ZERO, 100 * MIB);
        let left = r.cancel(t(0.25), a).unwrap();
        assert_eq!(left / MIB, 75);
        assert!(r.next_completion().is_none());
    }

    #[test]
    fn infinite_capacity_completes_instantly() {
        let mut r = SharedResource::new(f64::INFINITY);
        let a = r.submit(t(2.0), 100 * MIB);
        assert_eq!(r.rate_of(a), Some(f64::INFINITY));
        let b = r.submit(t(2.0), 100 * MIB);
        // Both requests finish "now"; the tie goes to the lower id.
        assert_eq!(r.next_completion(), Some((t(2.0), a)));
        // Any elapsed time at all serves them in full.
        r.advance(t(2.0) + SimDuration::from_nanos(1));
        assert_eq!(r.remaining_of(a), Some(0));
        assert_eq!(r.remaining_of(b), Some(0));
    }

    #[test]
    fn zero_byte_request_completes_immediately() {
        let mut r = SharedResource::new(mb_per_s(10.0));
        let id = r.submit(t(3.0), 0);
        let (done, got) = r.next_completion().unwrap();
        assert_eq!((done, got), (t(3.0), id));
    }

    #[test]
    fn busy_time_accounts_only_active_periods() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(t(1.0), 100 * MIB);
        let (done, _) = r.next_completion().unwrap();
        r.complete(done, a);
        r.advance(t(10.0));
        assert!((r.busy_time().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ties_resolve_to_lowest_id() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(SimTime::ZERO, 50 * MIB);
        let b = r.submit(SimTime::ZERO, 50 * MIB);
        let (_, id) = r.next_completion().unwrap();
        assert_eq!(id, a);
        let _ = b;
    }

    #[test]
    fn total_served_conserved() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        let a = r.submit(SimTime::ZERO, 30 * MIB);
        let b = r.submit(SimTime::ZERO, 70 * MIB);
        let (ta, _) = r.next_completion().unwrap();
        r.complete(ta, a);
        let (tb, _) = r.next_completion().unwrap();
        r.complete(tb, b);
        assert_eq!(r.total_served() / MIB, 100);
    }

    #[test]
    fn tiny_rate_never_finishes_instead_of_overflowing() {
        // 1 GiB at 1e-6 B/s takes ~1e15 s, far past u64 nanoseconds: the
        // finish time must saturate rather than wrap to "already done".
        let mut r = SharedResource::new(1e-6);
        let id = r.submit(t(1.0), 1 << 30);
        assert_eq!(r.next_completion(), Some((SimTime::FAR_FUTURE, id)));
        r.advance(t(5.0));
        assert_eq!(r.next_completion(), Some((SimTime::FAR_FUTURE, id)));
        let other = r.submit(t(6.0), 1 << 30);
        assert_eq!(r.next_completion(), Some((SimTime::FAR_FUTURE, id)));
        assert_eq!(r.cancel(t(7.0), id), Some(1 << 30));
        assert_eq!(r.next_completion(), Some((SimTime::FAR_FUTURE, other)));
    }
}
