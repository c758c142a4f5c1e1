//! Property test: the flat disk/cache lane ([`SharedResource`]) must be
//! **bit-identical** to the original `BTreeMap` lane kept below as
//! [`RefLane`].
//!
//! `RefLane` is the previous implementation verbatim (including its
//! progressive-filling loop over per-request caps, always driven with
//! `cap: None` here), except that its finish time saturates at
//! [`SimTime::FAR_FUTURE`] instead of overflowing. It recomputes every
//! finish time with a division on each `next_completion`, so it checks
//! the production lane's cached finish times, its equal-share
//! arithmetic and its id-ordered `Vec` at once.
//!
//! Both lanes run a random schedule of submits (empty, few-byte and large
//! requests), cancels of any id ever issued (live, finished or already
//! cancelled), completions at the reported `next_completion` and bare
//! clock advances. After every step `next_completion`, `rate_of` (to the
//! bit), `remaining_of`, `active`, `total_served` and `busy_time` must
//! match.

use lsm_simcore::resource::{ReqId, SharedResource};
use lsm_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Req {
    remaining: f64,
    rate: f64,
    cap: Option<f64>,
}

/// The original per-lane `BTreeMap` implementation (see module docs).
struct RefLane {
    capacity: f64,
    reqs: BTreeMap<ReqId, Req>,
    next_id: u64,
    last_advance: SimTime,
    total_served: f64,
    busy: SimDuration,
}

impl RefLane {
    fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "resource capacity must be positive");
        RefLane {
            capacity,
            reqs: BTreeMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            total_served: 0.0,
            busy: SimDuration::ZERO,
        }
    }

    fn active(&self) -> usize {
        self.reqs.len()
    }

    fn total_served(&self) -> u64 {
        self.total_served as u64
    }

    fn busy_time(&self) -> SimDuration {
        self.busy
    }

    fn submit(&mut self, now: SimTime, bytes: u64, cap: Option<f64>) -> ReqId {
        self.advance(now);
        let id = ReqId(self.next_id);
        self.next_id += 1;
        self.reqs.insert(
            id,
            Req {
                remaining: bytes as f64,
                rate: 0.0,
                cap,
            },
        );
        self.recompute();
        id
    }

    fn cancel(&mut self, now: SimTime, id: ReqId) -> Option<u64> {
        self.advance(now);
        let req = self.reqs.remove(&id)?;
        self.recompute();
        Some(req.remaining.ceil().max(0.0) as u64)
    }

    fn complete(&mut self, now: SimTime, id: ReqId) {
        self.advance(now);
        let req = self.reqs.remove(&id).expect("completing unknown request");
        debug_assert!(
            req.remaining < 1.0,
            "request completed with {} bytes left",
            req.remaining
        );
        self.recompute();
    }

    fn next_completion(&self) -> Option<(SimTime, ReqId)> {
        let mut best: Option<(SimTime, ReqId)> = None;
        for (&id, req) in &self.reqs {
            let t = if req.remaining <= 0.5 {
                self.last_advance
            } else if req.rate <= 0.0 {
                SimTime::FAR_FUTURE
            } else {
                self.last_advance
                    .saturating_add(SimDuration::from_secs_f64(req.remaining / req.rate))
            };
            match best {
                None => best = Some((t, id)),
                Some((bt, _)) if t < bt => best = Some((t, id)),
                _ => {}
            }
        }
        best
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "resource time went backwards");
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 {
            if !self.reqs.is_empty() {
                self.busy += now.since(self.last_advance);
            }
            for req in self.reqs.values_mut() {
                let served = (req.rate * dt).min(req.remaining);
                req.remaining -= served;
                self.total_served += served;
            }
        }
        self.last_advance = now;
    }

    fn recompute(&mut self) {
        let n = self.reqs.len();
        if n == 0 {
            return;
        }
        if self.capacity.is_infinite() {
            for req in self.reqs.values_mut() {
                req.rate = req.cap.unwrap_or(f64::INFINITY);
            }
            return;
        }
        let mut remaining_cap = self.capacity;
        let mut unfixed: Vec<ReqId> = self.reqs.keys().copied().collect();
        loop {
            if unfixed.is_empty() {
                break;
            }
            let share = remaining_cap / unfixed.len() as f64;
            let mut progressed = false;
            unfixed.retain(|id| {
                let req = self.reqs.get_mut(id).expect("unfixed req exists");
                match req.cap {
                    Some(c) if c <= share => {
                        req.rate = c;
                        remaining_cap -= c;
                        progressed = true;
                        false
                    }
                    _ => true,
                }
            });
            if !progressed {
                for id in &unfixed {
                    self.reqs.get_mut(id).expect("req").rate = share;
                }
                break;
            }
        }
    }

    fn rate_of(&self, id: ReqId) -> Option<f64> {
        self.reqs.get(&id).map(|r| r.rate)
    }

    fn remaining_of(&self, id: ReqId) -> Option<u64> {
        self.reqs.get(&id).map(|r| r.remaining.ceil() as u64)
    }
}

/// Lane capacities in bytes/second: a lane too slow to finish anything
/// (finish times saturate), slow, disk-like and fast lanes, and an
/// infinite one (instant completion).
const CAPACITIES: [f64; 6] = [1e-6, 1.0, 1e3, 5.5e7, 1e9, f64::INFINITY];

/// One encoded schedule step: `(kind, size/target selector, clock step)`.
type RawOp = (u8, u64, u64);

struct Lockstep {
    lane: SharedResource,
    refr: RefLane,
    /// Every id ever issued, live or not.
    issued: Vec<ReqId>,
    now: SimTime,
}

impl Lockstep {
    fn new(capacity: f64) -> Self {
        Lockstep {
            lane: SharedResource::new(capacity),
            refr: RefLane::new(capacity),
            issued: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn submit(&mut self, bytes: u64) -> Result<(), TestCaseError> {
        let a = self.lane.submit(self.now, bytes);
        let b = self.refr.submit(self.now, bytes, None);
        prop_assert_eq!(a, b, "submit ids diverged");
        self.issued.push(a);
        Ok(())
    }

    fn apply(&mut self, (kind, sel, step): RawOp) -> Result<(), TestCaseError> {
        // Clock steps: mostly none (same-instant batches), else from one
        // nanosecond to a few seconds.
        let dt = match step % 4 {
            0 | 1 => 0,
            2 => step % 1_000,
            _ => step % 3_000_000_000,
        };
        self.now += SimDuration::from_nanos(dt);
        match kind % 8 {
            // Requests from a few bytes (sub-byte residues, overdue ties)
            // up to a 256 MiB write-back batch.
            0 | 1 => self.submit(1 + sel % 8)?,
            2 | 3 => self.submit(sel % (256 << 20))?,
            4 => self.submit(0)?,
            5 => {
                if !self.issued.is_empty() {
                    let id = self.issued[(sel % self.issued.len() as u64) as usize];
                    prop_assert_eq!(
                        self.lane.cancel(self.now, id),
                        self.refr.cancel(self.now, id),
                        "cancel of {:?} diverged",
                        id
                    );
                }
            }
            6 => {
                if let Some((t, id)) = self.lane.next_completion() {
                    if t != SimTime::FAR_FUTURE {
                        self.complete_at(t, id);
                    }
                }
            }
            _ => {
                self.lane.advance(self.now);
                self.refr.advance(self.now);
            }
        }
        self.check()
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.lane.next_completion(), self.refr.next_completion());
        prop_assert_eq!(self.lane.active(), self.refr.active());
        prop_assert_eq!(self.lane.total_served(), self.refr.total_served());
        prop_assert_eq!(self.lane.busy_time(), self.refr.busy_time());
        for &id in &self.issued {
            prop_assert_eq!(
                self.lane.rate_of(id).map(f64::to_bits),
                self.refr.rate_of(id).map(f64::to_bits),
                "rate of {:?}",
                id
            );
            prop_assert_eq!(
                self.lane.remaining_of(id),
                self.refr.remaining_of(id),
                "remaining of {:?}",
                id
            );
        }
        Ok(())
    }

    /// Complete `id` at its reported finish time `t` (or now, if that
    /// has passed). An infinite lane reports "finishes now" but serves
    /// nothing until time moves, so it completes one nanosecond later.
    fn complete_at(&mut self, t: SimTime, id: ReqId) {
        self.now = self.now.max(t);
        if self.lane.capacity().is_infinite() {
            self.now += SimDuration::from_nanos(1);
        }
        self.lane.complete(self.now, id);
        self.refr.complete(self.now, id);
    }

    /// Complete everything that can finish, in `next_completion` order.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while let Some((t, id)) = self.lane.next_completion() {
            if t == SimTime::FAR_FUTURE {
                break;
            }
            self.complete_at(t, id);
            self.check()?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_lane_matches_btreemap_reference(
        cap in 0usize..CAPACITIES.len(),
        ops in prop::collection::vec((0u8..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..160),
    ) {
        let mut ls = Lockstep::new(CAPACITIES[cap]);
        for &op in &ops {
            ls.apply(op)?;
        }
        ls.drain()?;
    }
}

#[test]
fn reference_agrees_on_a_disk_sized_burst() {
    // A deterministic write-back burst at the simulator's default disk
    // speed: 64 MiB batches submitted 10 ms apart, drained to empty.
    let mut ls = Lockstep::new(5.5e7);
    for i in 0..32 {
        ls.apply((2, 64 << 20, 10_000_003)).unwrap();
        if i % 3 == 0 {
            ls.apply((6, 0, 0)).unwrap();
        }
    }
    ls.drain().unwrap();
    assert_eq!(ls.lane.active(), 0);
}
