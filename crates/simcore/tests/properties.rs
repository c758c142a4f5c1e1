//! Property tests for the DES kernel.

use lsm_simcore::{DetRng, EventId, EventQueue, SharedResource, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Events always pop in (time, insertion) order, whatever the
    /// scheduling order, cancellations and interleaved pops and peeks.
    /// A model heap of `(time, seq) → cancelled?` entries predicts every
    /// pop, every peek, every cancel's verdict (fired, already-cancelled
    /// and never-heaped ids are no-ops) and the exact tombstone count.
    #[test]
    fn event_queue_total_order(
        ops in prop::collection::vec((0u8..8, 0u64..1_000_000, 0u64..u64::MAX), 1..300)
    ) {
        let mut q = EventQueue::new();
        // Model: entries still in the heap, with their cancelled flag.
        let mut heap: BTreeMap<(u64, usize), bool> = BTreeMap::new();
        // Every id ever issued, with its (time, seq) if it was heaped.
        let mut ids: Vec<(EventId, Option<(u64, usize)>)> = Vec::new();
        for &(kind, at, sel) in &ops {
            match kind {
                0..=2 => {
                    let seq = ids.len();
                    let id = q.schedule(SimTime::from_nanos(at), seq);
                    heap.insert((at, seq), false);
                    ids.push((id, Some((at, seq))));
                }
                3 => {
                    let id = q.schedule(SimTime::FAR_FUTURE, ids.len());
                    ids.push((id, None));
                }
                4 | 5 => {
                    if ids.is_empty() {
                        continue;
                    }
                    let (id, key) = ids[(sel % ids.len() as u64) as usize];
                    let expect = match key.and_then(|k| heap.get_mut(&k)) {
                        Some(c @ false) => {
                            *c = true;
                            true
                        }
                        _ => false,
                    };
                    prop_assert_eq!(q.cancel(id), expect);
                }
                6 => {
                    while let Some((&k, _)) = heap.iter().next().filter(|(_, &c)| c) {
                        heap.remove(&k);
                    }
                    let expect = heap.keys().next().map(|&(at, _)| SimTime::from_nanos(at));
                    prop_assert_eq!(q.peek_time(), expect);
                }
                _ => {
                    let mut expect = None;
                    while let Some(((at, seq), cancelled)) = heap.pop_first() {
                        if !cancelled {
                            expect = Some((SimTime::from_nanos(at), seq));
                            break;
                        }
                    }
                    prop_assert_eq!(q.pop(), expect);
                }
            }
            prop_assert_eq!(q.tombstones(), heap.values().filter(|&&c| c).count());
            prop_assert_eq!(q.len(), heap.len());
        }
        let mut popped = Vec::new();
        while let Some((t, payload)) = q.pop() {
            popped.push((t.as_nanos(), payload));
        }
        let expected: Vec<(u64, usize)> =
            heap.into_iter().filter(|&(_, c)| !c).map(|(k, _)| k).collect();
        prop_assert_eq!(popped, expected);
        prop_assert_eq!(q.tombstones(), 0);
        prop_assert!(q.is_empty());
    }

    /// A fair-shared resource conserves bytes: total served equals the
    /// sum of completed request sizes plus consumed parts of cancelled
    /// and still-active requests.
    #[test]
    fn shared_resource_conserves_bytes(
        sizes in prop::collection::vec(1u64..64, 1..40),
        cancel_mask in prop::collection::vec(prop::bool::ANY, 40),
    ) {
        const MB: u64 = 1 << 20;
        let mut r = SharedResource::new(64.0 * MB as f64);
        let mut now = SimTime::ZERO;
        let mut completed = 0u64;
        let mut cancelled_served = 0u64;
        let mut live = Vec::new();
        for (i, &mb) in sizes.iter().enumerate() {
            let id = r.submit(now, mb * MB);
            live.push((id, mb * MB));
            now += SimDuration::from_millis(10);
            r.advance(now);
            if cancel_mask[i] && live.len() > 1 {
                let (victim, size) = live.remove(0);
                if let Some(left) = r.cancel(now, victim) {
                    cancelled_served += size - left.min(size);
                }
            }
        }
        // Drain everything.
        while let Some((t, id)) = r.next_completion() {
            now = t.max(now);
            r.complete(now, id);
            let pos = live.iter().position(|&(l, _)| l == id).expect("live");
            completed += live.remove(pos).1;
        }
        let served = r.total_served();
        let expect = completed + cancelled_served;
        // Tolerance: one byte of rounding per request.
        prop_assert!(
            served.abs_diff(expect) <= sizes.len() as u64 + 1,
            "served {served}, expected {expect}"
        );
    }

    /// Completion times are monotone in request size under identical
    /// competition.
    #[test]
    fn larger_requests_finish_later(a in 1u64..1000, b in 1u64..1000) {
        prop_assume!(a != b);
        let mut r = SharedResource::new(1e6);
        let ia = r.submit(SimTime::ZERO, a * 1000);
        let ib = r.submit(SimTime::ZERO, b * 1000);
        let (t1, first) = r.next_completion().expect("two live requests");
        let smaller = if a < b { ia } else { ib };
        prop_assert_eq!(first, smaller);
        r.complete(t1, first);
        let (t2, _) = r.next_completion().expect("one left");
        prop_assert!(t2 >= t1);
    }

    /// Forked RNG streams are reproducible and independent of sibling
    /// draw counts.
    #[test]
    fn rng_fork_stability(seed in 0u64..u64::MAX, salt in 0u64..u64::MAX) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..32 {
            prop_assert_eq!(fa.below(1 << 20), fb.below(1 << 20));
        }
    }
}
