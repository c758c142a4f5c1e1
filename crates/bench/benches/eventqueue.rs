//! Micro-benchmarks of the `EventQueue` at fleet scale: 1M pending
//! events is the scale1024 regime (2048 VMs × compute ticks, dirty-rate
//! updates, flow wakes), where the binary heap with lazy-cancel
//! tombstones is squarely on the hot path. Three operations matter:
//! scheduling into a full heap (sift-up plus one `pending` insert),
//! popping through it (sift-down, skipping tombstones, one `pending`
//! remove each), and cancel — which must stay O(1) (one flag flip in
//! `pending`), since `update_compute` cancels and reschedules a VM's
//! compute event on every rate change. `pending` is an `IdMap` keyed by
//! sequence number, so each of those lookups is one integer multiply
//! rather than a SipHash.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lsm_simcore::event::EventQueue;
use lsm_simcore::SimTime;

const PENDING: u64 = 1_000_000;

/// A queue with 1M pending events at distinct, interleaved times —
/// the deterministic stand-in for a fleet's event mix.
fn full_queue() -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..PENDING {
        // Bit-reversed-ish scatter so insertion order is not sorted.
        let t = (i * 2_654_435_761) % PENDING;
        q.schedule(SimTime::from_nanos(t), i);
    }
    q
}

fn bench_eventqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/eventqueue");

    g.bench_function("push_into_1m_pending", |b| {
        let mut q = full_queue();
        let mut i = PENDING;
        b.iter(|| {
            i += 1;
            std::hint::black_box(q.schedule(SimTime::from_nanos(i % PENDING), i))
        })
    });

    g.bench_function("pop_from_1m_pending", |b| {
        b.iter_batched(
            full_queue,
            |mut q| {
                for _ in 0..64 {
                    std::hint::black_box(q.pop());
                }
                q
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("cancel_in_1m_pending", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let ids: Vec<_> = (0..PENDING)
                    .map(|i| q.schedule(SimTime::from_nanos((i * 2_654_435_761) % PENDING), i))
                    .collect();
                (q, ids)
            },
            |(mut q, ids)| {
                for id in ids.iter().take(64) {
                    std::hint::black_box(q.cancel(*id));
                }
                (q, ids)
            },
            BatchSize::SmallInput,
        )
    });

    // The update_compute hot-path shape: cancel one event and
    // reschedule it at a new time, with the heap still 1M deep.
    g.bench_function("cancel_reschedule_in_1m_pending", |b| {
        let mut q = full_queue();
        let mut id = q.schedule(SimTime::from_nanos(1), PENDING);
        let mut i = PENDING;
        b.iter(|| {
            q.cancel(id);
            i += 1;
            id = q.schedule(SimTime::from_nanos(i % PENDING), i);
            std::hint::black_box(id)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_eventqueue);
criterion_main!(benches);
