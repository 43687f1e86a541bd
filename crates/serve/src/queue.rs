//! Bounded tenant-fair ticket queue: the admission-control choke point.
//!
//! Implemented with `Mutex + Condvar` rather than an unbounded channel: the
//! whole point is that `push` can refuse. Capacity is enforced at admission
//! (`QueueFull`), deadlines at dequeue and on a proactive sweep tick —
//! expired tickets are returned to the caller, who delivers the typed
//! `DeadlineExceeded` and settles the tenant's accounting in one place.
//!
//! # Deficit-weighted round robin
//!
//! Dequeue is not FIFO. Each tenant owns a sub-queue, and `pop_batch`
//! serves tenants in deficit round robin (Shreedhar & Varghese): every
//! visit in the rotation credits the tenant's deficit counter with its
//! *quantum* (= the admission-time quota weight carried on each ticket) and
//! serves the front ticket while the deficit covers its *cost*
//! ([`Ticket::cost`] — predicted cost units from the serve cost model, 1
//! when uncalibrated). Charging predicted cost instead of request counts
//! means a tenant flooding expensive (large-rung, high-marginal-cost)
//! requests drains its quantum proportionally faster, so it cannot starve a
//! tenant sending cheap requests under the same weight. A tenant whose
//! sub-queue empties leaves the rotation and forfeits its residual deficit,
//! so idle tenants accumulate nothing; a backlogged tenant that cannot yet
//! afford its front ticket keeps its deficit and accrues another quantum on
//! the next rotation (classic DRR).
//!
//! **Starvation bound.** Let `W = Σ weights of tenants with queued
//! tickets` and consider a ticket at position `k` (0-based) of a tenant
//! with weight `w`, with all costs equal to 1 (the uncalibrated case the
//! property test pins). Each full rotation serves at least `min(w, queued)`
//! tickets of that tenant (its deficit grows by `w` per rotation and every
//! service costs exactly 1) and at most `W` tickets in total (plus a
//! residual of at most one partially-served quantum, absorbed below by
//! rounding up one extra rotation). Hence the ticket departs within
//! `ceil((k+1)/w) + 1` rotations, i.e. within
//! [`starvation_bound_dequeues`]`(k, w, W)` non-expired dequeues — no
//! tenant can be starved regardless of how hard the others flood. With
//! heterogeneous costs the same bound holds with `k` and `W` measured in
//! cost units (cost-weighted position, Σ weights unchanged), because a
//! rotation still credits `w` units and serves at most `W` units overall.
//! Expired tickets consume no deficit and do not count against the bound.

use crate::error::ServeError;
use crate::request::Ticket;
use crate::tenant::TenantId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worst-case non-expired dequeues before the ticket at 0-based
/// `position` of a weight-`weight` tenant is served, with
/// `total_active_weight` = Σ weights of all tenants holding queued
/// tickets (including this one). This is the documented fairness
/// contract of [`BoundedQueue::pop_batch`]; the property test in
/// `tests/fair_queue_prop.rs` enforces it under adversarial mixes.
pub fn starvation_bound_dequeues(position: usize, weight: u32, total_active_weight: u64) -> u64 {
    let w = u64::from(weight.max(1));
    let rounds = (position as u64 + 1).div_ceil(w) + 1;
    rounds * total_active_weight.max(w)
}

/// The result of one [`BoundedQueue::pop_batch`] call.
#[derive(Debug, Default)]
pub struct PoppedBatch {
    /// Tickets to serve, in DRR order.
    pub batch: Vec<Ticket>,
    /// Tickets whose deadline had already passed. The caller must deliver
    /// `DeadlineExceeded` on each (and settle tenant accounting) — the
    /// queue does not respond on their behalf.
    pub expired: Vec<Ticket>,
}

/// Bounded multi-producer/multi-consumer queue of [`Ticket`]s with
/// per-tenant sub-queues and deficit-weighted fair dequeue.
#[derive(Debug)]
pub struct BoundedQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Inner {
    /// Per-tenant sub-queues. Entries persist across idle periods (the
    /// map is bounded by the tenant population, not traffic).
    queues: BTreeMap<TenantId, TenantQueue>,
    /// Round-robin rotation of tenants with at least one queued ticket.
    active: VecDeque<TenantId>,
    /// Total queued tickets across tenants.
    len: usize,
    closed: bool,
}

#[derive(Debug, Default)]
struct TenantQueue {
    tickets: VecDeque<Ticket>,
    deficit: u64,
    /// Set when a batch filled mid-quantum: the next visit resumes the
    /// residual deficit instead of crediting a fresh quantum.
    charged: bool,
}

impl Inner {
    /// Removes `tid` from the rotation bookkeeping after its sub-queue
    /// emptied: residual deficit is forfeited (DRR idle rule).
    fn retire(&mut self, tid: TenantId) {
        if let Some(tq) = self.queues.get_mut(&tid) {
            tq.deficit = 0;
            tq.charged = false;
        }
    }
}

impl BoundedQueue {
    /// A queue admitting at most `capacity` concurrent tickets (across all
    /// tenants; per-tenant bounds are the admission layer's in-flight caps).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                queues: BTreeMap::new(),
                active: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth across all tenants.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// Current queue depth of one tenant.
    pub fn depth_of(&self, tenant: TenantId) -> usize {
        self.inner.lock().unwrap().queues.get(&tenant).map_or(0, |q| q.tickets.len())
    }

    /// Admits a ticket into its tenant's sub-queue, or returns it with the
    /// typed rejection.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::ShuttingDown`]
    /// after [`BoundedQueue::close`].
    pub fn push(&self, ticket: Ticket) -> Result<(), Box<(Ticket, ServeError)>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(Box::new((ticket, ServeError::ShuttingDown)));
        }
        if inner.len >= self.capacity {
            let depth = inner.len;
            return Err(Box::new((ticket, ServeError::QueueFull { depth, capacity: self.capacity })));
        }
        let tid = ticket.tenant;
        let tq = inner.queues.entry(tid).or_default();
        let was_idle = tq.tickets.is_empty();
        tq.tickets.push_back(ticket);
        inner.len += 1;
        if was_idle {
            inner.active.push_back(tid);
        }
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops up to `max` tickets by deficit round robin, waiting up to
    /// `wait` for the first one. Already-expired tickets are pulled out
    /// into [`PoppedBatch::expired`] without consuming deficit. Returns an
    /// empty result on timeout or once closed-and-empty.
    pub fn pop_batch(&self, max: usize, wait: Duration) -> PoppedBatch {
        let deadline_wait = Instant::now() + wait;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.len > 0 || inner.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline_wait {
                return PoppedBatch::default();
            }
            let (guard, _timeout) =
                self.not_empty.wait_timeout(inner, deadline_wait - now).unwrap();
            inner = guard;
        }
        let mut out = PoppedBatch::default();
        let now = Instant::now();
        while out.batch.len() < max && inner.len > 0 {
            let Some(tid) = inner.active.pop_front() else { break };
            let tq = inner.queues.get_mut(&tid).expect("active tenant has a sub-queue");
            if tq.charged {
                tq.charged = false;
            } else {
                let quantum =
                    tq.tickets.front().map_or(1, |t| u64::from(t.weight.max(1)));
                tq.deficit += quantum;
            }
            let mut popped = 0usize;
            while out.batch.len() < max {
                let Some(front) = tq.tickets.front() else { break };
                if now > front.deadline {
                    // Shed without charging the tenant's deficit: an
                    // expired ticket received no service, so it costs
                    // zero units regardless of its predicted cost.
                    let ticket = tq.tickets.pop_front().expect("front exists");
                    popped += 1;
                    out.expired.push(ticket);
                    continue;
                }
                let cost = u64::from(front.cost.max(1));
                if tq.deficit < cost {
                    // Can't afford the front ticket yet: keep the residual
                    // deficit and wait for the next rotation's quantum.
                    break;
                }
                let ticket = tq.tickets.pop_front().expect("front exists");
                popped += 1;
                tq.deficit -= cost;
                out.batch.push(ticket);
            }
            let emptied = tq.tickets.is_empty();
            let affordable = tq
                .tickets
                .front()
                .is_some_and(|t| tq.deficit >= u64::from(t.cost.max(1)));
            inner.len -= popped;
            if emptied {
                inner.retire(tid);
            } else if out.batch.len() == max && affordable {
                // Batch filled mid-quantum: resume this tenant first next
                // time, keeping the residual credit (no double-charge).
                let tq = inner.queues.get_mut(&tid).expect("sub-queue persists");
                tq.charged = true;
                inner.active.push_front(tid);
            } else {
                inner.active.push_back(tid);
            }
        }
        out
    }

    /// Proactive deadline sweep: removes and returns every queued ticket
    /// whose deadline has passed, so long-deadline floods cannot pin queue
    /// memory until a worker happens to dequeue them. The caller delivers
    /// `DeadlineExceeded` and meters `queue.swept_expired`.
    pub fn sweep_expired(&self, now: Instant) -> Vec<Ticket> {
        let mut inner = self.inner.lock().unwrap();
        let mut swept = Vec::new();
        let mut emptied = Vec::new();
        for (tid, tq) in inner.queues.iter_mut() {
            if tq.tickets.is_empty() {
                continue;
            }
            let before = tq.tickets.len();
            let mut kept = VecDeque::with_capacity(before);
            for ticket in tq.tickets.drain(..) {
                if now > ticket.deadline {
                    swept.push(ticket);
                } else {
                    kept.push_back(ticket);
                }
            }
            tq.tickets = kept;
            if tq.tickets.is_empty() {
                emptied.push(*tid);
            }
        }
        inner.len -= swept.len();
        for tid in emptied {
            inner.retire(tid);
            inner.active.retain(|t| *t != tid);
        }
        swept
    }

    /// Closes the queue: subsequent pushes fail and sleeping consumers wake.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns every queued ticket (used at shutdown to deliver
    /// `ShuttingDown` rather than dropping responders silently).
    pub fn drain(&self) -> Vec<Ticket> {
        let mut inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.len);
        let tids: Vec<TenantId> = inner.queues.keys().copied().collect();
        for tid in tids {
            if let Some(tq) = inner.queues.get_mut(&tid) {
                out.extend(tq.tickets.drain(..));
            }
            inner.retire(tid);
        }
        inner.active.clear();
        inner.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Outcome;
    use revbifpn_tensor::{Shape, Tensor};
    use std::sync::mpsc;

    fn cost_ticket(
        tenant: TenantId,
        weight: u32,
        cost: u32,
        deadline_in: Duration,
    ) -> (Ticket, mpsc::Receiver<Outcome>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        (
            Ticket {
                id: 0,
                image: Tensor::zeros(Shape::new(1, 3, 4, 4)),
                tag: None,
                tenant,
                weight,
                cost,
                probe: false,
                enqueued: now,
                deadline: now + deadline_in,
                responder: tx,
            },
            rx,
        )
    }

    fn tenant_ticket(
        tenant: TenantId,
        weight: u32,
        deadline_in: Duration,
    ) -> (Ticket, mpsc::Receiver<Outcome>) {
        cost_ticket(tenant, weight, 1, deadline_in)
    }

    fn ticket(deadline_in: Duration) -> (Ticket, mpsc::Receiver<Outcome>) {
        tenant_ticket(TenantId::DEFAULT, 1, deadline_in)
    }

    #[test]
    fn capacity_is_enforced_with_typed_error() {
        let q = BoundedQueue::new(2);
        let (t1, _r1) = ticket(Duration::from_secs(1));
        let (t2, _r2) = ticket(Duration::from_secs(1));
        let (t3, _r3) = ticket(Duration::from_secs(1));
        q.push(t1).unwrap();
        q.push(t2).unwrap();
        let (_, err) = *q.push(t3).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { depth: 2, capacity: 2 });
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_batch_respects_max() {
        let q = BoundedQueue::new(8);
        let mut rxs = Vec::new();
        for _ in 0..5 {
            let (t, r) = ticket(Duration::from_secs(1));
            q.push(t).unwrap();
            rxs.push(r);
        }
        let out = q.pop_batch(3, Duration::from_millis(10));
        assert_eq!((out.batch.len(), out.expired.len()), (3, 0));
        let out = q.pop_batch(3, Duration::from_millis(10));
        assert_eq!(out.batch.len(), 2);
    }

    #[test]
    fn expired_tickets_are_returned_not_served() {
        let q = BoundedQueue::new(8);
        let (t, rx) = ticket(Duration::from_millis(0));
        q.push(t).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let out = q.pop_batch(4, Duration::from_millis(10));
        assert!(out.batch.is_empty());
        assert_eq!(out.expired.len(), 1);
        for t in out.expired {
            let waited = t.waited_ms(Instant::now());
            t.respond(Err(ServeError::DeadlineExceeded { waited_ms: waited }));
        }
        assert!(matches!(rx.recv().unwrap(), Err(ServeError::DeadlineExceeded { .. })));
    }

    #[test]
    fn close_rejects_pushes_and_wakes_poppers() {
        let q = BoundedQueue::new(2);
        q.close();
        let (t, _r) = ticket(Duration::from_secs(1));
        let (_, err) = *q.push(t).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        let out = q.pop_batch(4, Duration::from_secs(5)); // returns fast
        assert!(out.batch.is_empty());
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q = BoundedQueue::new(2);
        let start = Instant::now();
        let out = q.pop_batch(4, Duration::from_millis(20));
        assert!(out.batch.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn drr_interleaves_a_flooding_tenant_with_a_modest_one() {
        let q = BoundedQueue::new(64);
        let flood = TenantId(1);
        let modest = TenantId(2);
        let mut rxs = Vec::new();
        // Tenant 1 floods 20 tickets before tenant 2's 2 arrive.
        for _ in 0..20 {
            let (t, r) = tenant_ticket(flood, 1, Duration::from_secs(5));
            q.push(t).unwrap();
            rxs.push(r);
        }
        for _ in 0..2 {
            let (t, r) = tenant_ticket(modest, 1, Duration::from_secs(5));
            q.push(t).unwrap();
            rxs.push(r);
        }
        // Equal weights: the first batch of 4 must alternate, not serve the
        // flood FIFO. (flood, modest, flood, modest).
        let out = q.pop_batch(4, Duration::from_millis(10));
        let tenants: Vec<TenantId> = out.batch.iter().map(|t| t.tenant).collect();
        assert_eq!(tenants, vec![flood, modest, flood, modest]);
        assert_eq!(q.depth_of(modest), 0);
    }

    #[test]
    fn drr_respects_weights() {
        let q = BoundedQueue::new(64);
        let heavy = TenantId(1); // weight 3
        let light = TenantId(2); // weight 1
        for _ in 0..12 {
            let (t, _r) = tenant_ticket(heavy, 3, Duration::from_secs(5));
            q.push(t).unwrap();
            let (t, _r) = tenant_ticket(light, 1, Duration::from_secs(5));
            q.push(t).unwrap();
        }
        // One full rotation serves 3 heavy + 1 light.
        let out = q.pop_batch(8, Duration::from_millis(10));
        let heavy_served = out.batch.iter().filter(|t| t.tenant == heavy).count();
        let light_served = out.batch.iter().filter(|t| t.tenant == light).count();
        assert_eq!(heavy_served, 6, "weight-3 tenant gets 3 per rotation");
        assert_eq!(light_served, 2, "weight-1 tenant gets 1 per rotation");
    }

    #[test]
    fn residual_deficit_survives_a_full_batch_without_double_charge() {
        let q = BoundedQueue::new(64);
        let heavy = TenantId(1);
        let light = TenantId(2);
        for _ in 0..8 {
            let (t, _r) = tenant_ticket(heavy, 4, Duration::from_secs(5));
            q.push(t).unwrap();
        }
        for _ in 0..8 {
            let (t, _r) = tenant_ticket(light, 1, Duration::from_secs(5));
            q.push(t).unwrap();
        }
        // Batch of 2 fills mid-quantum for the heavy tenant; its residual
        // credit of 2 must carry over, then light gets its single slot.
        let out = q.pop_batch(2, Duration::from_millis(10));
        assert!(out.batch.iter().all(|t| t.tenant == heavy));
        let out = q.pop_batch(8, Duration::from_millis(10));
        let tenants: Vec<TenantId> = out.batch.iter().map(|t| t.tenant).collect();
        // Residual 2 heavy first (no fresh quantum), then light 1, then a
        // fresh heavy quantum of 4, then light again.
        assert_eq!(
            tenants,
            vec![heavy, heavy, light, heavy, heavy, heavy, heavy, light]
        );
    }

    #[test]
    fn cost_units_throttle_expensive_tenants_under_equal_weights() {
        let q = BoundedQueue::new(64);
        let pricey = TenantId(1); // every ticket predicted at 4 cost units
        let cheap = TenantId(2); // unit-cost tickets
        for _ in 0..8 {
            let (t, _r) = cost_ticket(pricey, 1, 4, Duration::from_secs(5));
            q.push(t).unwrap();
        }
        for _ in 0..8 {
            let (t, _r) = cost_ticket(cheap, 1, 1, Duration::from_secs(5));
            q.push(t).unwrap();
        }
        // Equal weights: the cheap tenant serves one per rotation while the
        // pricey one must accrue four quanta per ticket, yielding a 4:1
        // throughput ratio in requests (1:1 in predicted cost).
        let out = q.pop_batch(5, Duration::from_millis(10));
        let tenants: Vec<TenantId> = out.batch.iter().map(|t| t.tenant).collect();
        assert_eq!(tenants, vec![cheap, cheap, cheap, pricey, cheap]);
    }

    #[test]
    fn expired_tickets_charge_zero_cost_units() {
        let q = BoundedQueue::new(16);
        let a = TenantId(1);
        let b = TenantId(2);
        // Tenant A's front ticket expires (predicted cost 3); its live
        // follow-up costs 1. If the expired ticket were charged, A's
        // deficit (quantum 1) would go negative-equivalent and its live
        // ticket would lose its rotation slot to B.
        let (expired, _rx0) = cost_ticket(a, 1, 3, Duration::from_millis(0));
        let (live_a, _rx1) = cost_ticket(a, 1, 1, Duration::from_secs(5));
        let (live_b1, _rx2) = cost_ticket(b, 1, 1, Duration::from_secs(5));
        let (live_b2, _rx3) = cost_ticket(b, 1, 1, Duration::from_secs(5));
        q.push(expired).unwrap();
        q.push(live_a).unwrap();
        q.push(live_b1).unwrap();
        q.push(live_b2).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let out = q.pop_batch(3, Duration::from_millis(10));
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].tenant, a);
        let tenants: Vec<TenantId> = out.batch.iter().map(|t| t.tenant).collect();
        // A's live ticket is served in A's first visit: the swept-expired
        // ticket charged zero units against the quantum.
        assert_eq!(tenants, vec![a, b, b]);
    }

    #[test]
    fn unaffordable_front_ticket_waits_for_more_quanta_not_forever() {
        let q = BoundedQueue::new(16);
        let t1 = TenantId(1);
        let (t, _r) = cost_ticket(t1, 1, 5, Duration::from_secs(5));
        q.push(t).unwrap();
        // A single pop call keeps rotating until the deficit covers the
        // ticket: cost 5 at quantum 1 takes five visits, then serves.
        let out = q.pop_batch(4, Duration::from_millis(10));
        assert_eq!(out.batch.len(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn sweep_removes_only_expired_tickets() {
        let q = BoundedQueue::new(16);
        let (t1, rx1) = tenant_ticket(TenantId(1), 1, Duration::from_millis(0));
        let (t2, _rx2) = tenant_ticket(TenantId(1), 1, Duration::from_secs(5));
        let (t3, rx3) = tenant_ticket(TenantId(2), 1, Duration::from_millis(0));
        q.push(t1).unwrap();
        q.push(t2).unwrap();
        q.push(t3).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let swept = q.sweep_expired(Instant::now());
        assert_eq!(swept.len(), 2);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.depth_of(TenantId(2)), 0);
        for t in swept {
            t.respond(Err(ServeError::DeadlineExceeded { waited_ms: 5 }));
        }
        assert!(matches!(rx1.recv().unwrap(), Err(ServeError::DeadlineExceeded { .. })));
        assert!(matches!(rx3.recv().unwrap(), Err(ServeError::DeadlineExceeded { .. })));
        // The survivor still pops normally.
        let out = q.pop_batch(4, Duration::from_millis(10));
        assert_eq!(out.batch.len(), 1);
    }

    #[test]
    fn sweep_keeps_the_rotation_consistent() {
        let q = BoundedQueue::new(16);
        // Tenant 1's only ticket expires; tenant 2 survives. After the
        // sweep the rotation must still serve tenant 2 (and not panic on a
        // stale tenant 1 entry).
        let (t1, _rx1) = tenant_ticket(TenantId(1), 1, Duration::from_millis(0));
        let (t2, _rx2) = tenant_ticket(TenantId(2), 1, Duration::from_secs(5));
        q.push(t1).unwrap();
        q.push(t2).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(q.sweep_expired(Instant::now()).len(), 1);
        let out = q.pop_batch(4, Duration::from_millis(10));
        assert_eq!(out.batch.len(), 1);
        assert_eq!(out.batch[0].tenant, TenantId(2));
    }

    #[test]
    fn starvation_bound_is_sane() {
        // Head ticket, weight 1 of total 4: at most 2 rotations of 4.
        assert_eq!(starvation_bound_dequeues(0, 1, 4), 8);
        // Position 5 at weight 2 of total 8: ceil(6/2)+1 = 4 rotations.
        assert_eq!(starvation_bound_dequeues(5, 2, 8), 32);
        // Degenerate zero weight clamps to 1.
        assert_eq!(starvation_bound_dequeues(0, 0, 0), 2);
    }
}
