//! Queue-aware load balancing, admission control and per-tenant fair
//! share for the fleet engine.
//!
//! The engine makes queueing delay *emergent* — overlapping clients on
//! one server CPU wait at `max(now, busy_until)` — but placement by
//! predicted migration time alone is blind to it: a diurnal peak herds
//! clients onto the server with the best link and silently erases the
//! offload win the paper measures. This module prices the queue:
//!
//! * [`Balancer`] — per-server **predicted queueing delay**, derived
//!   from the engine's `busy_until` ground truth plus deterministic
//!   integer EWMAs of recent waits and service times (the closed-loop
//!   signal when reservations alone under-estimate). The engine hands
//!   the prediction, as [`Balancer::outlook`], to
//!   [`ServerPool::select`](crate::ServerPool::select), the one
//!   placement rule (a modeled client's first round, a session's
//!   failover), and to the session's `plan` gate, which adds the
//!   serving server's entry to the offload side it prices through
//!   `PartitionOptimizer::against_local` — queueing delay that erases
//!   the offload win degrades the round to local *before* any bytes
//!   commit to the wire (admission control).
//! * [`DrrScheduler`] — deficit-round-robin grant ordering (surplus
//!   variant: serve at non-negative deficit, charge actual service time,
//!   refill one quantum per skipped pass), so one chatty tenant cannot
//!   starve co-located clients of the server CPU.
//! * [`jain`] — Jain's fairness index over per-client completions, the
//!   headline fairness number of a [`FleetReport`](crate::FleetReport).
//!
//! Everything here is a pure function of the observation stream —
//! integer microsecond arithmetic only, no floats in state — so balanced
//! runs replay bit for bit, and every knob defaults *off*: an engine
//! with balancing disabled is byte-identical to pre-balancing behaviour.

use std::time::Duration;

/// Divisor of the integer EWMAs: `new = (old * (DIV - 1) + sample) / DIV`.
/// A small divisor keeps the estimate reactive to the most recent waits
/// (the signal a diurnal swing moves fastest).
const EWMA_DIV: u128 = 5;

/// Default deficit-round-robin quantum: the service credit every waiting
/// tenant earns per scheduling pass. Small against typical DNN service
/// times, so a heavy tenant repays its overdraft over several passes
/// while light tenants keep flowing.
pub const DEFAULT_DRR_QUANTUM: Duration = Duration::from_millis(5);

/// Per-server predicted queueing delay, maintained by the engine as
/// grants happen and consulted at round start by whichever path picks a
/// server (modeled selection, session failover, admission control).
#[derive(Debug, Clone)]
pub struct Balancer {
    /// Ground truth mirrored from the engine: when each server's CPU
    /// frees (covers every reservation already granted).
    busy_until: Vec<Duration>,
    /// Requests parked in each server's fair-share queue — work the
    /// `busy_until` reservation does not cover yet.
    queued: Vec<usize>,
    /// EWMA of observed queueing delays, in microseconds.
    wait_ewma_us: Vec<u128>,
    /// EWMA of observed service times, in microseconds — prices the
    /// parked backlog of a fair-share queue.
    service_ewma_us: Vec<u128>,
}

impl Balancer {
    /// A balancer over `fleet` server candidates, all predicted idle.
    pub fn new(fleet: usize) -> Balancer {
        Balancer {
            busy_until: vec![Duration::ZERO; fleet],
            queued: vec![0; fleet],
            wait_ewma_us: vec![0; fleet],
            service_ewma_us: vec![0; fleet],
        }
    }

    /// Number of server candidates tracked.
    pub fn fleet(&self) -> usize {
        self.busy_until.len()
    }

    /// Records one CPU grant on `server`: the request waited `wait`, ran
    /// from its admission until `released`, for `service` of CPU time.
    pub fn note_grant(
        &mut self,
        server: usize,
        wait: Duration,
        service: Duration,
        released: Duration,
    ) {
        let Some(until) = self.busy_until.get_mut(server) else {
            return;
        };
        *until = (*until).max(released);
        self.wait_ewma_us[server] = ewma(self.wait_ewma_us[server], wait.as_micros());
        self.service_ewma_us[server] = ewma(self.service_ewma_us[server], service.as_micros());
    }

    /// Mirrors the depth of `server`'s fair-share queue (requests parked
    /// behind a busy CPU, not yet covered by a `busy_until` reservation).
    pub fn set_queue_depth(&mut self, server: usize, depth: usize) {
        if let Some(slot) = self.queued.get_mut(server) {
            *slot = depth;
        }
    }

    /// Predicted queueing delay a request reaching `server` at time `at`
    /// would pay: the reservation backlog (`busy_until - at`, ground
    /// truth) or the recent-wait EWMA, whichever is worse, plus the
    /// parked fair-share queue priced at the service-time EWMA.
    fn predicted_wait(&self, server: usize, at: Duration) -> Duration {
        let Some(&until) = self.busy_until.get(server) else {
            return Duration::ZERO;
        };
        let reserved = until.saturating_sub(at);
        let ewma_wait = duration_from_us(self.wait_ewma_us[server]);
        let backlog = duration_from_us(
            self.service_ewma_us[server].saturating_mul(self.queued[server] as u128),
        );
        reserved.max(ewma_wait).saturating_add(backlog)
    }

    /// The full fleet outlook at time `at`: one predicted queueing delay
    /// per candidate, in fleet order — what the engine hands a session
    /// before its round starts.
    pub fn outlook(&self, at: Duration) -> Vec<Duration> {
        (0..self.fleet())
            .map(|s| self.predicted_wait(s, at))
            .collect()
    }
}

/// One integer-EWMA step (see [`EWMA_DIV`]). A zero state adopts the
/// first sample outright so cold starts are not dragged toward zero.
fn ewma(state: u128, sample: u128) -> u128 {
    if state == 0 {
        sample
    } else {
        (state * (EWMA_DIV - 1) + sample) / EWMA_DIV
    }
}

/// Saturating `u128`-microseconds → `Duration`.
fn duration_from_us(us: u128) -> Duration {
    Duration::from_micros(u64::try_from(us).unwrap_or(u64::MAX))
}

/// Deficit round robin over tenants (surplus variant): every tenant
/// carries a signed service-time deficit; a tenant is served when its
/// deficit is non-negative, then charged the *actual* service time of
/// the grant, and every pass over the waiting set refills one quantum —
/// so a tenant that just burned a long grant waits out its overdraft
/// while cheaper tenants keep flowing, and nobody starves (each pass
/// strictly raises every waiting deficit).
#[derive(Debug, Clone)]
pub struct DrrScheduler {
    quantum_us: i128,
    deficit_us: Vec<i128>,
    /// Tenant id after the last served one — the ring scan starts here.
    cursor: usize,
}

impl DrrScheduler {
    /// A scheduler refilling `quantum` of service credit per pass
    /// (clamped to at least one microsecond so scans always terminate).
    pub fn new(quantum: Duration) -> DrrScheduler {
        DrrScheduler {
            quantum_us: i128::try_from(quantum.as_micros().max(1)).unwrap_or(i128::MAX),
            deficit_us: Vec::new(),
            cursor: 0,
        }
    }

    fn deficit_mut(&mut self, tenant: usize) -> &mut i128 {
        if tenant >= self.deficit_us.len() {
            self.deficit_us.resize(tenant + 1, 0);
        }
        &mut self.deficit_us[tenant]
    }

    /// Picks the next tenant to serve from `waiting` (any order;
    /// deduplicated ids). Scans the ring from the cursor: the first
    /// tenant with a non-negative deficit is served, skipped tenants
    /// earn one quantum per pass. Returns `None` only for an empty set.
    ///
    /// The passes are counted, not run: a tenant at ring position `p`
    /// with deficit `d` is first servable on pass `n = ceil(-d / q)`
    /// (0 when `d >= 0`), so the winner minimises `(n, p)`. Tenants
    /// ahead of it in the ring earn `n + 1` quanta, the rest `n` — the
    /// same picks and deficits as the pass-by-pass scan, in one sweep
    /// however deep the overdraft.
    pub fn pick(&mut self, waiting: &[usize]) -> Option<usize> {
        let mut ring: Vec<usize> = waiting.to_vec();
        ring.sort_unstable();
        ring.dedup();
        // Give every ring tenant a deficit slot.
        let last = *ring.last()?;
        self.deficit_mut(last);
        // Rotate so the scan starts at the first tenant >= cursor.
        let start = ring.partition_point(|&t| t < self.cursor);
        ring.rotate_left(start);
        let quantum = self.quantum_us.unsigned_abs();
        let passes = |deficit: i128| match deficit {
            d if d >= 0 => 0,
            d => d.unsigned_abs().div_ceil(quantum),
        };
        let (winner, n) = (ring.iter().enumerate())
            .map(|(p, &t)| (p, passes(self.deficit_us[t])))
            .min_by_key(|&(p, n)| (n, p))?;
        for (p, &tenant) in ring.iter().enumerate() {
            let refills = if p < winner { n + 1 } else { n };
            let credit = i128::try_from(refills.saturating_mul(quantum)).unwrap_or(i128::MAX);
            let deficit = &mut self.deficit_us[tenant];
            *deficit = deficit.saturating_add(credit);
        }
        self.cursor = ring[winner] + 1;
        Some(ring[winner])
    }

    /// The pass-by-pass scan [`DrrScheduler::pick`] counts instead of
    /// running: the reference its property test compares against.
    #[cfg(test)]
    fn pick_by_passes(&mut self, waiting: &[usize]) -> Option<usize> {
        if waiting.is_empty() {
            return None;
        }
        let mut ring: Vec<usize> = waiting.to_vec();
        ring.sort_unstable();
        ring.dedup();
        // Rotate so the scan starts at the first tenant >= cursor.
        let start = ring.partition_point(|&t| t < self.cursor);
        let quantum = self.quantum_us;
        loop {
            for i in 0..ring.len() {
                let tenant = ring[(start + i) % ring.len()];
                let deficit = self.deficit_mut(tenant);
                if *deficit >= 0 {
                    self.cursor = tenant + 1;
                    return Some(tenant);
                }
                *deficit = deficit.saturating_add(quantum);
            }
        }
    }

    /// Charges `tenant` the actual service time of the grant it just
    /// received.
    pub fn charge(&mut self, tenant: usize, cost: Duration) {
        let cost_us = i128::try_from(cost.as_micros()).unwrap_or(i128::MAX);
        let deficit = self.deficit_mut(tenant);
        *deficit = deficit.saturating_sub(cost_us);
    }
}

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)`, `1.0` for a perfectly even split, `1/n` when one
/// tenant holds everything. Degenerate inputs (empty, all-zero) read as
/// perfectly fair.
pub fn jain(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let squares: f64 = values.iter().map(|x| x * x).sum();
    if squares == 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * squares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn idle_fleet_predicts_zero_wait() {
        let balancer = Balancer::new(3);
        for s in 0..3 {
            assert_eq!(balancer.predicted_wait(s, Duration::ZERO), Duration::ZERO);
        }
        assert_eq!(balancer.outlook(MS(500)), vec![Duration::ZERO; 3]);
    }

    #[test]
    fn reservations_are_ground_truth() {
        let mut balancer = Balancer::new(2);
        // Server 0 is booked until t=100ms; a request at t=40ms waits at
        // least the remaining 60ms.
        balancer.note_grant(0, Duration::ZERO, MS(100), MS(100));
        assert_eq!(balancer.predicted_wait(0, MS(40)), MS(60));
        // Past the reservation the prediction decays to the wait EWMA
        // (zero here: the recorded grant never waited).
        assert_eq!(balancer.predicted_wait(0, MS(200)), Duration::ZERO);
        // The other server is untouched.
        assert_eq!(balancer.predicted_wait(1, MS(40)), Duration::ZERO);
    }

    #[test]
    fn wait_ewma_keeps_predicting_after_the_reservation_drains() {
        let mut balancer = Balancer::new(1);
        balancer.note_grant(0, MS(50), MS(10), MS(60));
        // The reservation expired, but recent grants waited 50ms — the
        // closed-loop signal keeps the prediction warm.
        assert_eq!(balancer.predicted_wait(0, MS(500)), MS(50));
        // Zero-wait grants decay it geometrically (integer EWMA).
        balancer.note_grant(0, Duration::ZERO, MS(10), MS(70));
        assert!(balancer.predicted_wait(0, MS(500)) < MS(50));
    }

    #[test]
    fn parked_queue_depth_prices_the_backlog() {
        let mut balancer = Balancer::new(1);
        balancer.note_grant(0, Duration::ZERO, MS(20), MS(20));
        balancer.set_queue_depth(0, 3);
        // 3 parked requests at the 20ms service EWMA.
        assert_eq!(balancer.predicted_wait(0, MS(100)), MS(60));
        balancer.set_queue_depth(0, 0);
        assert_eq!(balancer.predicted_wait(0, MS(100)), Duration::ZERO);
    }

    #[test]
    fn out_of_range_servers_are_inert() {
        let mut balancer = Balancer::new(1);
        balancer.note_grant(9, MS(1), MS(1), MS(1));
        balancer.set_queue_depth(9, 7);
        assert_eq!(balancer.predicted_wait(9, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn drr_round_robins_equal_tenants() {
        let mut drr = DrrScheduler::new(MS(5));
        let waiting = [0usize, 1, 2];
        let mut order = Vec::new();
        for _ in 0..6 {
            let t = drr.pick(&waiting).unwrap();
            drr.charge(t, MS(5));
            order.push(t);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn drr_throttles_a_chatty_tenant_proportionally() {
        // Tenant 0's grants cost 5x tenant 1's: fair share must grant
        // tenant 1 roughly 5x as often, and never starve either.
        let mut drr = DrrScheduler::new(MS(1));
        let waiting = [0usize, 1];
        let mut served = [0usize; 2];
        for _ in 0..60 {
            let t = drr.pick(&waiting).unwrap();
            drr.charge(t, if t == 0 { MS(5) } else { MS(1) });
            served[t] += 1;
        }
        assert!(served[0] >= 8, "heavy tenant starved: {served:?}");
        assert!(
            served[1] >= 3 * served[0],
            "light tenant not favored: {served:?}"
        );
    }

    #[test]
    fn drr_pick_is_deterministic_in_waiting_order() {
        let mut a = DrrScheduler::new(MS(2));
        let mut b = DrrScheduler::new(MS(2));
        assert_eq!(a.pick(&[2, 0, 1]), b.pick(&[0, 1, 2]));
        assert_eq!(a.pick(&[]), None);
    }

    #[test]
    fn counted_passes_pick_and_refill_like_the_scan() {
        let deficits = |drr: &DrrScheduler| -> Vec<i128> {
            (0..8)
                .map(|t| drr.deficit_us.get(t).copied().unwrap_or(0))
                .collect()
        };
        for seed in 0..200u64 {
            let mut rng = snapedge_rng::Rng::seed_from_u64(seed);
            let quantum = Duration::from_micros(rng.gen_range_u64(1, 10_000));
            let mut counted = DrrScheduler::new(quantum);
            let mut scanned = DrrScheduler::new(quantum);
            for step in 0..200 {
                let tenant = rng.gen_range_usize(0, 8);
                if rng.next_bool() {
                    let cost = Duration::from_micros(rng.gen_range_u64(0, 200_000));
                    counted.charge(tenant, cost);
                    scanned.charge(tenant, cost);
                } else {
                    let waiting: Vec<usize> = (0..rng.gen_range_usize(0, 6))
                        .map(|_| rng.gen_range_usize(0, 8))
                        .collect();
                    let picked = counted.pick(&waiting);
                    assert_eq!(
                        picked,
                        scanned.pick_by_passes(&waiting),
                        "seed {seed} step {step}"
                    );
                }
                assert_eq!(
                    deficits(&counted),
                    deficits(&scanned),
                    "seed {seed} step {step}"
                );
                assert_eq!(counted.cursor, scanned.cursor, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn pick_returns_promptly_after_a_maximal_charge() {
        let mut drr = DrrScheduler::new(DEFAULT_DRR_QUANTUM);
        drr.charge(0, Duration::MAX);
        assert_eq!(drr.pick(&[0, 1]), Some(1));
        // Alone in the ring, tenant 0 is served once its ~3.7e21 passes
        // of credit repay the overdraft.
        assert_eq!(drr.pick(&[0]), Some(0));
        assert!((0..drr.quantum_us).contains(&drr.deficit_us[0]));
    }

    #[test]
    fn jain_brackets_even_and_monopolized_splits() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        let monopoly = jain(&[9.0, 0.0, 0.0]);
        assert!((monopoly - 1.0 / 3.0).abs() < 1e-12);
        let skewed = jain(&[4.0, 1.0, 1.0]);
        assert!(monopoly < skewed && skewed < 1.0);
    }
}
