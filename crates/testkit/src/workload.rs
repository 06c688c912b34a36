//! Trace-driven workload generators.
//!
//! The fuzzer's uniform random churn ([`Scenario::generate`]) is a
//! good bug-finder but a poor performance workload: real group
//! membership follows diurnal curves, flash crowds at pay-per-view
//! boundaries, mobile flap, and regionally correlated loss — and the
//! retrieved optimal-tree and batch-insertion papers show scheme
//! rankings flip under exactly these non-uniform dynamics. This module
//! adds a [`Workload`] trait — a named, seed-deterministic generator of
//! interval-by-interval churn — and six implementations:
//!
//! - [`Uniform`] — byte-identical to [`Scenario::generate`], the
//!   fuzzer's behaviour, kept as the baseline;
//! - [`Diurnal`] — sinusoidal join/leave rates with configurable
//!   period and amplitude (daily audience curve);
//! - [`FlashCrowd`] — a mass-join ramp into a plateau followed by a
//!   mass departure (pay-per-view start/end);
//! - [`MobileFlap`] — short-lived rejoin-heavy sessions: flappy
//!   members leave after 1–3 intervals and usually rejoin at once;
//! - [`RegionalLoss`] — correlated loss-class shifts over member
//!   cohorts (a region degrades and later recovers as one event);
//! - [`Paper`] — the paper's own §3.3.1 process: Poisson arrivals,
//!   two exponential duration classes mixed by `α`, batch rekeying
//!   every `Tp` (the workload `rekey simulate` and the model
//!   cross-validation run).
//!
//! Every workload **compiles down to the existing [`Scenario`]**
//! representation, so the shadow [`KnowledgeOracle`], the
//! [`MemberFarm`], the shrinker, and the trace codec all work
//! unchanged; [`crate::trace::Trace`] wraps the compiled scenario with
//! the generator name in a replayable file format.
//!
//! [`KnowledgeOracle`]: crate::oracle::KnowledgeOracle
//! [`MemberFarm`]: crate::farm::MemberFarm

use crate::events::Departures;
use crate::scenario::{GenParams, IntervalOps, JoinOp, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_analytic::partition::PartitionParams;
use rekey_core::DurationClass;
use std::f64::consts::PI;

/// Live group bookkeeping handed to [`Workload::interval`].
///
/// The helpers guarantee the compiled scenario is valid by
/// construction: join ids are fresh, leaves only remove members that
/// were present *before* the interval (never same-interval joiners, so
/// [`Scenario::sanitize`] is a no-op on compiled output), and loss
/// changes only reference members present after the interval's ops.
#[derive(Debug)]
pub struct GroupState {
    /// Members present after all ops emitted so far (joins included).
    present: Vec<u64>,
    /// Members still eligible to leave this interval: present at the
    /// interval start and not yet departed this interval.
    eligible: Vec<u64>,
    next_id: u64,
    classes: Vec<f64>,
}

impl GroupState {
    fn new(params: &GenParams) -> Self {
        GroupState {
            present: Vec::new(),
            eligible: Vec::new(),
            next_id: 0,
            classes: if params.loss_classes.is_empty() {
                vec![0.0]
            } else {
                params.loss_classes.clone()
            },
        }
    }

    /// Snapshot the leave-eligible set for a fresh interval.
    fn begin_interval(&mut self) {
        self.eligible.clear();
        self.eligible.extend_from_slice(&self.present);
    }

    /// Members present right now (start-of-interval membership plus
    /// joins emitted so far, minus leaves emitted so far).
    pub fn present(&self) -> &[u64] {
        &self.present
    }

    /// Members that may still leave this interval.
    pub fn leavable(&self) -> usize {
        self.eligible.len()
    }

    /// A loss rate drawn from the configured loss classes.
    pub fn pick_loss(&self, rng: &mut StdRng) -> f64 {
        self.classes[rng.gen_range(0..self.classes.len())]
    }

    /// Admits a fresh member with a random duration-class hint and a
    /// loss rate drawn from the configured classes.
    pub fn join(&mut self, rng: &mut StdRng) -> JoinOp {
        let loss = self.pick_loss(rng);
        let class = match rng.gen_range(0u32..3) {
            0 => None,
            1 => Some(DurationClass::Short),
            _ => Some(DurationClass::Long),
        };
        self.join_with(class, loss)
    }

    /// Admits a fresh member with an explicit hint and loss rate.
    pub fn join_with(&mut self, class: Option<DurationClass>, loss: f64) -> JoinOp {
        let member = self.next_id;
        self.next_id += 1;
        self.present.push(member);
        JoinOp {
            member,
            class,
            loss,
        }
    }

    /// Departs a uniformly random eligible member, if any.
    pub fn leave_random(&mut self, rng: &mut StdRng) -> Option<u64> {
        if self.eligible.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.eligible.len());
        let member = self.eligible.swap_remove(idx);
        self.present.retain(|&m| m != member);
        Some(member)
    }

    /// Departs a specific member. Returns `false` (and emits nothing)
    /// if the member is not eligible — already departed, or joined
    /// only this interval.
    pub fn leave_member(&mut self, member: u64) -> bool {
        let Some(idx) = self.eligible.iter().position(|&m| m == member) else {
            return false;
        };
        self.eligible.swap_remove(idx);
        self.present.retain(|&m| m != member);
        true
    }

    /// A uniformly random currently-present member, if any.
    pub fn pick_present(&self, rng: &mut StdRng) -> Option<u64> {
        if self.present.is_empty() {
            None
        } else {
            Some(self.present[rng.gen_range(0..self.present.len())])
        }
    }
}

/// Stochastic rounding: `floor(x)` plus one with probability
/// `fract(x)` — preserves fractional rates without bias.
fn round_rate(x: f64, rng: &mut StdRng) -> usize {
    let base = x.max(0.0);
    let floor = base.floor();
    let extra = usize::from(rng.gen::<f64>() < base - floor);
    floor as usize + extra
}

/// A named, seed-deterministic churn generator.
///
/// Implementations emit one [`IntervalOps`] per churn interval through
/// [`Workload::interval`]; [`Workload::compile`] drives the bootstrap
/// and interval loop and assembles the final [`Scenario`]. The same
/// `(seed, intervals, params)` triple always compiles to a
/// byte-identical scenario.
pub trait Workload {
    /// Command-line name of the generator.
    fn name(&self) -> &'static str;

    /// Members admitted in the bootstrap interval.
    fn bootstrap(&self, params: &GenParams) -> usize {
        params.bootstrap
    }

    /// Emits the ops of churn interval `t` (`1..=total`; the bootstrap
    /// is interval 0 and handled by [`Workload::compile`]). All joins
    /// and leaves must go through the [`GroupState`] helpers so the
    /// compiled scenario stays valid by construction.
    fn interval(
        &mut self,
        t: usize,
        total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps;

    /// Compiles the workload into a replayable [`Scenario`]. The
    /// default drives [`Workload::interval`] over a name-salted RNG;
    /// [`Uniform`] overrides it to delegate to [`Scenario::generate`]
    /// byte-identically.
    fn compile(&mut self, seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ name_salt(self.name()));
        let mut group = GroupState::new(params);
        let mut out: Vec<IntervalOps> = Vec::with_capacity(intervals + 1);

        group.begin_interval();
        let bootstrap = self.bootstrap(params);
        out.push(IntervalOps {
            joins: (0..bootstrap).map(|_| group.join(&mut rng)).collect(),
            ..IntervalOps::default()
        });

        for t in 1..=intervals {
            group.begin_interval();
            let mut ops = self.interval(t, intervals, &mut group, &mut rng);
            ops.leaves.sort_unstable();
            out.push(ops);
        }

        Scenario {
            seed,
            degree: params.degree,
            k: params.k,
            intervals: out,
        }
    }
}

/// FNV-1a of the generator name: distinct workloads with the same seed
/// draw from distinct RNG streams.
fn name_salt(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The fuzzer's uniform random churn, unchanged: compiles
/// byte-identically to [`Scenario::generate`].
#[derive(Debug, Clone, Default)]
pub struct Uniform;

impl Workload for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn interval(&mut self, _: usize, _: usize, _: &mut GroupState, _: &mut StdRng) -> IntervalOps {
        unreachable!("Uniform overrides compile()")
    }

    fn compile(&mut self, seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        Scenario::generate(seed, intervals, params)
    }
}

/// Sinusoidal join/leave rates: the daily audience curve. Joins peak
/// at the crest, leaves peak a quarter period later.
#[derive(Debug, Clone)]
pub struct Diurnal {
    /// Intervals per full day cycle.
    pub period: usize,
    /// Modulation depth in `[0, 1]`: 0 = flat, 1 = rate swings to 0.
    pub amplitude: f64,
    /// Mean joins per interval at the curve midpoint.
    pub base_joins: f64,
    /// Fraction of the group leaving per interval at the midpoint.
    pub leave_frac: f64,
}

impl Default for Diurnal {
    fn default() -> Self {
        Diurnal {
            period: 24,
            amplitude: 0.8,
            base_joins: 3.0,
            leave_frac: 0.05,
        }
    }
}

impl Workload for Diurnal {
    fn name(&self) -> &'static str {
        "diurnal"
    }

    fn interval(
        &mut self,
        t: usize,
        _total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();
        let phase = 2.0 * PI * t as f64 / self.period.max(1) as f64;
        let join_rate = self.base_joins * (1.0 + self.amplitude * phase.sin());
        // Departures trail arrivals by a quarter period: the audience
        // drains after the peak, not during it.
        let leave_rate = group.leavable() as f64
            * self.leave_frac
            * (1.0 + self.amplitude * (phase - PI / 2.0).sin());

        for _ in 0..round_rate(leave_rate, rng) {
            if let Some(m) = group.leave_random(rng) {
                ops.leaves.push(m);
            }
        }
        for _ in 0..round_rate(join_rate, rng) {
            ops.joins.push(group.join(rng));
        }
        if rng.gen::<f64>() < 0.1 {
            if let Some(m) = group.pick_present(rng) {
                ops.loss_changes.push((m, group.pick_loss(rng)));
            }
        }
        ops
    }
}

/// Pay-per-view dynamics: background churn, then a mass-join ramp to a
/// plateau, then a mass departure of the crowd.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Total members joining during the ramp.
    pub crowd_size: usize,
    /// Fraction of the run before the ramp starts.
    pub ramp_start: f64,
    /// Fraction of the run the ramp lasts.
    pub ramp_len: f64,
    /// Fraction of the run the plateau lasts (drain follows).
    pub plateau_len: f64,
    /// Fraction of the remaining crowd leaving per drain interval.
    pub drain_frac: f64,
    /// Crowd members joined during the ramp, not yet departed.
    crowd: Vec<u64>,
}

impl Default for FlashCrowd {
    fn default() -> Self {
        FlashCrowd {
            crowd_size: 192,
            ramp_start: 0.25,
            ramp_len: 0.15,
            plateau_len: 0.35,
            drain_frac: 0.4,
            crowd: Vec::new(),
        }
    }
}

impl Workload for FlashCrowd {
    fn name(&self) -> &'static str {
        "flash-crowd"
    }

    fn interval(
        &mut self,
        t: usize,
        total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();
        let frac = t as f64 / total.max(1) as f64;
        let ramp_end = self.ramp_start + self.ramp_len;
        let drain_start = ramp_end + self.plateau_len;

        if frac < self.ramp_start || frac >= drain_start {
            // Background churn (and the post-drain cooldown).
            for _ in 0..rng.gen_range(0u32..3) {
                ops.joins.push(group.join(rng));
            }
            if rng.gen::<f64>() < 0.3 {
                if let Some(m) = group.leave_random(rng) {
                    self.crowd.retain(|&c| c != m);
                    ops.leaves.push(m);
                }
            }
        } else if frac < ramp_end {
            // Ramp: the crowd arrives in equal per-interval slices
            // (±ramp jitter), mostly short sessions with mixed loss.
            let ramp_intervals = (self.ramp_len * total as f64).ceil().max(1.0);
            let slice = self.crowd_size as f64 / ramp_intervals;
            for _ in 0..round_rate(slice * rng.gen_range(0.8..1.2), rng) {
                let loss = group.pick_loss(rng);
                let join = group.join_with(Some(DurationClass::Short), loss);
                self.crowd.push(join.member);
                ops.joins.push(join);
            }
        } else {
            // Plateau: near-silent, the occasional zapper.
            if rng.gen::<f64>() < 0.2 {
                ops.joins.push(group.join(rng));
            }
            if rng.gen::<f64>() < 0.1 {
                if let Some(m) = group.leave_random(rng) {
                    self.crowd.retain(|&c| c != m);
                    ops.leaves.push(m);
                }
            }
        }

        if frac >= drain_start && !self.crowd.is_empty() {
            // Mass departure: a large slice of the remaining crowd
            // leaves every interval until it is gone.
            let n = round_rate(self.crowd.len() as f64 * self.drain_frac, rng).max(1);
            for _ in 0..n.min(self.crowd.len()) {
                let idx = rng.gen_range(0..self.crowd.len());
                let member = self.crowd.swap_remove(idx);
                if group.leave_member(member) {
                    ops.leaves.push(member);
                }
            }
        }
        ops
    }
}

/// Short-lived rejoin-heavy sessions: each arrival is flappy with some
/// probability, leaves after 1–3 intervals, and usually rejoins in the
/// same interval it left (as a fresh member id — ids are never reused
/// within a scenario, so a flap shows up as leave + join).
#[derive(Debug, Clone)]
pub struct MobileFlap {
    /// Probability an arrival is flappy (short session + rejoin).
    pub flap_prob: f64,
    /// Probability a flappy session ending triggers an immediate
    /// rejoin.
    pub rejoin_prob: f64,
    /// Mean fresh arrivals per interval.
    pub arrivals: f64,
    /// Flappy sessions in flight: `(member, leave_at_interval)`.
    sessions: Vec<(u64, usize)>,
}

impl Default for MobileFlap {
    fn default() -> Self {
        MobileFlap {
            flap_prob: 0.6,
            rejoin_prob: 0.8,
            arrivals: 4.0,
            sessions: Vec::new(),
        }
    }
}

impl MobileFlap {
    fn admit_flappy(&mut self, t: usize, group: &mut GroupState, rng: &mut StdRng) -> JoinOp {
        let loss = group.pick_loss(rng);
        let join = group.join_with(Some(DurationClass::Short), loss);
        self.sessions.push((join.member, t + rng.gen_range(1..4)));
        join
    }
}

impl Workload for MobileFlap {
    fn name(&self) -> &'static str {
        "mobile-flap"
    }

    fn interval(
        &mut self,
        t: usize,
        _total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();

        // Expire due flappy sessions; most rejoin immediately.
        let due: Vec<u64> = self
            .sessions
            .iter()
            .filter(|&&(_, end)| end <= t)
            .map(|&(m, _)| m)
            .collect();
        self.sessions.retain(|&(_, end)| end > t);
        for member in due {
            if group.leave_member(member) {
                ops.leaves.push(member);
                if rng.gen::<f64>() < self.rejoin_prob {
                    ops.joins.push(self.admit_flappy(t, group, rng));
                }
            }
        }

        // Fresh arrivals, each flappy with `flap_prob`.
        for _ in 0..round_rate(self.arrivals * rng.gen_range(0.5..1.5), rng) {
            if rng.gen::<f64>() < self.flap_prob {
                ops.joins.push(self.admit_flappy(t, group, rng));
            } else {
                ops.joins.push(group.join(rng));
            }
        }

        // Stable members trickle out too.
        if rng.gen::<f64>() < 0.15 {
            if let Some(m) = group.leave_random(rng) {
                self.sessions.retain(|&(s, _)| s != m);
                ops.leaves.push(m);
            }
        }
        ops
    }
}

/// Correlated loss-class shifts over member cohorts: members belong to
/// a region (`id % regions`); a region degrades as one event — every
/// present member of the cohort shifts to the degraded loss class in
/// the same interval — and later recovers the same way.
#[derive(Debug, Clone)]
pub struct RegionalLoss {
    /// Number of regions members are hashed into.
    pub regions: u64,
    /// Per-interval probability that some healthy region degrades.
    pub event_prob: f64,
    /// Per-interval probability that some degraded region recovers.
    pub recover_prob: f64,
    /// Loss rate of a degraded region.
    pub degraded_loss: f64,
    /// Loss rate regions recover to.
    pub healthy_loss: f64,
    /// Degraded regions.
    down: Vec<u64>,
}

impl Default for RegionalLoss {
    fn default() -> Self {
        RegionalLoss {
            regions: 4,
            event_prob: 0.15,
            recover_prob: 0.4,
            degraded_loss: 0.25,
            healthy_loss: 0.02,
            down: Vec::new(),
        }
    }
}

impl RegionalLoss {
    /// Shifts every present member of `region` to `loss`.
    fn shift_cohort(&self, region: u64, loss: f64, group: &GroupState, ops: &mut IntervalOps) {
        for &m in group.present() {
            if m % self.regions == region {
                ops.loss_changes.push((m, loss));
            }
        }
    }
}

impl Workload for RegionalLoss {
    fn name(&self) -> &'static str {
        "regional-loss"
    }

    fn interval(
        &mut self,
        _t: usize,
        _total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();

        // Background churn keeps the cohorts evolving.
        if rng.gen::<f64>() < 0.5 {
            if let Some(m) = group.leave_random(rng) {
                ops.leaves.push(m);
            }
        }
        for _ in 0..rng.gen_range(1u32..4) {
            ops.joins.push(group.join(rng));
        }

        // Region recovery first (a region cannot flap within one
        // interval), then degradation of a healthy region.
        if !self.down.is_empty() && rng.gen::<f64>() < self.recover_prob {
            let region = self.down.swap_remove(rng.gen_range(0..self.down.len()));
            self.shift_cohort(region, self.healthy_loss, group, &mut ops);
        }
        let healthy: Vec<u64> = (0..self.regions)
            .filter(|r| !self.down.contains(r))
            .collect();
        if !healthy.is_empty() && rng.gen::<f64>() < self.event_prob {
            let region = healthy[rng.gen_range(0..healthy.len())];
            self.down.push(region);
            self.shift_cohort(region, self.degraded_loss, group, &mut ops);
        }
        ops
    }
}

/// The two-class membership process of §3.3.1 (\[AA97\]'s MBone
/// behaviour), the workload the paper's model is fitted to.
///
/// The group starts at its steady state: [`GenParams::bootstrap`]
/// members drawn from the stationary class mix, each with an
/// exponential residual lifetime (memorylessness). Joins then arrive
/// as a Poisson process at the model's rate `J` per rekey interval,
/// each joiner short-lived with probability `alpha` and staying for
/// an exponential duration of its class. Arrivals that leave within
/// their arrival interval are counted ([`Paper::transients`]) but
/// never admitted, as under periodic batch rekeying. Every join
/// carries its true duration class (only the oracle PT-scheme reads
/// it) and a loss rate of 0.
#[derive(Debug, Clone)]
pub struct Paper {
    /// Fraction of short-lived arrivals (`α`).
    pub alpha: f64,
    /// Mean short duration `Ms`, in seconds.
    pub mean_short: f64,
    /// Mean long duration `Ml`, in seconds.
    pub mean_long: f64,
    /// Rekey interval `Tp`, in seconds.
    pub rekey_period: f64,
    /// Arrivals of the last compile that were never admitted.
    transient: usize,
}

impl Default for Paper {
    /// The Table 1 parameters.
    fn default() -> Self {
        let table1 = PartitionParams::paper_default();
        Paper {
            alpha: table1.alpha,
            mean_short: table1.mean_short,
            mean_long: table1.mean_long,
            rekey_period: table1.rekey_period,
            transient: 0,
        }
    }
}

impl Paper {
    /// The steady-state join count per rekey interval (`J`) of a
    /// group of `group_size` members.
    pub fn joins_per_interval(&self, group_size: usize) -> f64 {
        self.model(group_size).steady_state().joins_per_period
    }

    /// Arrivals in the last compiled scenario that joined and left
    /// within one interval.
    pub fn transients(&self) -> usize {
        self.transient
    }

    fn model(&self, group_size: usize) -> PartitionParams {
        PartitionParams {
            group_size: group_size.max(2) as u64,
            degree: 4, // irrelevant for the queueing solution
            rekey_period: self.rekey_period,
            k: 1,
            mean_short: self.mean_short,
            mean_long: self.mean_long,
            alpha: self.alpha,
        }
    }

    fn draw(&self, short_prob: f64, rng: &mut StdRng) -> (DurationClass, f64) {
        let (class, mean) = if rng.gen::<f64>() < short_prob {
            (DurationClass::Short, self.mean_short)
        } else {
            (DurationClass::Long, self.mean_long)
        };
        (class, exponential(rng, mean))
    }
}

/// Samples an exponential with the given mean.
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

impl Workload for Paper {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn interval(&mut self, _: usize, _: usize, _: &mut GroupState, _: &mut StdRng) -> IntervalOps {
        unreachable!("Paper overrides compile()")
    }

    fn compile(&mut self, seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        assert!((0.0..=1.0).contains(&self.alpha), "alpha out of range");
        assert!(self.mean_short > 0.0 && self.mean_long > 0.0);
        assert!(self.rekey_period > 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ name_salt(self.name()));
        let steady = self.model(params.bootstrap).steady_state();
        let mean_gap = self.rekey_period / steady.joins_per_period.max(1e-12);
        let mut departures = Departures::default();
        let mut next_id = 0u64;
        let mut admit = |class, leaves_at, departures: &mut Departures| {
            let member = next_id;
            next_id += 1;
            departures.schedule(leaves_at, member);
            JoinOp {
                member,
                class: Some(class),
                loss: 0.0,
            }
        };

        // The stationary class mix of the *population* (not of joins):
        // long-lived members accumulate, so their share exceeds 1 - α.
        let short_share = steady.n_cs / (steady.n_cs + steady.n_cl);
        let bootstrap = (0..params.bootstrap)
            .map(|_| {
                let (class, residual) = self.draw(short_share, &mut rng);
                admit(class, residual, &mut departures)
            })
            .collect();
        let mut out = Vec::with_capacity(intervals + 1);
        out.push(IntervalOps {
            joins: bootstrap,
            ..IntervalOps::default()
        });

        self.transient = 0;
        let mut now = 0.0;
        for _ in 0..intervals {
            let end = now + self.rekey_period;
            let mut ops = IntervalOps::default();
            let mut t = now + exponential(&mut rng, mean_gap);
            while t <= end {
                let (class, duration) = self.draw(self.alpha, &mut rng);
                if t + duration <= end {
                    self.transient += 1;
                } else {
                    ops.joins.push(admit(class, t + duration, &mut departures));
                }
                t += exponential(&mut rng, mean_gap);
            }
            ops.leaves.extend(departures.pop_until(end));
            ops.leaves.sort_unstable();
            out.push(ops);
            now = end;
        }

        Scenario {
            seed,
            degree: params.degree,
            k: params.k,
            intervals: out,
        }
    }
}

/// Every named workload generator, in the canonical sweep order.
pub const WORKLOAD_NAMES: [&str; 6] = [
    "uniform",
    "diurnal",
    "flash-crowd",
    "mobile-flap",
    "regional-loss",
    "paper",
];

/// Constructs the named generator with its default tuning, or `None`
/// for an unknown name.
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "uniform" => Some(Box::new(Uniform)),
        "diurnal" => Some(Box::new(Diurnal::default())),
        "flash-crowd" => Some(Box::new(FlashCrowd::default())),
        "mobile-flap" => Some(Box::new(MobileFlap::default())),
        "regional-loss" => Some(Box::new(RegionalLoss::default())),
        "paper" => Some(Box::new(Paper::default())),
        _ => None,
    }
}

/// All named generators with default tuning, in [`WORKLOAD_NAMES`]
/// order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    WORKLOAD_NAMES
        .iter()
        .map(|name| workload_by_name(name).expect("registered name"))
        .collect()
}

/// The per-workload members gauge name (recorded every interval of an
/// observed run), e.g. `workload.flash_crowd.members`. A replayed
/// trace names its generator in file input, so unknown names share
/// the `workload.other.*` series instead of minting new ones.
pub fn members_gauge(workload: &str) -> &'static str {
    workload_metric(workload, "members")
}

/// The per-workload multicast-bytes counter name.
pub fn bytes_counter(workload: &str) -> &'static str {
    workload_metric(workload, "bytes")
}

fn workload_metric(workload: &str, series: &str) -> &'static str {
    let stem = if WORKLOAD_NAMES.contains(&workload) {
        workload.replace('-', "_")
    } else {
        "other".to_string()
    };
    rekey_obs::intern(&format!("workload.{stem}.{series}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_the_fuzzer_generator() {
        let params = GenParams::default();
        let compiled = Uniform.compile(42, 30, &params);
        let direct = Scenario::generate(42, 30, &params);
        assert_eq!(compiled, direct);
        assert_eq!(compiled.encode(), direct.encode());
    }

    #[test]
    fn all_generators_compile_valid_scenarios() {
        let params = GenParams::default();
        for mut workload in all_workloads() {
            let scenario = workload.compile(7, 60, &params);
            let mut sanitized = scenario.clone();
            sanitized.sanitize();
            assert_eq!(
                scenario,
                sanitized,
                "{}: compiled an op sanitize() had to repair",
                workload.name()
            );
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{}: compiled invalid scenario: {e}", workload.name()));
            assert_eq!(scenario.intervals.len(), 61);
        }
    }

    #[test]
    fn generators_draw_distinct_streams_per_name() {
        let params = GenParams::default();
        let diurnal = Diurnal::default().compile(9, 40, &params);
        let flap = MobileFlap::default().compile(9, 40, &params);
        assert_ne!(diurnal.encode(), flap.encode());
    }

    #[test]
    fn flash_crowd_peaks_then_drains() {
        let params = GenParams::default();
        let scenario = FlashCrowd::default().compile(3, 100, &params);
        let mut present = 0i64;
        let mut sizes = Vec::new();
        for iv in &scenario.intervals {
            present += iv.joins.len() as i64 - iv.leaves.len() as i64;
            sizes.push(present);
        }
        let peak = *sizes.iter().max().unwrap();
        let end = *sizes.last().unwrap();
        assert!(
            peak >= end + 100,
            "no crowd: peak {peak} vs end {end} (expected a mass join + mass leave)"
        );
    }

    #[test]
    fn mobile_flap_is_rejoin_heavy() {
        let params = GenParams::default();
        let scenario = MobileFlap::default().compile(4, 80, &params);
        // Plenty of intervals where a leave and a join land together —
        // the flap signature.
        let flappy = scenario
            .intervals
            .iter()
            .filter(|iv| !iv.leaves.is_empty() && !iv.joins.is_empty())
            .count();
        assert!(flappy >= 20, "only {flappy} flap intervals");
    }

    #[test]
    fn regional_loss_shifts_whole_cohorts() {
        let params = GenParams::default();
        let workload = RegionalLoss::default();
        let regions = workload.regions;
        let scenario = { workload }.compile(5, 80, &params);
        // Find a degradation event and check the cohort moved as one:
        // every loss change of that interval names the same region.
        let mut saw_event = false;
        for iv in &scenario.intervals {
            if iv.loss_changes.len() >= 3 {
                let region = iv.loss_changes[0].0 % regions;
                let same_loss = iv.loss_changes[0].1;
                if iv
                    .loss_changes
                    .iter()
                    .all(|&(m, l)| m % regions == region && l == same_loss)
                {
                    saw_event = true;
                    break;
                }
            }
        }
        assert!(saw_event, "no correlated cohort shift found");
    }

    #[test]
    fn registry_is_complete() {
        for name in WORKLOAD_NAMES {
            let workload = workload_by_name(name).expect("registered");
            assert_eq!(workload.name(), name);
            let stem = name.replace('-', "_");
            assert_eq!(members_gauge(name), format!("workload.{stem}.members"));
            assert_eq!(bytes_counter(name), format!("workload.{stem}.bytes"));
            // Interned: asking again hands back the same string.
            assert!(std::ptr::eq(members_gauge(name), members_gauge(name)));
        }
        assert_eq!(members_gauge("flash-crowd"), "workload.flash_crowd.members");
        assert_eq!(members_gauge("nope"), "workload.other.members");
        assert_eq!(bytes_counter("nope"), "workload.other.bytes");
        assert!(workload_by_name("nope").is_none());
        assert_eq!(all_workloads().len(), WORKLOAD_NAMES.len());
    }

    fn paper(members: usize, seed: u64, intervals: usize) -> (Paper, Scenario) {
        let params = GenParams {
            bootstrap: members,
            ..GenParams::default()
        };
        let mut workload = Paper::default();
        let scenario = workload.compile(seed, intervals, &params);
        (workload, scenario)
    }

    /// Joins and leaves of the churn intervals (the bootstrap excluded).
    fn churn_counts(scenario: &Scenario) -> (usize, usize) {
        scenario.intervals[1..].iter().fold((0, 0), |(j, l), iv| {
            (j + iv.joins.len(), l + iv.leaves.len())
        })
    }

    #[test]
    fn paper_population_stays_near_target() {
        let (_, scenario) = paper(1000, 1, 100);
        let (joins, leaves) = churn_counts(&scenario);
        let population = (1000 + joins - leaves) as f64;
        assert!(
            (700.0..1300.0).contains(&population),
            "population {population} drifted from target 1000"
        );
    }

    #[test]
    fn paper_join_rate_matches_model() {
        let intervals = 200;
        let (workload, scenario) = paper(1000, 2, intervals);
        let expected = workload.joins_per_interval(1000);
        let (joins, _) = churn_counts(&scenario);
        assert!(workload.transients() > 0, "no same-interval arrivals");
        let measured = (joins + workload.transients()) as f64 / intervals as f64;
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "measured J {measured} vs model {expected}"
        );
    }

    #[test]
    fn paper_leave_rate_balances_join_rate() {
        let (_, scenario) = paper(1000, 3, 300);
        let (joins, leaves) = churn_counts(&scenario);
        let ratio = leaves as f64 / joins as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "leave/join ratio {ratio} not balanced"
        );
    }

    #[test]
    fn paper_class_mix_matches_alpha() {
        let (_, scenario) = paper(1000, 4, 200);
        let classes: Vec<_> = scenario.intervals[1..]
            .iter()
            .flat_map(|iv| iv.joins.iter().map(|j| j.class))
            .collect();
        assert!(
            classes.iter().all(Option::is_some),
            "a join lacks its class"
        );
        let short = classes
            .iter()
            .filter(|&&c| c == Some(DurationClass::Short))
            .count();
        let frac = short as f64 / classes.len() as f64;
        assert!((frac - 0.8).abs() < 0.05, "short fraction {frac}");
    }

    #[test]
    fn paper_ids_are_unique() {
        let (_, scenario) = paper(1000, 6, 50);
        let mut seen = std::collections::HashSet::new();
        for iv in &scenario.intervals {
            for join in &iv.joins {
                assert!(seen.insert(join.member), "duplicate id {}", join.member);
            }
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 42.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 42.0).abs() < 1.0, "mean {mean}");
    }
}
