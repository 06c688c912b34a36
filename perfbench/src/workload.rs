//! Seeded membership generators for the three benchmark workloads.
//!
//! The generators live here, not in the program, so that a change to
//! the program's own workload library cannot silently shift the
//! baseline. They draw from their own [`Rng`] and hand the program only
//! `Join` and `MemberId` lists. Every batch is folded into an FNV-1a
//! input digest, so two runs can show that they fed identical inputs.

use rekey_core::{Join, Scheme};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The two probe members: admitted at bootstrap, they never leave.
pub const PROBES: [MemberId; 2] = [MemberId(0), MemberId(1)];

/// The membership process a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's Table-1 process in steady state.
    Steady,
    /// A static base group and repeated flash crowds.
    Crowd,
    /// A few members flapping out and back in every epoch.
    Flap,
}

/// One workload: what the key server runs and how its inputs are made.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub scheme: Scheme,
    pub degree: usize,
    /// S-period in rekey intervals (ignored by the one-tree scheme).
    pub k: u64,
    /// Epochs after the bootstrap epoch that belong to set-up.
    pub warmup_epochs: usize,
    /// Timed epochs per second of `--seconds`: the workload's epoch
    /// rate on the reference host, so that a run measures a fixed
    /// amount of work that takes about `--seconds` there.
    pub epochs_per_second: f64,
    /// Timed epochs come in whole cycles of this many epochs.
    pub cycle: usize,
}

pub const PAPER_STEADY: Spec = Spec {
    name: "paper-steady",
    shape: Shape::Steady,
    why: "the paper's Table-1 membership process on 16 384 members under TT \
          (d=4, K=10): key refresh in core, keytree and crypto dominates the \
          epoch",
    scheme: Scheme::Tt,
    degree: 4,
    k: 10,
    warmup_epochs: 10,
    epochs_per_second: 22.0,
    cycle: 1,
};

pub const FLASH_CROWD: Spec = Spec {
    name: "flash-crowd",
    shape: Shape::Crowd,
    why: "repeated mass pure-join ramps, bulk S-to-L migrations and \
          pure-leave drains under TT (d=4, K=10): the keytree layer under \
          tree growth and shrinkage",
    scheme: Scheme::Tt,
    degree: 4,
    k: 10,
    warmup_epochs: 10,
    epochs_per_second: 10.0,
    cycle: CROWD_CYCLE,
};

pub const SMALL_FLAP: Spec = Spec {
    name: "small-flap",
    shape: Shape::Flap,
    why: "one d=4 tree of 256 members with 1-2 leave-and-rejoin flaps per \
          epoch: tiny messages, so WAL fsync, snapshots and frame fan-out \
          dominate",
    scheme: Scheme::OneTree,
    degree: 4,
    k: 1,
    warmup_epochs: 16,
    epochs_per_second: 1400.0,
    cycle: 1,
};

pub const ALL: [Spec; 3] = [PAPER_STEADY, FLASH_CROWD, SMALL_FLAP];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    ALL.into_iter().find(|spec| spec.name == name)
}

/// One rekey interval's membership batch.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub joins: Vec<Join>,
    pub leaves: Vec<MemberId>,
}

/// xoshiro256** seeded through SplitMix64: small, fast, and owned by
/// the benchmark, so its stream never changes under the program.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn key(&mut self) -> Key {
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        Key::from_bytes(bytes)
    }
}

/// The individual key of probe `member` (probes register it with the
/// daemon before their handshake).
pub fn probe_key(seed: u64, member: MemberId) -> Key {
    Rng::new(seed ^ 0x70_726f_6265 ^ member.0.rotate_left(32)).key()
}

/// A workload's input stream: call [`Workload::next_batch`] once per
/// epoch; the first batch is the bootstrap.
pub struct Workload {
    seed: u64,
    epoch: u64,
    digest: u64,
    source: Source,
    generator: Generator,
}

/// Fresh member identities and keys.
struct Source {
    rng: Rng,
    next_id: u64,
}

impl Source {
    fn member(&mut self) -> (MemberId, Key) {
        let id = MemberId(self.next_id);
        self.next_id += 1;
        (id, self.rng.key())
    }
}

enum Generator {
    Steady(Steady),
    Crowd(Crowd),
    Flap(Flap),
}

// Table 1 of the paper, scaled to a 16 384-member group.
const STEADY_MEMBERS: usize = 16_384;
const PERIOD_MS: u64 = 60_000;
const ALPHA: f64 = 0.8;
const MEAN_SHORT_S: f64 = 180.0;
const MEAN_LONG_S: f64 = 3.0 * 3600.0;

const CROWD_BASE: usize = 1024;
const CROWD_RAMP: usize = 10;
const CROWD_JOINS: usize = 800;
/// Quiet epochs after the ramp: one S-period, so the whole crowd
/// migrates to the L-tree before the drain starts.
const CROWD_PLATEAU: usize = 10;
const CROWD_DRAIN: usize = 10;
const CROWD_DRAIN_SHARE: f64 = 0.3;
pub const CROWD_CYCLE: usize = CROWD_RAMP + CROWD_PLATEAU + CROWD_DRAIN;

const FLAP_MEMBERS: usize = 256;
const FLAP_MAX: usize = 2;

impl Workload {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        // Salt the stream with the workload name, so workloads that
        // share a seed do not share inputs.
        let salt = fnv(FNV_OFFSET, spec.name.as_bytes());
        let generator = match spec.shape {
            Shape::Steady => Generator::Steady(Steady {
                clock_ms: 0,
                next_arrival_ms: 0,
                departures: BinaryHeap::new(),
            }),
            Shape::Crowd => Generator::Crowd(Crowd {
                quiet: spec.warmup_epochs as u64,
                crowd: Vec::new(),
            }),
            Shape::Flap => Generator::Flap(Flap {
                present: Vec::new(),
                away: Vec::new(),
            }),
        };
        Workload {
            seed,
            epoch: 0,
            digest: FNV_OFFSET,
            source: Source {
                rng: Rng::new(seed ^ salt),
                next_id: PROBES.len() as u64,
            },
            generator,
        }
    }

    /// FNV-1a digest of every batch generated so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The next epoch's batch.
    pub fn next_batch(&mut self) -> Batch {
        self.epoch += 1;
        let source = &mut self.source;
        let batch = if self.epoch == 1 {
            let mut joins: Vec<Join> = PROBES
                .iter()
                .map(|&m| Join::new(m, probe_key(self.seed, m)))
                .collect();
            match &mut self.generator {
                Generator::Steady(g) => g.bootstrap(source, &mut joins),
                Generator::Crowd(_) => {
                    for _ in PROBES.len()..CROWD_BASE {
                        let (member, key) = source.member();
                        joins.push(Join::new(member, key));
                    }
                }
                Generator::Flap(g) => g.bootstrap(source, &mut joins),
            }
            Batch {
                joins,
                leaves: Vec::new(),
            }
        } else {
            match &mut self.generator {
                Generator::Steady(g) => g.next(source),
                Generator::Crowd(g) => g.next(source, self.epoch),
                Generator::Flap(g) => g.next(&mut source.rng),
            }
        };
        for join in &batch.joins {
            self.digest = fnv(self.digest, &join.member.0.to_le_bytes());
            self.digest = fnv(self.digest, join.individual_key.as_bytes());
        }
        self.digest = fnv(self.digest, b"|");
        for leave in &batch.leaves {
            self.digest = fnv(self.digest, &leave.0.to_le_bytes());
        }
        self.digest = fnv(self.digest, b";");
        batch
    }
}

/// The paper's membership process: Poisson arrivals, a share ALPHA of
/// short-lived members, exponential lifetimes of each class mean.
struct Steady {
    clock_ms: u64,
    next_arrival_ms: u64,
    /// (departure time, member), earliest first.
    departures: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Steady {
    fn bootstrap(&mut self, source: &mut Source, joins: &mut Vec<Join>) {
        // In steady state a share α·Ms / (α·Ms + (1−α)·Ml) of the
        // members present is short-lived, and (memoryless) each has an
        // exponential residual lifetime of its class mean.
        let short_share =
            ALPHA * MEAN_SHORT_S / (ALPHA * MEAN_SHORT_S + (1.0 - ALPHA) * MEAN_LONG_S);
        for _ in PROBES.len()..STEADY_MEMBERS {
            let (member, key) = source.member();
            let mean = if source.rng.unit() < short_share {
                MEAN_SHORT_S
            } else {
                MEAN_LONG_S
            };
            let leave_ms = (source.rng.exp(mean) * 1000.0) as u64;
            self.departures.push(Reverse((leave_ms, member.0)));
            joins.push(Join::new(member, key));
        }
        self.next_arrival_ms = arrival_gap_ms(&mut source.rng);
    }

    fn next(&mut self, source: &mut Source) -> Batch {
        self.clock_ms += PERIOD_MS;
        let end = self.clock_ms;
        let mut batch = Batch::default();
        while self.next_arrival_ms <= end {
            let arrival = self.next_arrival_ms;
            self.next_arrival_ms += arrival_gap_ms(&mut source.rng);
            let (member, key) = source.member();
            let mean = if source.rng.unit() < ALPHA {
                MEAN_SHORT_S
            } else {
                MEAN_LONG_S
            };
            let leave_ms = arrival + (source.rng.exp(mean) * 1000.0) as u64;
            // A member that arrives and departs inside one interval is
            // never admitted by batch rekeying.
            if leave_ms > end {
                self.departures.push(Reverse((leave_ms, member.0)));
                batch.joins.push(Join::new(member, key));
            }
        }
        while let Some(&Reverse((at, member))) = self.departures.peek() {
            if at > end {
                break;
            }
            self.departures.pop();
            batch.leaves.push(MemberId(member));
        }
        batch
    }
}

fn arrival_gap_ms(rng: &mut Rng) -> u64 {
    // Little's law: N = λ·(α·Ms + (1−α)·Ml).
    let mean_stay_s = ALPHA * MEAN_SHORT_S + (1.0 - ALPHA) * MEAN_LONG_S;
    (rng.exp(mean_stay_s / STEADY_MEMBERS as f64) * 1000.0) as u64 + 1
}

/// A static base group and repeated crowd cycles: ramp, plateau,
/// drain.
struct Crowd {
    /// Quiet epochs after the bootstrap (the base group's S-period).
    quiet: u64,
    crowd: Vec<MemberId>,
}

impl Crowd {
    fn next(&mut self, source: &mut Source, epoch: u64) -> Batch {
        let mut batch = Batch::default();
        if epoch <= 1 + self.quiet {
            return batch;
        }
        let phase = ((epoch - self.quiet - 2) as usize) % CROWD_CYCLE;
        if phase < CROWD_RAMP {
            // About CROWD_JOINS pure joins, ±10 %.
            let spread = CROWD_JOINS / 5;
            let n = CROWD_JOINS - spread / 2 + source.rng.below(spread + 1);
            for _ in 0..n {
                let (member, key) = source.member();
                self.crowd.push(member);
                batch.joins.push(Join::new(member, key));
            }
        } else if phase >= CROWD_RAMP + CROWD_PLATEAU {
            let n = if phase + 1 == CROWD_CYCLE {
                self.crowd.len()
            } else {
                (self.crowd.len() as f64 * CROWD_DRAIN_SHARE).round() as usize
            };
            let keep = sample_to_tail(&mut self.crowd, n, &mut source.rng);
            batch.leaves = self.crowd.split_off(keep);
        }
        batch
    }
}

/// One tree whose members flap out and back in.
struct Flap {
    present: Vec<(MemberId, Key)>,
    away: Vec<(MemberId, Key)>,
}

impl Flap {
    fn bootstrap(&mut self, source: &mut Source, joins: &mut Vec<Join>) {
        for _ in PROBES.len()..FLAP_MEMBERS {
            let (member, key) = source.member();
            self.present.push((member, key.clone()));
            joins.push(Join::new(member, key));
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Batch {
        let n = 1 + rng.below(FLAP_MAX);
        let keep = sample_to_tail(&mut self.present, n, rng);
        let leaving = self.present.split_off(keep);
        // Last epoch's flaps come back with the same identity and key;
        // they are not eligible to leave in the batch that readmits
        // them.
        let joins = self
            .away
            .drain(..)
            .map(|(member, key)| {
                self.present.push((member, key.clone()));
                Join::new(member, key)
            })
            .collect();
        let leaves = leaving.iter().map(|(m, _)| *m).collect();
        self.away = leaving;
        Batch { joins, leaves }
    }
}

/// Partial Fisher–Yates: moves a uniform random sample of `n` items to
/// the tail of `items` and returns the index where the sample starts.
fn sample_to_tail<T>(items: &mut [T], n: usize, rng: &mut Rng) -> usize {
    for i in 0..n {
        let end = items.len() - i;
        items.swap(rng.below(end), end - 1);
    }
    items.len() - n
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Replays `epochs` batches against a membership set: every leave
    /// names a present member and every join an absent one.
    fn replay(spec: &Spec, seed: u64, epochs: usize) -> (Workload, Vec<Batch>, BTreeSet<u64>) {
        let mut workload = Workload::new(spec, seed);
        let mut present = BTreeSet::new();
        let mut batches = Vec::new();
        for _ in 0..epochs {
            let batch = workload.next_batch();
            for leave in &batch.leaves {
                assert!(
                    present.remove(&leave.0),
                    "{}: leave of absent {leave:?}",
                    spec.name
                );
            }
            for join in &batch.joins {
                assert!(
                    present.insert(join.member.0),
                    "{}: duplicate join",
                    spec.name
                );
            }
            assert!(PROBES.iter().all(|p| present.contains(&p.0)));
            batches.push(batch);
        }
        (workload, batches, present)
    }

    #[test]
    fn batches_are_valid_and_seed_deterministic() {
        for spec in ALL {
            let (a, _, _) = replay(&spec, 7, 120);
            let (b, _, _) = replay(&spec, 7, 120);
            let (c, _, _) = replay(&spec, 8, 120);
            assert_eq!(a.digest(), b.digest(), "{}", spec.name);
            assert_ne!(a.digest(), c.digest(), "{}", spec.name);
        }
    }

    #[test]
    fn paper_steady_holds_its_group_size() {
        let (_, batches, present) = replay(&PAPER_STEADY, 3, 200);
        let joins: usize = batches[100..].iter().map(|b| b.joins.len()).sum();
        let leaves: usize = batches[100..].iter().map(|b| b.leaves.len()).sum();
        // λ·Tp ≈ 427 arrivals per interval, minus those that leave
        // within the interval they arrived in.
        assert!(
            (330..=430).contains(&(joins / 100)),
            "joins/epoch {}",
            joins / 100
        );
        assert!(
            (330..=430).contains(&(leaves / 100)),
            "leaves/epoch {}",
            leaves / 100
        );
        assert!(
            (15_000..=17_800).contains(&present.len()),
            "{}",
            present.len()
        );
    }

    #[test]
    fn flash_crowd_cycles_ramp_then_drain_to_the_base() {
        let warm = 1 + FLASH_CROWD.warmup_epochs;
        let (_, batches, present) = replay(&FLASH_CROWD, 5, warm + 2 * CROWD_CYCLE);
        assert_eq!(present.len(), CROWD_BASE);
        for (phase, batch) in batches[warm..].iter().enumerate() {
            let phase = phase % CROWD_CYCLE;
            let ramp = phase < CROWD_RAMP;
            let drain = phase >= CROWD_RAMP + CROWD_PLATEAU;
            assert_eq!(!batch.joins.is_empty(), ramp, "phase {phase}");
            assert_eq!(!batch.leaves.is_empty(), drain, "phase {phase}");
        }
    }
}
