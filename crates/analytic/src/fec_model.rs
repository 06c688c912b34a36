//! A proactive-FEC rekey transport cost model in the spirit of
//! \[YLZL01\], used for the paper's §4.4 extension result (up to 25.7%
//! gain from loss homogenization when the transport is FEC-based).
//!
//! # Model
//!
//! The rekey payload (`total_keys` encrypted keys) is packed into
//! packets of [`FecParams::keys_per_packet`] keys, grouped into FEC
//! blocks of `k` payload packets. Because WKA-style key assignment
//! clusters the keys of a subtree into contiguous packets, each
//! receiver is interested in (approximately) one block, and the
//! interested audiences partition the group evenly across blocks.
//!
//! Per block and round:
//!
//! 1. the server multicasts the `k` payload packets plus
//!    `a = ⌈ρ·k⌉ − k` proactive parity packets (`ρ` = proactivity
//!    factor);
//! 2. a receiver with loss rate `p` loses `X ~ Binomial(sent, p)`
//!    of them and can reconstruct iff it received at least `k`
//!    (Reed–Solomon erasure property), i.e. its *deficit* is
//!    `D = max(0, X − a)`;
//! 3. needy receivers NACK their deficit; the server responds with
//!    `t = E[max deficit]` fresh parity packets (the BKR-style batched
//!    retransmission), and the round repeats.
//!
//! The per-class deficit distributions are tracked exactly (binomial
//! convolutions); the expected maximum over the audience uses
//! `P[max ≤ x] = Π_c P[D_c ≤ x]^{count_c}`. Iteration stops when the
//! expected number of needy receivers drops below 10⁻².
//!
//! This model is a documented substitution for the authors' closed
//! \[YLZL01\] implementation; see DESIGN.md.

use crate::appendix_b::LossMix;
use crate::math::binomial_distribution;

/// Parameters of the proactive-FEC transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FecParams {
    /// Payload packets per FEC block (`k`).
    pub block_packets: u32,
    /// Proactivity factor `ρ ≥ 1`: `⌈ρk⌉` packets are sent per block
    /// in the first round.
    pub proactivity: f64,
    /// Encrypted keys per packet.
    pub keys_per_packet: u32,
    /// Safety cap on retransmission rounds.
    pub max_rounds: u32,
}

impl Default for FecParams {
    fn default() -> Self {
        FecParams {
            block_packets: 16,
            proactivity: 1.25,
            keys_per_packet: 25,
            max_rounds: 60,
        }
    }
}

impl FecParams {
    fn validate(&self) {
        assert!(
            self.block_packets >= 1,
            "need at least one packet per block"
        );
        assert!(self.proactivity >= 1.0, "proactivity factor must be >= 1");
        assert!(
            self.keys_per_packet >= 1,
            "need at least one key per packet"
        );
    }
}

/// Per-class deficit distribution: `pmf[x] = P[deficit = x]`,
/// truncated at `k` (a receiver can never need more than `k` packets).
#[derive(Debug, Clone)]
struct DeficitClass {
    count: f64,
    loss: f64,
    pmf: Vec<f64>,
}

impl DeficitClass {
    /// Distribution of `max(0, X - slack)` with `X ~ Bin(sent, loss)`,
    /// clamped to `0..=cap`.
    fn after_first_round(count: f64, loss: f64, sent: u32, slack: u32, cap: usize) -> Self {
        let x = binomial_distribution(sent, loss);
        let mut pmf = vec![0.0; cap + 1];
        for (losses, &p) in x.iter().enumerate() {
            let deficit = losses.saturating_sub(slack as usize).min(cap);
            pmf[deficit] += p;
        }
        DeficitClass { count, loss, pmf }
    }

    fn p_needy(&self) -> f64 {
        1.0 - self.pmf[0]
    }

    /// P[D <= x] vector.
    fn cdf(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.pmf
            .iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect()
    }

    /// Applies a retransmission of `t` packets: the deficit shrinks by
    /// the number received, `R ~ Bin(t, 1 - loss)`.
    fn apply_retransmission(&mut self, t: u32) {
        if t == 0 {
            return;
        }
        let recv = binomial_distribution(t, 1.0 - self.loss);
        let cap = self.pmf.len() - 1;
        let mut next = vec![0.0; cap + 1];
        for (d, &pd) in self.pmf.iter().enumerate() {
            if pd == 0.0 {
                continue;
            }
            if d == 0 {
                next[0] += pd;
                continue;
            }
            for (r, &pr) in recv.iter().enumerate() {
                let nd = d.saturating_sub(r);
                next[nd] += pd * pr;
            }
        }
        self.pmf = next;
    }
}

/// Expected maximum deficit over all receivers of a block.
fn expected_max_deficit(classes: &[DeficitClass]) -> f64 {
    let cap = classes.iter().map(|c| c.pmf.len() - 1).max().unwrap_or(0);
    let cdfs: Vec<Vec<f64>> = classes.iter().map(|c| c.cdf()).collect();
    let mut e_max = 0.0;
    for x in 0..cap {
        // P[max > x] = 1 - Π P[D_c <= x]^{count_c}.
        let mut all_le = 1.0f64;
        for (c, cdf) in classes.iter().zip(&cdfs) {
            let p_le = cdf[x.min(cdf.len() - 1)].clamp(1e-300, 1.0);
            all_le *= p_le.powf(c.count);
        }
        e_max += 1.0 - all_le;
    }
    e_max
}

/// Expected number of packets transmitted to deliver one rekey payload
/// of `total_keys` encrypted keys to `n_receivers` receivers drawn
/// from `mix`, using proactive FEC + batched parity retransmission.
pub fn fec_cost_packets(
    n_receivers: u64,
    total_keys: f64,
    mix: &LossMix,
    params: &FecParams,
) -> f64 {
    params.validate();
    mix.validate();
    if n_receivers == 0 || total_keys <= 0.0 {
        return 0.0;
    }
    let payload_packets = (total_keys / params.keys_per_packet as f64).ceil().max(1.0);
    let blocks = (payload_packets / params.block_packets as f64)
        .ceil()
        .max(1.0);
    let receivers_per_block = n_receivers as f64 / blocks;

    let k = params.block_packets;
    let sent_first = (params.proactivity * k as f64).ceil() as u32;
    let slack = sent_first - k;

    // Deficit state per loss class for a representative block.
    let mut classes: Vec<DeficitClass> = mix
        .classes
        .iter()
        .filter(|(f, _)| *f > 0.0)
        .map(|&(f, p)| {
            DeficitClass::after_first_round(
                f * receivers_per_block,
                p,
                sent_first,
                slack,
                k as usize,
            )
        })
        .collect();

    let mut packets_per_block = sent_first as f64;
    for _ in 0..params.max_rounds {
        let needy: f64 = classes.iter().map(|c| c.count * c.p_needy()).sum();
        if needy < 1e-2 {
            break;
        }
        let t = expected_max_deficit(&classes).ceil().max(1.0) as u32;
        packets_per_block += t as f64;
        for c in &mut classes {
            c.apply_retransmission(t);
        }
    }
    blocks * packets_per_block
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FecParams {
        FecParams::default()
    }

    #[test]
    fn lossless_costs_exactly_proactive_send() {
        let p = params();
        let mix = LossMix::homogeneous(0.0);
        let cost = fec_cost_packets(1000, 1000.0, &mix, &p);
        let payload = (1000.0f64 / p.keys_per_packet as f64).ceil();
        let blocks = (payload / p.block_packets as f64).ceil();
        let per_block = (p.proactivity * p.block_packets as f64).ceil();
        assert!((cost - blocks * per_block).abs() < 1e-9, "got {cost}");
    }

    #[test]
    fn cost_monotone_in_loss() {
        let p = params();
        let lo = fec_cost_packets(10_000, 5000.0, &LossMix::homogeneous(0.02), &p);
        let hi = fec_cost_packets(10_000, 5000.0, &LossMix::homogeneous(0.2), &p);
        assert!(hi > lo, "{hi} <= {lo}");
    }

    #[test]
    fn a_few_high_loss_receivers_taxes_the_whole_group() {
        // The motivation of §4: in a mixed population everyone pays
        // for the high-loss tail.
        let p = params();
        let pure_low = fec_cost_packets(65536, 6000.0, &LossMix::homogeneous(0.02), &p);
        let mixed = fec_cost_packets(65536, 6000.0, &LossMix::two_point(0.1, 0.2, 0.02), &p);
        assert!(mixed > pure_low * 1.1, "mixed {mixed} vs pure {pure_low}");
    }

    #[test]
    fn fec_homogenization_gain_larger_than_wka() {
        // §4.4: with FEC transport, splitting by loss class gains up
        // to ~25.7% at α = 0.1 — more than WKA-BKR's 12.1%.
        let p = params();
        let (alpha, ph, pl) = (0.1, 0.2, 0.02);
        let n = 65536.0;
        let keys = 6000.0;
        let mixed = fec_cost_packets(n as u64, keys, &LossMix::two_point(alpha, ph, pl), &p);
        let split = fec_cost_packets(
            ((1.0 - alpha) * n) as u64,
            (1.0 - alpha) * keys,
            &LossMix::homogeneous(pl),
            &p,
        ) + fec_cost_packets(
            (alpha * n) as u64,
            alpha * keys,
            &LossMix::homogeneous(ph),
            &p,
        );
        let gain = 1.0 - split / mixed;
        assert!(
            (0.10..0.45).contains(&gain),
            "FEC homogenization gain {gain:.3} vs paper's 25.7%"
        );
    }

    #[test]
    fn empty_inputs_cost_nothing() {
        let p = params();
        assert_eq!(
            fec_cost_packets(0, 100.0, &LossMix::homogeneous(0.1), &p),
            0.0
        );
        assert_eq!(
            fec_cost_packets(10, 0.0, &LossMix::homogeneous(0.1), &p),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "proactivity")]
    fn invalid_proactivity_rejected() {
        let p = FecParams {
            proactivity: 0.5,
            ..FecParams::default()
        };
        fec_cost_packets(10, 10.0, &LossMix::homogeneous(0.1), &p);
    }
}
