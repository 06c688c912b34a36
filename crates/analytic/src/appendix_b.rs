//! The WKA-BKR reliable-transport bandwidth model of Appendix B,
//! generalized to heterogeneous loss and key forests (Figs. 6–7).
//!
//! For an updated key at level `l` of the tree, each of its `d`
//! encryptions must reach the `R(l)` members under the corresponding
//! child. A member with loss probability `p` needs `E[M_r] = 1/(1-p)`
//! transmissions; the number of transmissions until *all* interested
//! members hold the key is the maximum over the audience
//! (equations (13)–(14)):
//!
//! ```text
//! E[M(l)] = Σ_{m≥1} ( 1 − Π_classes (1 − p_i^{m−1})^{f_i·R(l)} )
//! ```
//!
//! The expected rekey bandwidth is then `E[V] = Σ_l d·U(l)·E[M(l)]`
//! (equation (15)), with `U(l)` from Appendix A. As in
//! [`crate::appendix_a`], we evaluate over the exact balanced tree
//! shape so arbitrary group sizes work.

use crate::appendix_a::child_sizes;
use crate::math::p_update;
use std::collections::HashMap;

/// A population loss profile: fractions of members at each loss rate.
#[derive(Debug, Clone, PartialEq)]
pub struct LossMix {
    /// `(fraction, loss probability)` pairs; fractions sum to 1.
    pub classes: Vec<(f64, f64)>,
}

impl LossMix {
    /// Every member has the same loss probability.
    pub fn homogeneous(p: f64) -> Self {
        LossMix {
            classes: vec![(1.0, p)],
        }
    }

    /// Fraction `alpha` of members lose at `p_high`, the rest at
    /// `p_low` — the population of §4.3.
    pub fn two_point(alpha: f64, p_high: f64, p_low: f64) -> Self {
        LossMix {
            classes: vec![(alpha, p_high), (1.0 - alpha, p_low)],
        }
    }

    /// Checks fractions sum to ~1 and probabilities are in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on invalid mixes.
    pub fn validate(&self) {
        let total: f64 = self.classes.iter().map(|(f, _)| f).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "loss mix fractions sum to {total}"
        );
        for &(f, p) in &self.classes {
            assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
            assert!((0.0..1.0).contains(&p), "loss probability {p} out of range");
        }
    }

    /// Mean loss probability of the population.
    pub fn mean_loss(&self) -> f64 {
        self.classes.iter().map(|(f, p)| f * p).sum()
    }
}

/// Expected number of transmissions until one encryption reaches all
/// of an audience of `r` members drawn from `mix` (equation (14)).
///
/// Returns 0 for an empty audience.
pub fn expected_transmissions(r: f64, mix: &LossMix) -> f64 {
    if r <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0;
    for m in 1..100_000u32 {
        // P[all r receivers got it within m-1 transmissions].
        let mut all_received = 1.0f64;
        for &(f, p) in &mix.classes {
            if f <= 0.0 {
                continue;
            }
            let p_pow = p.powi(m as i32 - 1); // p^{m-1}; 0^0 = 1
            all_received *= (1.0 - p_pow).powf(f * r);
        }
        let term = 1.0 - all_received;
        total += term;
        if term < 1e-12 {
            break;
        }
    }
    total
}

/// Expected WKA-BKR bandwidth (in encrypted-key transmissions) for one
/// rekey of a tree with `n` members, `l` batched revocations, degree
/// `d`, and audience loss profile `mix` (equation (15), exact shape).
pub fn ev_wka(n: u64, l: f64, d: u32, mix: &LossMix) -> f64 {
    if n < 2 || l <= 0.0 {
        return 0.0;
    }
    mix.validate();
    let l = l.min(n as f64);
    let mut cost_memo: HashMap<u64, f64> = HashMap::new();
    let mut em_memo: HashMap<u64, f64> = HashMap::new();
    subtree_ev(n, n as f64, l, d as u64, mix, &mut cost_memo, &mut em_memo)
}

#[allow(clippy::too_many_arguments)]
fn subtree_ev(
    s: u64,
    n: f64,
    l: f64,
    d: u64,
    mix: &LossMix,
    cost_memo: &mut HashMap<u64, f64>,
    em_memo: &mut HashMap<u64, f64>,
) -> f64 {
    if s < 2 {
        return 0.0;
    }
    if let Some(&c) = cost_memo.get(&s) {
        return c;
    }
    let children = child_sizes(s, d);
    let p_upd = p_update(n, s as f64, l);
    let own: f64 = children
        .iter()
        .map(|&c| {
            let em = *em_memo
                .entry(c)
                .or_insert_with(|| expected_transmissions(c as f64, mix));
            p_upd * em
        })
        .sum();
    let below: f64 = children
        .iter()
        .map(|&c| subtree_ev(c, n, l, d, mix, cost_memo, em_memo))
        .sum();
    let total = own + below;
    cost_memo.insert(s, total);
    total
}

/// One tree of a key forest: member count and loss profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestTree {
    /// Members in this tree.
    pub size: u64,
    /// Their loss profile.
    pub mix: LossMix,
}

/// Expected WKA-BKR bandwidth for a *forest* of key trees under a
/// shared group DEK — the structure of the loss-homogenized scheme
/// (§4.2) and of the two-random-keytree strawman.
///
/// `total_l` departures are split across trees proportionally to their
/// sizes (as in §4.3). When more than one tree is non-empty, the
/// refreshed group DEK additionally costs one encryption per tree root
/// (each retransmitted per that tree's loss profile); with a single
/// non-empty tree the DEK *is* that tree's root and costs nothing
/// extra, so the scheme degenerates to the one-keytree scheme exactly
/// as the paper observes.
pub fn ev_forest(trees: &[ForestTree], total_l: f64, d: u32) -> f64 {
    let total_n: u64 = trees.iter().map(|t| t.size).sum();
    if total_n == 0 || total_l <= 0.0 {
        return 0.0;
    }
    let occupied: Vec<&ForestTree> = trees.iter().filter(|t| t.size > 0).collect();
    let mut cost = 0.0;
    for tree in &occupied {
        let l_i = total_l * tree.size as f64 / total_n as f64;
        cost += ev_wka(tree.size, l_i, d, &tree.mix);
    }
    if occupied.len() > 1 {
        for tree in &occupied {
            cost += expected_transmissions(tree.size as f64, &tree.mix);
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_receiver_geometric() {
        // E[M] for one receiver with loss p is 1/(1-p).
        let mix = LossMix::homogeneous(0.2);
        let e = expected_transmissions(1.0, &mix);
        assert!((e - 1.25).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn lossless_audience_needs_one_transmission() {
        let mix = LossMix::homogeneous(0.0);
        assert!((expected_transmissions(1000.0, &mix) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transmissions_grow_with_audience_and_loss() {
        let mix = LossMix::homogeneous(0.1);
        let small = expected_transmissions(4.0, &mix);
        let large = expected_transmissions(4096.0, &mix);
        assert!(large > small && small > 1.0);

        let lossy = LossMix::homogeneous(0.3);
        assert!(expected_transmissions(4.0, &lossy) > small);
    }

    #[test]
    fn mixture_between_pure_classes() {
        let r = 64.0;
        let low = expected_transmissions(r, &LossMix::homogeneous(0.02));
        let high = expected_transmissions(r, &LossMix::homogeneous(0.2));
        let mid = expected_transmissions(r, &LossMix::two_point(0.5, 0.2, 0.02));
        assert!(low < mid && mid < high, "{low} {mid} {high}");
    }

    #[test]
    fn ev_reduces_to_ne_when_lossless() {
        // With zero loss every encryption is sent once: E[V] = Ne.
        let mix = LossMix::homogeneous(0.0);
        let ev = ev_wka(4096, 64.0, 4, &mix);
        let ne = crate::appendix_a::ne(4096, 64.0, 4);
        assert!((ev - ne).abs() < 1e-6, "{ev} vs {ne}");
    }

    #[test]
    fn ev_monotone_in_loss() {
        let lo = ev_wka(65536, 256.0, 4, &LossMix::homogeneous(0.02));
        let hi = ev_wka(65536, 256.0, 4, &LossMix::homogeneous(0.2));
        assert!(hi > lo * 1.2, "{hi} vs {lo}");
    }

    #[test]
    fn paper_fig6_magnitude() {
        // Fig. 6's y-axis spans ~5000–10000 keys for N=65536, L=256.
        let low = ev_wka(65536, 256.0, 4, &LossMix::homogeneous(0.02));
        let high = ev_wka(65536, 256.0, 4, &LossMix::homogeneous(0.2));
        assert!((4_000.0..7_500.0).contains(&low), "low end {low}");
        assert!((7_000.0..12_000.0).contains(&high), "high end {high}");
    }

    #[test]
    fn forest_with_single_tree_equals_one_keytree() {
        let mix = LossMix::homogeneous(0.02);
        let forest = vec![
            ForestTree {
                size: 65536,
                mix: mix.clone(),
            },
            ForestTree {
                size: 0,
                mix: LossMix::homogeneous(0.2),
            },
        ];
        let f = ev_forest(&forest, 256.0, 4);
        let single = ev_wka(65536, 256.0, 4, &mix);
        assert!((f - single).abs() < 1e-9);
    }

    #[test]
    fn loss_homogenized_beats_one_keytree_at_moderate_alpha() {
        // The paper's headline: up to 12.1% at α = 0.3.
        let (alpha, ph, pl) = (0.3, 0.2, 0.02);
        let n = 65536u64;
        let one = ev_wka(n, 256.0, 4, &LossMix::two_point(alpha, ph, pl));
        let nh = (alpha * n as f64).round() as u64;
        let forest = vec![
            ForestTree {
                size: n - nh,
                mix: LossMix::homogeneous(pl),
            },
            ForestTree {
                size: nh,
                mix: LossMix::homogeneous(ph),
            },
        ];
        let homog = ev_forest(&forest, 256.0, 4);
        let gain = 1.0 - homog / one;
        assert!(
            (0.05..0.20).contains(&gain),
            "loss-homogenized gain {gain:.3} vs paper's 12.1%"
        );
    }

    #[test]
    #[should_panic(expected = "fractions sum")]
    fn invalid_mix_rejected() {
        let mix = LossMix {
            classes: vec![(0.5, 0.1)],
        };
        ev_wka(64, 4.0, 4, &mix);
    }
}
