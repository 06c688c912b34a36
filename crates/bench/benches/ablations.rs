//! Ablations for the design choices called out in DESIGN.md.
//!
//! 1. **QT vs TT crossover** — sweep the short-class mean `Ms` (which
//!    controls the S-partition population) to locate where the queue
//!    construction stops paying off.
//! 2. **k loss classes** — generalize §4's two trees to k trees on a
//!    three-point loss population.
//! 3. **WKA packing order** — breadth-first vs depth-first key
//!    assignment on the executable protocol (§2.2.1 mentions both).
//! 4. **Exact vs idealized `Ne`** — the paper's closed form vs our
//!    exact-tree-shape extension on non-power group sizes.
//! 5. **OFT vs LKH** — per-eviction encrypted keys of the two
//!    hierarchies (§2.1.1's applicability claim).
//! 6. **Model vs simulation** — the §3.3.1 steady-state model checked
//!    against the executable key server.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_analytic::appendix_a::{ne, ne_ideal};
use rekey_analytic::appendix_b::{ev_forest, ev_wka, ForestTree, LossMix};
use rekey_analytic::partition::PartitionParams;
use rekey_bench::{fmt, print_table, write_csv};
use rekey_crypto::Key;
use rekey_keytree::oft::OftServer;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use rekey_transport::interest::interest_map;
use rekey_transport::loss::Population;
use rekey_transport::wka_bkr::{self, Packing, WkaBkrConfig};

fn ablation_qt_tt_crossover() {
    let base = PartitionParams::paper_default();
    let headers = ["Ms (s)", "Ns (model)", "QT cost", "TT cost", "winner"];
    let mut rows = Vec::new();
    let mut crossover = None;
    let mut prev_winner = None;
    for ms in [30.0, 60.0, 120.0, 180.0, 300.0, 600.0, 1200.0] {
        let p = PartitionParams {
            mean_short: ms,
            ..base
        };
        let ss = p.steady_state();
        let (qt, tt) = (p.cost_qt(), p.cost_tt());
        let winner = if qt < tt { "QT" } else { "TT" };
        if let Some(prev) = prev_winner {
            if prev != winner && crossover.is_none() {
                crossover = Some(ms);
            }
        }
        prev_winner = Some(winner);
        rows.push(vec![
            fmt(ms, 0),
            fmt(ss.n_s, 0),
            fmt(qt, 0),
            fmt(tt, 0),
            winner.to_string(),
        ]);
    }
    print_table(
        "Ablation 1 — QT vs TT as the S-partition grows (sweep Ms, K = 10)",
        &headers,
        &rows,
    );
    write_csv("ablation_qt_tt", &headers, &rows);
    println!(
        "[info] QT (queue) wins while the S-partition is small; TT takes over around Ms ≈ {}",
        crossover.map(|c| format!("{c:.0} s")).unwrap_or("—".into())
    );
}

fn ablation_k_trees() {
    // Three-point loss population: 60% at 1%, 25% at 8%, 15% at 25%.
    let classes = [(0.60, 0.01), (0.25, 0.08), (0.15, 0.25)];
    let (n, l, d) = (65536u64, 256.0, 4u32);
    let mix = LossMix {
        classes: classes.to_vec(),
    };
    let one = ev_wka(n, l, d, &mix);

    let forest = |split: &[Vec<(f64, f64)>]| {
        let trees: Vec<ForestTree> = split
            .iter()
            .map(|group| {
                let total: f64 = group.iter().map(|(f, _)| f).sum();
                let mix = LossMix {
                    classes: group.iter().map(|&(f, p)| (f / total, p)).collect(),
                };
                ForestTree {
                    size: (total * n as f64).round() as u64,
                    mix,
                }
            })
            .collect();
        ev_forest(&trees, l, d)
    };

    let two = forest(&[vec![classes[0], classes[1]], vec![classes[2]]]);
    let three = forest(&[vec![classes[0]], vec![classes[1]], vec![classes[2]]]);

    let headers = ["organization", "cost (#keys)", "gain%"];
    let rows = vec![
        vec!["one keytree".into(), fmt(one, 0), fmt(0.0, 1)],
        vec![
            "two trees (low+mid | high)".into(),
            fmt(two, 0),
            fmt(100.0 * (1.0 - two / one), 1),
        ],
        vec![
            "three trees (one per class)".into(),
            fmt(three, 0),
            fmt(100.0 * (1.0 - three / one), 1),
        ],
    ];
    print_table(
        "Ablation 2 — number of loss-homogenized trees on a 3-class population",
        &headers,
        &rows,
    );
    write_csv("ablation_k_trees", &headers, &rows);
    assert!(three < one, "full homogenization should win");
    println!("[info] finer loss classes extract more of the available gain");
}

fn ablation_packing() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..1024)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    server.apply_batch(&joins, &[], &mut rng);
    let leavers: Vec<MemberId> = (0..16).map(|i| MemberId(i * 63)).collect();
    let out = server.apply_batch(&[], &leavers, &mut rng);
    let present: Vec<MemberId> = (0..1024)
        .map(MemberId)
        .filter(|m| !leavers.contains(m))
        .collect();
    let interest = interest_map(&out.message, |n, out| server.members_under_into(n, out));

    let mut results = Vec::new();
    for (label, packing) in [
        ("breadth-first", Packing::BreadthFirst),
        ("depth-first", Packing::DepthFirst),
    ] {
        let mut keys = 0usize;
        let mut rounds = 0usize;
        let runs = 12;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let pop = Population::two_point(&present, 0.2, 0.2, 0.02, &mut rng);
            let cfg = WkaBkrConfig {
                packing,
                ..WkaBkrConfig::default()
            };
            let o = wka_bkr::deliver(&out.message, &interest, &pop, &cfg, &mut rng);
            assert!(o.report.complete);
            keys += o.report.keys_transmitted;
            rounds += o.report.rounds;
        }
        results.push(vec![
            label.to_string(),
            fmt(keys as f64 / runs as f64, 0),
            fmt(rounds as f64 / runs as f64, 1),
        ]);
    }
    print_table(
        "Ablation 3 — WKA packing order on the executable protocol (N=1024, L=16)",
        &["packing", "keys transmitted", "rounds"],
        &results,
    );
    write_csv("ablation_packing", &["packing", "keys", "rounds"], &results);
}

fn ablation_ne_exact() {
    let headers = ["N", "L", "Ne exact", "Ne ideal", "note"];
    let mut rows = Vec::new();
    for &(n, l) in &[(65536u64, 256.0f64), (4096, 64.0), (1024, 16.0)] {
        rows.push(vec![
            n.to_string(),
            fmt(l, 0),
            fmt(ne(n, l, 4), 1),
            fmt(ne_ideal(n, l, 4), 1),
            "full tree: identical".into(),
        ]);
    }
    for &(n, l) in &[(3000u64, 30.0f64), (100_000, 1000.0), (65535, 256.0)] {
        rows.push(vec![
            n.to_string(),
            fmt(l, 0),
            fmt(ne(n, l, 4), 1),
            "n/a".into(),
            "partially full: exact shape only".into(),
        ]);
    }
    print_table(
        "Ablation 4 — Appendix A closed form vs exact tree-shape evaluation",
        &headers,
        &rows,
    );
    write_csv("ablation_ne_exact", &headers, &rows);
}

fn ablation_oft_vs_lkh() {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 256u64;

    let mut lkh = LkhServer::new(2, 0);
    let joins: Vec<(MemberId, Key)> = (0..n)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    lkh.apply_batch(&joins, &[], &mut rng);

    let mut oft = OftServer::new(1);
    for i in 0..n {
        let ik = Key::generate(&mut rng);
        oft.join(MemberId(i), &ik, &mut rng).unwrap();
    }

    let mut lkh_cost = 0usize;
    let mut oft_cost = 0usize;
    let evictions = 16u64;
    for i in 0..evictions {
        let m = MemberId(i * 3);
        lkh_cost += lkh
            .try_apply_batch(&[], &[m], &mut rng)
            .unwrap()
            .message
            .encrypted_key_count();
        oft_cost += oft.leave(m, &mut rng).unwrap().encrypted_key_count();
    }
    let rows = vec![
        vec![
            "LKH (d=2)".into(),
            fmt(lkh_cost as f64 / evictions as f64, 1),
        ],
        vec![
            "OFT (binary)".into(),
            fmt(oft_cost as f64 / evictions as f64, 1),
        ],
    ];
    print_table(
        "Ablation 5 — per-eviction encrypted keys: OFT vs binary LKH (N=256)",
        &["hierarchy", "keys per eviction"],
        &rows,
    );
    write_csv("ablation_oft_vs_lkh", &["hierarchy", "keys"], &rows);
    assert!(
        oft_cost < lkh_cost,
        "OFT ({oft_cost}) should halve binary-LKH eviction cost ({lkh_cost})"
    );
    println!("[info] OFT ≈ h+1 vs LKH ≈ 2h keys per eviction, as [BM00] claims");
}

fn ablation_model_vs_sim() {
    use rekey_core::one_tree::OneTreeManager;
    use rekey_core::partition::{QtManager, TtManager};
    use rekey_core::GroupKeyManager;
    use rekey_testkit::{run_measured, GenParams, Paper, RunOptions, Workload};

    let n = 2048usize;
    let (warmup, measured) = (15usize, 40usize);
    let params = GenParams {
        bootstrap: n,
        ..GenParams::default()
    };
    let scenario = Paper::default().compile(4242, warmup + measured, &params);
    let model = PartitionParams {
        group_size: n as u64,
        ..PartitionParams::paper_default()
    };
    let simulate = |mgr: fn() -> Box<dyn GroupKeyManager>| {
        let opts = RunOptions {
            check: false,
            ..RunOptions::default()
        };
        let (_, keys) = run_measured(&|_| mgr(), &scenario, &opts, warmup).expect("unchecked run");
        keys.mean
    };
    let costs = model.costs();
    let rows = vec![
        (
            "one-keytree",
            simulate(|| Box::new(OneTreeManager::new(4))),
            costs.one_keytree,
        ),
        (
            "tt-scheme",
            simulate(|| Box::new(TtManager::new(4, 10))),
            costs.tt,
        ),
        (
            "qt-scheme",
            simulate(|| Box::new(QtManager::new(4, 10))),
            costs.qt,
        ),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, sim, model)| {
            vec![
                name.to_string(),
                fmt(*sim, 0),
                fmt(*model, 0),
                fmt(sim / model, 3),
            ]
        })
        .collect();
    print_table(
        "Ablation 6 — executable system vs §3.3.1 model (N=2048, K=10)",
        &["scheme", "simulated", "model", "ratio"],
        &table,
    );
    write_csv(
        "ablation_model_vs_sim",
        &["scheme", "simulated", "model", "ratio"],
        &table,
    );
    for (name, sim, model) in rows {
        assert!(
            (sim / model - 1.0).abs() < 0.15,
            "{name}: simulation {sim:.0} deviates from model {model:.0}"
        );
    }
    println!("[info] simulation within 15% of the analytic model for every scheme");
}

fn ablation_probabilistic_tree() {
    use rekey_analytic::probabilistic::{
        expected_eviction_cost_balanced, expected_eviction_cost_huffman,
    };
    // [SMS00] (§2.3): organize the tree by revocation probability.
    // Population: a churner fraction is `ratio`× more likely to be
    // revoked than the stable majority.
    let n = 4096usize;
    let d = 4usize;
    let balanced = expected_eviction_cost_balanced(n, d);
    let headers = [
        "churner fraction",
        "churner weight",
        "Huffman cost",
        "balanced",
        "gain%",
    ];
    let mut rows = Vec::new();
    for (frac, ratio) in [(0.1, 10.0), (0.1, 50.0), (0.3, 10.0), (0.5, 5.0)] {
        let churners = (frac * n as f64) as usize;
        let mut weights = vec![1.0f64; n];
        for w in weights.iter_mut().take(churners) {
            *w = ratio;
        }
        let huff = expected_eviction_cost_huffman(&weights, d);
        rows.push(vec![
            fmt(frac, 1),
            fmt(ratio, 0),
            fmt(huff, 1),
            fmt(balanced, 1),
            fmt(100.0 * (1.0 - huff / balanced), 1),
        ]);
    }
    print_table(
        "Ablation 7 — probabilistic (Huffman) tree organization [SMS00], N=4096 d=4",
        &headers,
        &rows,
    );
    write_csv("ablation_probabilistic", &headers, &rows);
    println!(
        "[info] like the PT-scheme, this requires knowing revocation probabilities in advance (§3.4)"
    );
}

fn ablation_degree_sweep() {
    // The paper fixes d = 4; sweep the degree to show why: for batched
    // rekeying the cost Ne(N, L) is minimized around d = 4 (the
    // classic LKH result).
    let (n, l) = (65536u64, 1684.0f64);
    let headers = ["degree d", "Ne(N, J)", "vs d=4"];
    let baseline = ne(n, l, 4);
    let rows: Vec<Vec<String>> = [2u32, 3, 4, 6, 8, 16]
        .iter()
        .map(|&d| {
            let cost = ne(n, l, d);
            vec![
                d.to_string(),
                fmt(cost, 0),
                format!("{:+.1}%", 100.0 * (cost / baseline - 1.0)),
            ]
        })
        .collect();
    print_table(
        "Ablation 8 — key-tree degree sweep (Table 1 workload)",
        &headers,
        &rows,
    );
    write_csv("ablation_degree_sweep", &headers, &rows);
    let d2 = ne(n, l, 2);
    let d16 = ne(n, l, 16);
    assert!(
        baseline < d2 && baseline < d16,
        "d=4 should beat the extremes: d2={d2:.0} d4={baseline:.0} d16={d16:.0}"
    );
    println!("[info] d = 4 is near-optimal for batched rekeying, as the paper assumes");
}

fn main() {
    ablation_qt_tt_crossover();
    ablation_k_trees();
    ablation_packing();
    ablation_ne_exact();
    ablation_oft_vs_lkh();
    ablation_model_vs_sim();
    ablation_probabilistic_tree();
    ablation_degree_sweep();
}
