//! One function per paper figure. Each returns a [`Figure`] with the same
//! series the paper plots, plus notes comparing against the paper's
//! reading. [`FIGURES`] is the name → function table the `figures`
//! binary is driven by.

use lpbcast_analysis::infection::{InfectionModel, InfectionParams};
use lpbcast_analysis::math::{fit_logarithmic, r_squared_logarithmic};
use lpbcast_analysis::partition;
use lpbcast_analysis::reliability::SirModel;
use lpbcast_core::Config;
use lpbcast_membership::TruncationStrategy;
use lpbcast_pbcast::PbcastConfig;
use lpbcast_sim::experiment::{
    infection_curve, lpbcast_view_stats, reliability, InitialTopology, LpbcastSimParams,
    PbcastMembershipKind, PbcastSimParams, ReliabilityRun, Sweep,
};

use crate::output::Figure;
use crate::seeds;

/// Paper constants (§4.1, §5.2).
pub const EPSILON: f64 = 0.05;
/// Crash fraction τ (§4.1).
pub const TAU: f64 = 0.01;
/// Measurement system size (§5.2: two LANs with 60 + 65 workstations).
pub const N_MEASURED: usize = 125;

fn lpbcast_config(l: usize, fanout: usize, ids_max: usize) -> Config {
    // §5.2 "Notification list size = 60" is read as bounding both
    // notification buffers: |eventIds|m (the swept parameter) and
    // |events|m.
    Config::builder()
        .view_size(l)
        .fanout(fanout)
        .event_ids_max(ids_max)
        .events_max(60)
        .deliver_on_digest(true)
        .build()
}

/// Fig. 2 — analysis: expected #infected per round for F = 3..6, n = 125.
pub fn fig2() -> Figure {
    let rounds = 10u64;
    let mut columns = vec!["round".to_string()];
    let mut curves = Vec::new();
    for fanout in 3..=6 {
        columns.push(format!("F={fanout}"));
        let mut model = InfectionModel::new(
            InfectionParams::new(N_MEASURED, fanout)
                .loss_rate(EPSILON)
                .crash_rate(TAU),
        );
        curves.push(model.expected_curve(rounds));
    }
    let mut fig = Figure::new(
        "fig2",
        "Analysis: expected infected processes per round, n=125, F=3..6",
        columns,
    );
    for r in 0..=rounds as usize {
        let mut row = vec![r as f64];
        row.extend(curves.iter().map(|c| c[r]));
        fig.push_row(row);
    }
    fig.note("Paper: higher F infects faster but the gain is sub-linear (§4.3).");
    let r3 = InfectionModel::rounds_to_expected_fraction(
        InfectionParams::new(N_MEASURED, 3)
            .loss_rate(EPSILON)
            .crash_rate(TAU),
        0.99,
        50,
    )
    .expect("converges");
    let r6 = InfectionModel::rounds_to_expected_fraction(
        InfectionParams::new(N_MEASURED, 6)
            .loss_rate(EPSILON)
            .crash_rate(TAU),
        0.99,
        50,
    )
    .expect("converges");
    fig.note(format!(
        "Measured: rounds to 99% — F=3: {r3:.2}, F=6: {r6:.2}"
    ));
    fig
}

/// Fig. 3(a) — analysis: expected #infected per round for n = 125..1000.
pub fn fig3a() -> Figure {
    let rounds = 10u64;
    let sizes = [125, 250, 375, 500, 625, 750, 875, 1000];
    let mut columns = vec!["round".to_string()];
    let mut curves = Vec::new();
    for &n in &sizes {
        columns.push(format!("n={n}"));
        let mut model = InfectionModel::new(
            InfectionParams::new(n, 3)
                .loss_rate(EPSILON)
                .crash_rate(TAU),
        );
        curves.push(model.expected_curve(rounds));
    }
    let mut fig = Figure::new(
        "fig3a",
        "Analysis: expected infected processes per round, F=3, n=125..1000",
        columns,
    );
    for r in 0..=rounds as usize {
        let mut row = vec![r as f64];
        row.extend(curves.iter().map(|c| c[r]));
        fig.push_row(row);
    }
    fig.note("Paper: all system sizes converge within ~10 rounds at F=3.");
    fig
}

/// Fig. 3(b) — analysis: expected rounds to infect 99 % vs n (logarithmic
/// growth).
pub fn fig3b() -> Figure {
    let mut fig = Figure::new(
        "fig3b",
        "Analysis: expected rounds to infect 99% of the system, F=3",
        vec!["n".to_string(), "rounds_to_99pct".to_string()],
    );
    let mut points = Vec::new();
    for n in (100..=1000).step_by(50) {
        let r = InfectionModel::rounds_to_expected_fraction(
            InfectionParams::new(n, 3)
                .loss_rate(EPSILON)
                .crash_rate(TAU),
            0.99,
            60,
        )
        .expect("converges");
        points.push((n as f64, r));
        fig.push_row(vec![n as f64, r]);
    }
    let (a, b) = fit_logarithmic(&points);
    let r2 = r_squared_logarithmic(&points, a, b);
    fig.note(format!(
        "Logarithmic fit: rounds ≈ {a:.3} + {b:.3}·ln(n), R² = {r2:.4} (paper: \"increases logarithmically\", §4.3)"
    ));
    fig.note("Paper reads ≈5.2 rounds at n=100 rising to ≈6.8 at n=1000.");
    fig
}

/// Fig. 4 — analysis: partition probability Ψ(i, n, l) vs partition size,
/// l = 3, n ∈ {50, 75, 125}.
pub fn fig4() -> Figure {
    let l = 3usize;
    let sizes = [50usize, 75, 125];
    let mut columns = vec!["partition_size_i".to_string()];
    columns.extend(sizes.iter().map(|n| format!("n={n}")));
    let mut fig = Figure::new(
        "fig4",
        "Analysis: probability of a partition of size i, l=3",
        columns,
    );
    for i in (l + 1)..=50 {
        let mut row = vec![i as f64];
        for &n in &sizes {
            let v = if i < n && i <= n / 2 {
                partition::psi(i, n, l)
            } else {
                0.0
            };
            row.push(v);
        }
        fig.push_row(row);
    }
    fig.note("Paper: Ψ monotonically decreases when increasing n or l (§4.4); curves ordered n=50 > n=75 > n=125.");
    let r90 = partition::rounds_to_partition_probability(50, 3, 0.9);
    fig.note(format!(
        "Rounds to partition with probability 0.9 at n=50, l=3: {r90:.3e} (paper quotes ≈1e12; verbatim Eq. 4 gives an even more stable system — see EXPERIMENTS.md)"
    ));
    fig
}

/// Fig. 5(a) — analysis vs simulation: infected per round for
/// n ∈ {125, 250, 500}.
pub fn fig5a() -> Figure {
    let rounds = 10u64;
    let sizes = [125usize, 250, 500];
    let seed_list = seeds(32, 0x5A);
    let mut columns = vec!["round".to_string()];
    for &n in &sizes {
        columns.push(format!("n={n} theory"));
        columns.push(format!("n={n} sim"));
    }
    let mut theory = Vec::new();
    let mut sim = Vec::new();
    for &n in &sizes {
        let mut model = InfectionModel::new(
            InfectionParams::new(n, 3)
                .loss_rate(EPSILON)
                .crash_rate(TAU),
        );
        theory.push(model.expected_curve(rounds));
        let params = LpbcastSimParams::paper_defaults(n).rounds(rounds);
        sim.push(infection_curve(Sweep::Pool, &params, &seed_list));
    }
    let mut fig = Figure::new(
        "fig5a",
        "Analysis vs simulation: infected per round, F=3",
        columns,
    );
    for r in 0..=rounds as usize {
        let mut row = vec![r as f64];
        for k in 0..sizes.len() {
            row.push(theory[k][r]);
            row.push(sim[k][r]);
        }
        fig.push_row(row);
    }
    // Quantify the correlation the paper claims ("very good correlation").
    for (k, &n) in sizes.iter().enumerate() {
        let max_gap = theory[k]
            .iter()
            .zip(&sim[k])
            .map(|(t, s)| (t - s).abs() / n as f64)
            .fold(0.0f64, f64::max);
        fig.note(format!(
            "n={n}: max |theory − sim| = {:.1}% of n over {} seeds",
            max_gap * 100.0,
            seed_list.len()
        ));
    }
    fig
}

/// Fig. 5(b) — simulation: infected per round for l ∈ {10, 15, 20},
/// n = 125.
pub fn fig5b() -> Figure {
    let rounds = 8u64;
    let views = [10usize, 15, 20];
    let seed_list = seeds(32, 0x5B);
    let mut columns = vec!["round".to_string()];
    columns.extend(views.iter().map(|l| format!("l={l}")));
    let mut fig = Figure::new(
        "fig5b",
        "Simulation: infected per round for different view sizes, n=125, F=3",
        columns,
    );
    let mut curves = Vec::new();
    for &l in &views {
        let params = LpbcastSimParams::paper_defaults(N_MEASURED)
            .config(lpbcast_config(l, 3, 60))
            .rounds(rounds);
        curves.push(infection_curve(Sweep::Pool, &params, &seed_list));
    }
    for r in 0..=rounds as usize {
        let mut row = vec![r as f64];
        row.extend(curves.iter().map(|c| c[r]));
        fig.push_row(row);
    }
    fig.note("Paper: a slight dependency on l (larger l infects marginally faster), contradicting the uniform-view analysis only mildly (§5.1).");
    fig
}

/// The Fig. 6 measurement workload: 40 events per round.
fn measurement_run() -> ReliabilityRun {
    ReliabilityRun {
        warmup: 10,
        publish_rounds: 20,
        rate: 40,
        drain: 10,
    }
}

/// Fig. 6(a) — reliability vs view size l, |eventIds|m = 60, rate 40.
pub fn fig6a() -> Figure {
    let seed_list = seeds(8, 0x6A);
    let mut fig = Figure::new(
        "fig6a",
        "Measurement-mode simulation: reliability vs view size, n=125, F=3, |eventIds|m=60, 40 msg/round",
        vec!["view_size_l".to_string(), "reliability".to_string()],
    );
    for l in [15usize, 20, 25, 30, 35] {
        let params = LpbcastSimParams::paper_defaults(N_MEASURED).config(lpbcast_config(l, 3, 60));
        let reliability = reliability(Sweep::Pool, &params, &measurement_run(), &seed_list);
        fig.push_row(vec![l as f64, reliability]);
    }
    fig.note("Paper band: reliability ≈0.88–0.99, improving slightly with l (Fig. 6(a) y-axis runs 0.8–1.0).");
    fig
}

/// Fig. 6(b) — reliability vs |eventIds|m, l = 15, rate 40.
pub fn fig6b() -> Figure {
    let seed_list = seeds(8, 0x6B);
    let mut fig = Figure::new(
        "fig6b",
        "Measurement-mode simulation: reliability vs |eventIds|m, n=125, F=3, l=15, 40 msg/round",
        vec!["event_ids_max".to_string(), "reliability".to_string()],
    );
    for ids_max in [10usize, 20, 30, 40, 60, 80, 100, 120] {
        let params =
            LpbcastSimParams::paper_defaults(N_MEASURED).config(lpbcast_config(15, 3, ids_max));
        let reliability = reliability(Sweep::Pool, &params, &measurement_run(), &seed_list);
        fig.push_row(vec![ids_max as f64, reliability]);
    }
    fig.note("Paper: strong dependency — reliability climbs from ≈0.2–0.3 at tiny buffers towards ≈1 near 120 (Fig. 6(b)).");
    fig.note("Mechanism: an id only spreads while buffered; at rate 40/round a buffer of B ids is B/40 rounds of infectivity (SIR epidemic).");
    fig
}

/// Fig. 7(a) — lpbcast vs pbcast (partial and total view), n = 125,
/// l = 15, F = 5.
pub fn fig7a() -> Figure {
    let rounds = 6u64;
    let seed_list = seeds(32, 0x7A);
    let lp_params = LpbcastSimParams::paper_defaults(N_MEASURED)
        .config(lpbcast_config(15, 5, 60))
        .rounds(rounds);
    let lp = infection_curve(Sweep::Pool, &lp_params, &seed_list);
    let pb_partial = infection_curve(
        Sweep::Pool,
        &PbcastSimParams::figure7_defaults(N_MEASURED, PbcastMembershipKind::Partial { l: 15 })
            .rounds(rounds),
        &seed_list,
    );
    let pb_total = infection_curve(
        Sweep::Pool,
        &PbcastSimParams::figure7_defaults(N_MEASURED, PbcastMembershipKind::Total).rounds(rounds),
        &seed_list,
    );

    let mut fig = Figure::new(
        "fig7a",
        "Simulation: infected per round — lpbcast vs pbcast, n=125, l=15, F=5",
        vec![
            "round".to_string(),
            "lpbcast".to_string(),
            "pbcast partial view".to_string(),
            "pbcast total view".to_string(),
        ],
    );
    for r in 0..=rounds as usize {
        fig.push_row(vec![r as f64, lp[r], pb_partial[r], pb_total[r]]);
    }
    fig.note("Paper: lpbcast leads because hops and repetitions are unlimited (§6.2); pbcast partial ≈ pbcast total.");
    fig
}

/// Fig. 7(b) — pbcast with partial view: reliability vs l, F = 5.
pub fn fig7b() -> Figure {
    let seed_list = seeds(8, 0x7B);
    let mut fig = Figure::new(
        "fig7b",
        "Measurement-mode simulation: pbcast + partial view reliability vs l, n=125, F=5, |history|=60, 40 msg/round",
        vec!["view_size_l".to_string(), "reliability".to_string()],
    );
    for l in [15usize, 20, 25, 30, 35] {
        let params =
            PbcastSimParams::figure7_defaults(N_MEASURED, PbcastMembershipKind::Partial { l })
                .config(
                    PbcastConfig::builder()
                        .fanout(5)
                        .first_phase(false)
                        .pull(false)
                        .deliver_on_digest(true)
                        .history_max(60)
                        .build(),
                );
        let reliability = reliability(Sweep::Pool, &params, &measurement_run(), &seed_list);
        fig.push_row(vec![l as f64, reliability]);
    }
    fig.note("Paper: results similar to lpbcast's Fig. 6(a) (≈0.88–0.99 band), slightly improving with l.");
    fig
}

/// §6.1 ablation — gossiping membership data only every k-th round hurts;
/// the paper tried k > 1 and observed *increased* latency / decreased
/// reliability.
///
/// Starting from already-uniform views the effect is invisible (nothing
/// needs mixing), so the ablation starts from the worst case: a clustered
/// ring topology that only membership gossip can randomize.
pub fn ablation_membership_freq() -> Figure {
    let seed_list = seeds(8, 0xAB1);
    let mut fig = Figure::new(
        "ablation_membership_freq",
        "Ablation (§6.1): membership gossiped every k-th round, clustered start, n=125, F=3, l=15",
        vec![
            "k".to_string(),
            "reliability".to_string(),
            "round4_coverage".to_string(),
        ],
    );
    for k in [1u64, 2, 4, 8] {
        let config = Config::builder()
            .view_size(15)
            .fanout(3)
            .event_ids_max(60)
            .events_max(60)
            .deliver_on_digest(true)
            .membership_gossip_interval(k)
            .build();
        let params = LpbcastSimParams::paper_defaults(N_MEASURED)
            .config(config)
            .topology(InitialTopology::Ring);
        // Short warmup: the membership must mix *while* traffic flows.
        let run = ReliabilityRun {
            warmup: 2,
            publish_rounds: 20,
            rate: 40,
            drain: 10,
        };
        let reliability = reliability(Sweep::Pool, &params, &run, &seed_list);
        // Dissemination speed from the clustered start: coverage of one
        // event at round 4.
        let curve = infection_curve(Sweep::Pool, &params.clone().rounds(6), &seed_list);
        fig.push_row(vec![k as f64, reliability, curve[4]]);
    }
    fig.note("Paper (§6.1): \"this sanction leads to the opposite effect, i.e., latency increases (and thus reliability decreases)\".");
    fig.note("Clustered (ring) initial views; k = 1 mixes the membership fastest.");
    fig
}

/// Our §7 extension — the SIR buffer model (`lpbcast-analysis::reliability`)
/// against the measured reliability, across the Figure 6(b) sweep.
pub fn model_vs_sim() -> Figure {
    let seed_list = seeds(8, 0xA0D);
    let mut fig = Figure::new(
        "model_vs_sim",
        "Extension: SIR buffer model vs simulated reliability, n=125, F=3, l=15, 40 msg/round",
        vec![
            "event_ids_max".to_string(),
            "sim_reliability".to_string(),
            "sir_attack_rate".to_string(),
            "sir_expected_reliability".to_string(),
        ],
    );
    for ids_max in [10usize, 20, 30, 40, 60, 80, 100, 120] {
        let params =
            LpbcastSimParams::paper_defaults(N_MEASURED).config(lpbcast_config(15, 3, ids_max));
        let sim = reliability(Sweep::Pool, &params, &measurement_run(), &seed_list);
        let model = SirModel::from_buffers(3, EPSILON, TAU, ids_max, 40);
        fig.push_row(vec![
            ids_max as f64,
            sim,
            model.attack_rate(),
            model.expected_reliability(),
        ]);
    }
    fig.note("The mean-field model captures the direction and knee; the simulation sits between z² and z because re-learning of purged ids (SIS leakage) is not modelled.");
    fig
}

/// §6.1 ablation — weighted views vs uniform views: in-degree spread and
/// reliability.
pub fn ablation_weighted_views() -> Figure {
    let seed_list = seeds(8, 0xAB2);
    let mut fig = Figure::new(
        "ablation_weighted_views",
        "Ablation (§6.1): weighted vs uniform view maintenance, n=125, F=3, l=15",
        vec![
            "strategy(0=uniform,1=weighted)".to_string(),
            "reliability".to_string(),
            "indegree_cv".to_string(),
            "indegree_max".to_string(),
        ],
    );
    for (tag, strategy) in [
        (0.0, TruncationStrategy::Uniform),
        (1.0, TruncationStrategy::Weighted),
    ] {
        let config = Config::builder()
            .view_size(15)
            .fanout(3)
            .event_ids_max(60)
            .events_max(60)
            .deliver_on_digest(true)
            .strategy(strategy)
            .build();
        let params = LpbcastSimParams::paper_defaults(N_MEASURED).config(config);
        let reliability = reliability(Sweep::Pool, &params, &measurement_run(), &seed_list);
        // Average the degree statistics over several seeds.
        let mut cv = 0.0;
        let mut max = 0.0;
        for &s in &seed_list {
            let stats = lpbcast_view_stats(&params.clone().rounds(40), s);
            cv += stats.coefficient_of_variation();
            max += stats.max as f64;
        }
        cv /= seed_list.len() as f64;
        max /= seed_list.len() as f64;
        fig.push_row(vec![tag, reliability, cv, max]);
    }
    fig.note("Paper (§6.1): weights measure how well a process is known; evicting heavy entries and advertising light ones should pull in-degrees towards l.");
    fig
}

/// Extra diagnostic: view in-degree distribution vs the ideal `l` (§6.1),
/// part of `figures all` for context.
pub fn view_uniformity_diag() -> Figure {
    let mut fig = Figure::new(
        "view_uniformity",
        "Diagnostic: lpbcast view in-degree statistics over time, n=125, l=15",
        vec![
            "rounds".to_string(),
            "mean".to_string(),
            "std_dev".to_string(),
            "min".to_string(),
            "max".to_string(),
        ],
    );
    for rounds in [0u64, 5, 10, 20, 40, 80] {
        let params = LpbcastSimParams::paper_defaults(N_MEASURED).rounds(rounds);
        let stats = lpbcast_view_stats(&params, 0xD1A6);
        fig.push_row(vec![
            rounds as f64,
            stats.mean,
            stats.std_dev,
            stats.min as f64,
            stats.max as f64,
        ]);
    }
    fig.note("Ideal (§6.1): every process known by exactly l = 15 others.");
    fig
}

/// One row of the [`FIGURES`] table: a name and the function that
/// regenerates the figure. The name is also the stem of the TSV the
/// figure writes.
pub type FigureEntry = (&'static str, fn() -> Figure);

/// Every figure the harness can regenerate, in the order `figures all`
/// emits them and `figures --list` prints them.
pub const FIGURES: &[FigureEntry] = &[
    ("fig2", fig2),
    ("fig3a", fig3a),
    ("fig3b", fig3b),
    ("fig4", fig4),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("ablation_membership_freq", ablation_membership_freq),
    ("model_vs_sim", model_vs_sim),
    ("ablation_weighted_views", ablation_weighted_views),
    ("view_uniformity", view_uniformity_diag),
];

/// Resolves the `figures` binary's positional arguments against
/// [`FIGURES`]: `all` anywhere selects every figure once, in table
/// order; otherwise the named figures, in the order given.
///
/// # Errors
///
/// Returns the names the table does not know.
pub fn select(names: &[String]) -> Result<Vec<FigureEntry>, Vec<String>> {
    let entry = |name: &String| FIGURES.iter().find(|(figure, _)| figure == name).copied();
    let unknown: Vec<String> = names
        .iter()
        .filter(|name| *name != "all" && entry(name).is_none())
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    if names.iter().any(|name| name == "all") {
        return Ok(FIGURES.to_vec());
    }
    Ok(names.iter().filter_map(entry).collect())
}

/// Checks the directional claims of the paper on already-computed
/// figures and returns human-readable pass/fail lines.
///
/// # Panics
///
/// Panics unless `figures` holds `fig2`, `fig3b`, `fig4` and `fig7a`.
pub fn headline_checks(figures: &[Figure]) -> Vec<(String, bool)> {
    let figure = |id: &str| {
        let found = figures.iter().find(|f| f.id == id);
        found.unwrap_or_else(|| panic!("the headline checks need {id}"))
    };
    let mut checks = Vec::new();

    let f2 = figure("fig2");
    let last = f2.rows.last().expect("rows");
    checks.push((
        "fig2: F=6 infects at least as fast as F=3 at every round".to_string(),
        f2.rows.iter().all(|r| r[4] + 1e-9 >= r[1]),
    ));
    checks.push((
        "fig2: all fanouts near-saturate n=125 by round 10".to_string(),
        last[1..].iter().all(|&v| v > 120.0),
    ));

    let f3b = figure("fig3b");
    checks.push((
        "fig3b: rounds-to-99% increase with n".to_string(),
        f3b.rows.windows(2).all(|w| w[1][1] >= w[0][1] - 0.05),
    ));

    let f4 = figure("fig4");
    checks.push((
        "fig4: Ψ(n=50) ≥ Ψ(n=125) wherever both partition sizes are legal".to_string(),
        f4.rows
            .iter()
            .filter(|r| r[0] <= 25.0) // i ≤ n/2 for n = 50
            .all(|r| r[1] >= r[3]),
    ));

    let f7a = figure("fig7a");
    let lp_area: f64 = f7a.rows.iter().map(|r| r[1]).sum();
    let pb_area: f64 = f7a.rows.iter().map(|r| r[2]).sum();
    checks.push((
        "fig7a: lpbcast dominates pbcast-partial in cumulative infection".to_string(),
        lp_area >= pb_area,
    ));

    checks
}
