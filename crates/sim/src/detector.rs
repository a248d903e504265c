//! SWIM failure-detector A/B arm: the same catastrophe/churn loads run
//! once with the [`Swim`] wrapper around lpbcast and once without, under
//! named [`FaultSpec`] models.
//!
//! The question the arm answers is the one the paper leaves to its
//! buffer-decay mechanisms (§4.1 treats crashed processes as mere
//! message loss): *does explicit failure detection pay for itself?*
//! Three measurements, all deterministic per `(params, seed)`:
//!
//! * **Recovery** — after a correlated crash of 30% of the membership,
//!   how many rounds until a probe broadcast reaches ≥ 99% of the
//!   survivors? Without a detector, the dead linger in partial views
//!   and soak up fanout until random truncation happens to evict them;
//!   with SWIM, confirmed failures are purged via
//!   [`Protocol::evict`](lpbcast_types::Protocol::evict) within a few
//!   probe periods, so gossip stops being wasted on corpses.
//! * **False positives** — under noisy fault models where *nobody* is
//!   dead ([`FaultSpec::noisy_links`], [`FaultSpec::slow_cohort`]),
//!   every eviction is a detector mistake. The arm counts evictions of
//!   never-crashed processes across all nodes, and the refutations that
//!   saved the rest (a suspected-but-alive node bumps its incarnation,
//!   §SWIM): the precision half of the accuracy/speed trade.
//! * **Churn neutrality** — the full churn scenario with the wrapper
//!   in place must keep joining, leaving and disseminating like the
//!   unwrapped protocol.
//!
//! `bench_sim` renders a [`DetectorStudy`] into `BENCH_sim.json`'s
//! `detector` section and `results/detector.tsv`; `bench_gate.py` reads
//! the committed rows as soft quality gates.

use lpbcast_core::{Config, Lpbcast, Message};
use lpbcast_membership::{Swim, SwimConfig, SwimMsg};
use lpbcast_net::WireMessage;
use lpbcast_pbcast::{Pbcast, PbcastMessage};
use lpbcast_types::{Payload, ProcessId, Protocol};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::Engine;
use crate::fault::FaultSpec;
use crate::scenario::spec::{run_scenario_spec, ProtocolKind, ScenarioGenerator, ScenarioSpec};
use crate::scenario::{build_engine, LeaveRefused, PbcastScenarioCfg, ScenarioProtocol};
use crate::topology::sample_distinct;
use crate::topology::InitialTopology::UniformRandom;

/// The SWIM-wrapped lpbcast stack the detector arm exercises. Also a
/// first-class [`ScenarioProtocol`]: the whole scenario suite (churn,
/// catastrophe, partition) runs against `Swim<Lpbcast>` unchanged.
pub type SwimLpbcast = Swim<Lpbcast>;

/// Scenario configuration of a wrapped stack: the inner protocol's
/// scenario configuration plus the detector's timing knobs. Defaults to
/// the lpbcast [`Config`] so PR 6-era call sites keep reading
/// `SwimScenarioCfg { inner, swim }` unchanged.
#[derive(Debug, Clone)]
pub struct SwimScenarioCfg<C = Config> {
    /// Inner protocol configuration.
    pub inner: C,
    /// Detector configuration.
    pub swim: SwimConfig,
}

impl ScenarioProtocol for Swim<Lpbcast> {
    type Cfg = SwimScenarioCfg;

    const NAME: &'static str = "swim+lpbcast";

    fn scaled_cfg(n: usize) -> SwimScenarioCfg {
        SwimScenarioCfg {
            inner: Lpbcast::scaled_cfg(n),
            swim: SwimConfig::scaled(n),
        }
    }

    fn size_for_leave_rate(cfg: &mut SwimScenarioCfg, leaves_per_round: usize) {
        Lpbcast::size_for_leave_rate(&mut cfg.inner, leaves_per_round);
    }

    fn view_size(cfg: &SwimScenarioCfg) -> usize {
        Lpbcast::view_size(&cfg.inner)
    }

    fn bootstrap(id: ProcessId, cfg: &SwimScenarioCfg, seed: u64, members: Vec<ProcessId>) -> Self {
        Swim::new(
            Lpbcast::bootstrap(id, &cfg.inner, seed, members),
            cfg.swim.clone(),
            seed,
        )
    }

    fn joiner(id: ProcessId, cfg: &SwimScenarioCfg, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Swim::new(
            Lpbcast::joiner(id, &cfg.inner, seed, contacts),
            cfg.swim.clone(),
            seed,
        )
    }

    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        self.inner_mut().request_leave()
    }

    fn join_pending(&self) -> bool {
        self.inner().join_pending()
    }

    fn leave_pending(&self) -> bool {
        self.inner().leave_pending()
    }

    /// The inner bridge wrapped with an empty piggyback — the §3.4
    /// `Subscribe` travels through the detector layer like any other
    /// inner message.
    fn bridge(from: ProcessId) -> SwimMsg<Message> {
        SwimMsg::Wrapped {
            inner: Lpbcast::bridge(from),
            updates: Vec::new(),
        }
    }

    /// A Byzantine wrapper node lies through the detector layer too:
    /// the inner payload is withheld, but pings, acks and membership
    /// piggybacks flow — the liar stays impeccably *alive*.
    fn withhold(msg: &mut SwimMsg<Message>) -> bool {
        match msg {
            SwimMsg::Wrapped { inner, .. } => Lpbcast::withhold(inner),
            _ => true,
        }
    }

    fn strict_delivery(cfg: &mut SwimScenarioCfg) {
        Lpbcast::strict_delivery(&mut cfg.inner);
    }
}

/// The SWIM-wrapped pbcast baseline, so the A/B arm and the scenario
/// matrix can ask whether explicit failure detection pays off for the
/// *flat-membership* protocol too (the ROADMAP's open pbcast arm).
impl ScenarioProtocol for Swim<Pbcast> {
    type Cfg = SwimScenarioCfg<PbcastScenarioCfg>;

    const NAME: &'static str = "swim+pbcast";

    fn scaled_cfg(n: usize) -> Self::Cfg {
        SwimScenarioCfg {
            inner: Pbcast::scaled_cfg(n),
            swim: SwimConfig::scaled(n),
        }
    }

    fn size_for_leave_rate(cfg: &mut Self::Cfg, leaves_per_round: usize) {
        Pbcast::size_for_leave_rate(&mut cfg.inner, leaves_per_round);
    }

    fn view_size(cfg: &Self::Cfg) -> usize {
        Pbcast::view_size(&cfg.inner)
    }

    fn bootstrap(id: ProcessId, cfg: &Self::Cfg, seed: u64, members: Vec<ProcessId>) -> Self {
        Swim::new(
            Pbcast::bootstrap(id, &cfg.inner, seed, members),
            cfg.swim.clone(),
            seed,
        )
    }

    fn joiner(id: ProcessId, cfg: &Self::Cfg, seed: u64, contacts: Vec<ProcessId>) -> Self {
        Swim::new(
            Pbcast::joiner(id, &cfg.inner, seed, contacts),
            cfg.swim.clone(),
            seed,
        )
    }

    fn request_leave(&mut self) -> Result<(), LeaveRefused> {
        self.inner_mut().request_leave()
    }

    fn join_pending(&self) -> bool {
        self.inner().join_pending()
    }

    fn leave_pending(&self) -> bool {
        self.inner().leave_pending()
    }

    fn bridge(from: ProcessId) -> SwimMsg<PbcastMessage> {
        SwimMsg::Wrapped {
            inner: Pbcast::bridge(from),
            updates: Vec::new(),
        }
    }

    fn withhold(msg: &mut SwimMsg<PbcastMessage>) -> bool {
        match msg {
            SwimMsg::Wrapped { inner, .. } => Pbcast::withhold(inner),
            _ => true,
        }
    }

    fn strict_delivery(cfg: &mut Self::Cfg) {
        Pbcast::strict_delivery(&mut cfg.inner);
    }
}

// ───────────────────────────── the A/B arm ───────────────────────────

/// Parameters of one detector A/B study.
#[derive(Debug, Clone)]
pub struct DetectorParams {
    /// System size.
    pub n: usize,
    /// Uniform message-loss probability ε (on top of any fault spec).
    pub loss_rate: f64,
    /// Fraction crashed in the catastrophe round.
    pub crash_fraction: f64,
    /// Quiet rounds before any measurement (view mixing; with the
    /// detector on, also its first probe sweeps).
    pub warmup: u64,
    /// Rounds between the catastrophe and the recovery probe, applied
    /// identically to both arms: the time the detector has to confirm
    /// and evict the crash cohort (one probe cycle plus the suspect
    /// timeout plus dissemination). The baseline arm just waits.
    pub detect_gap: u64,
    /// Cap on the recovery measurement.
    pub max_recovery_rounds: u64,
    /// Rounds of the no-crash false-positive window.
    pub noise_rounds: u64,
    /// Inner lpbcast configuration.
    pub config: Config,
    /// Detector configuration.
    pub swim: SwimConfig,
}

impl DetectorParams {
    /// The §5-scaled study at size `n`: 45% correlated crash, the same
    /// ε = 5% baseline loss the scenario suite uses. The crash cohort
    /// is harsher than the scenario suite's 30% on purpose: stale-view
    /// fanout waste grows with the dead fraction, so this is the regime
    /// where eviction-vs-passive-decay differences clear the one-round
    /// quantization of the recovery measurement.
    pub fn scaled(n: usize) -> Self {
        let swim = SwimConfig::scaled(n);
        DetectorParams {
            n,
            loss_rate: 0.05,
            crash_fraction: 0.45,
            warmup: 8,
            // One probe cycle to notice the silence, the suspect
            // timeout to confirm, and then the Confirm flood itself:
            // with crash_fraction·n deaths the piggyback queue carries
            // thousands of distinct updates, and epidemic coverage of
            // the survivors takes O(log n) extra rounds (measured in
            // `diag_dead_view_fraction`: at n=10⁴ survivors' views are
            // ~35% dead entries ten rounds post-crash but ~14% vs the
            // baseline's ~29% at twenty). Deliberately no longer than
            // that: lpbcast's passive view rotation (§3.4 subs swaps)
            // also scrubs dead entries eventually, so an over-generous
            // window hands the baseline arm the same cleanup for free
            // and measures nothing.
            detect_gap: 6
                + swim.suspect_timeout
                + 2 * u64::from(n.max(2).ilog2().saturating_sub(8)),
            max_recovery_rounds: 40,
            noise_rounds: 30,
            config: Lpbcast::scaled_cfg(n),
            swim,
        }
    }
}

/// One arm (detector on *or* off) of one measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorArm {
    /// Rounds until the recovery probe reached ≥ 99% of survivors
    /// (`None` outside the catastrophe measurement or when the cap
    /// was hit).
    pub recovery_rounds: Option<u64>,
    /// Fraction of survivors the probe reached by the end of the
    /// measurement window.
    pub probe_reliability: f64,
    /// Total evictions across all nodes (0 with the detector off).
    pub evictions: u64,
    /// Evictions of processes that never crashed — detector mistakes.
    pub false_evictions: u64,
    /// Suspicions raised across all nodes.
    pub suspicions: u64,
    /// Suspicions refuted by an incarnation bump.
    pub refutations: u64,
}

/// One measurement of the study: the same load under the same fault
/// model, with and without the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorReport {
    /// Measurement label: `catastrophe` or `noise`.
    pub scenario: &'static str,
    /// Fault-model label: `none`, `noisy_links`, `slow_cohort`.
    pub fault: &'static str,
    /// System size.
    pub n: usize,
    /// The SWIM-wrapped arm.
    pub detector: DetectorArm,
    /// The unwrapped baseline arm.
    pub baseline: DetectorArm,
}

/// A full study: every (scenario × fault model) measurement plus the
/// churn-neutrality comparison.
#[derive(Debug, Clone)]
pub struct DetectorStudy {
    /// A/B measurements.
    pub reports: Vec<DetectorReport>,
    /// Churn mean reliability with the detector on.
    pub churn_reliability_with: f64,
    /// Churn mean reliability without.
    pub churn_reliability_without: f64,
    /// Churn joins completed with the detector on.
    pub churn_joins_with: usize,
    /// Churn joins completed without.
    pub churn_joins_without: usize,
}

/// Per-node detector counters summed over an engine (zero for the
/// baseline arm, which has no detector).
trait SwimCensus: Protocol + Sized {
    fn census(engine: &Engine<Self>, crashed: &[ProcessId]) -> (u64, u64, u64, u64);
}

impl SwimCensus for Lpbcast {
    fn census(_engine: &Engine<Self>, _crashed: &[ProcessId]) -> (u64, u64, u64, u64) {
        (0, 0, 0, 0)
    }
}

impl SwimCensus for Pbcast {
    fn census(_engine: &Engine<Self>, _crashed: &[ProcessId]) -> (u64, u64, u64, u64) {
        (0, 0, 0, 0)
    }
}

impl<P: Protocol> SwimCensus for Swim<P> {
    fn census(engine: &Engine<Self>, crashed: &[ProcessId]) -> (u64, u64, u64, u64) {
        let mut evictions = 0u64;
        let mut false_evictions = 0u64;
        let mut suspicions = 0u64;
        let mut refutations = 0u64;
        for (_, node) in engine.nodes() {
            evictions += node.evictions().len() as u64;
            false_evictions += node
                .evictions()
                .iter()
                .filter(|p| !crashed.contains(p))
                .count() as u64;
            suspicions += node.swim_stats().suspicions;
            refutations += node.swim_stats().refutations;
        }
        (evictions, false_evictions, suspicions, refutations)
    }
}

/// Runs one arm: optional fault plane, optional catastrophe, probe
/// dissemination, detector census.
#[allow(clippy::too_many_arguments)]
fn run_arm<P>(
    n: usize,
    cfg: &P::Cfg,
    loss_rate: f64,
    fault: Option<FaultSpec>,
    crash_fraction: f64,
    warmup: u64,
    detect_gap: u64,
    measure_rounds: u64,
    seed: u64,
) -> DetectorArm
where
    P: ScenarioProtocol + SwimCensus,
    P::Msg: WireMessage + Send + 'static,
{
    let mut engine = build_engine::<P>(UniformRandom, n, cfg, loss_rate, fault, seed);
    engine.run(warmup);

    // The catastrophe (if any): crash ⌊fraction·n⌋ processes at once,
    // sparing p0 so the probe has a publisher — the same victim stream
    // as the catastrophe scenario's `Crash` action.
    let mut crashed_ids: Vec<ProcessId> = Vec::new();
    if crash_fraction > 0.0 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6361_7461_7374_726F); // "catastro"
        let crashed = ((crash_fraction * n as f64).floor() as usize).min(n.saturating_sub(1));
        let mut victims = Vec::new();
        sample_distinct(&mut rng, n as u64 - 1, crashed, &mut victims);
        crashed_ids = victims.iter().map(|v| ProcessId::new(v + 1)).collect();
        for &v in &crashed_ids {
            engine.crash(v);
        }
        // The detection window: both arms idle for the same rounds, but
        // only the detector arm spends them confirming and evicting.
        engine.run(detect_gap);
    }
    let survivors = engine.alive_count();

    // Probe dissemination through whatever membership remains.
    let probe = engine.publish_from(ProcessId::new(0), Payload::from_static(b"detector-probe"));
    let probe_round = engine.round();
    let target = ((survivors as f64) * 0.99).ceil() as usize;
    let mut recovery_rounds = None;
    for _ in 0..measure_rounds {
        engine.step();
        if recovery_rounds.is_none() && engine.tracker().infected_count(probe) >= target {
            recovery_rounds = Some(engine.round() - probe_round);
            if crash_fraction > 0.0 {
                break;
            }
        }
    }

    let (evictions, false_evictions, suspicions, refutations) = P::census(&engine, &crashed_ids);
    DetectorArm {
        recovery_rounds,
        probe_reliability: engine.tracker().reliability_of(probe, survivors),
        evictions,
        false_evictions,
        suspicions,
        refutations,
    }
}

/// Runs one A/B measurement over any inner stack: the same
/// `(fault, crash, seed)` with and without the detector wrapper.
#[allow(clippy::too_many_arguments)]
fn ab_measurement_on<P>(
    scenario: &'static str,
    fault_name: &'static str,
    fault: Option<FaultSpec>,
    crash_fraction: f64,
    inner_cfg: &P::Cfg,
    params: &DetectorParams,
    measure_rounds: u64,
    seed: u64,
) -> DetectorReport
where
    P: ScenarioProtocol + SwimCensus,
    P::Msg: WireMessage + Send + 'static,
    Swim<P>: ScenarioProtocol<Cfg = SwimScenarioCfg<P::Cfg>, Msg = SwimMsg<P::Msg>> + SwimCensus,
    SwimMsg<P::Msg>: WireMessage,
{
    let swim_cfg = SwimScenarioCfg {
        inner: inner_cfg.clone(),
        swim: params.swim.clone(),
    };
    let detector = run_arm::<Swim<P>>(
        params.n,
        &swim_cfg,
        params.loss_rate,
        fault,
        crash_fraction,
        params.warmup,
        params.detect_gap,
        measure_rounds,
        seed,
    );
    let baseline = run_arm::<P>(
        params.n,
        inner_cfg,
        params.loss_rate,
        fault,
        crash_fraction,
        params.warmup,
        params.detect_gap,
        measure_rounds,
        seed,
    );
    DetectorReport {
        scenario,
        fault: fault_name,
        n: params.n,
        detector,
        baseline,
    }
}

/// [`ab_measurement_on`] over the lpbcast stack with the study's own
/// configuration (the PR 6 measurement set).
fn ab_measurement(
    scenario: &'static str,
    fault_name: &'static str,
    fault: Option<FaultSpec>,
    crash_fraction: f64,
    params: &DetectorParams,
    measure_rounds: u64,
    seed: u64,
) -> DetectorReport {
    ab_measurement_on::<Lpbcast>(
        scenario,
        fault_name,
        fault,
        crash_fraction,
        &params.config,
        params,
        measure_rounds,
        seed,
    )
}

/// Runs the full study: catastrophe recovery under a clean and a noisy
/// network, false-positive windows under two no-crash noise models, and
/// the churn-neutrality comparison. Deterministic per `(params, seed)`.
pub fn detector_study(params: &DetectorParams, seed: u64) -> DetectorStudy {
    let reports = vec![
        ab_measurement(
            "catastrophe",
            "none",
            None,
            params.crash_fraction,
            params,
            params.max_recovery_rounds,
            seed,
        ),
        ab_measurement(
            "catastrophe",
            "noisy_links",
            Some(FaultSpec::noisy_links(seed)),
            params.crash_fraction,
            params,
            params.max_recovery_rounds,
            seed,
        ),
        ab_measurement(
            "noise",
            "noisy_links",
            Some(FaultSpec::noisy_links(seed)),
            0.0,
            params,
            params.noise_rounds,
            seed,
        ),
        ab_measurement(
            "noise",
            "slow_cohort",
            Some(FaultSpec::slow_cohort(seed)),
            0.0,
            params,
            params.noise_rounds,
            seed,
        ),
        // The pbcast arm the ROADMAP asks for: the same catastrophe
        // A/B against the flat-membership baseline.
        ab_measurement_on::<Pbcast>(
            "catastrophe_pbcast",
            "none",
            None,
            params.crash_fraction,
            &Pbcast::scaled_cfg(params.n),
            params,
            params.max_recovery_rounds,
            seed,
        ),
    ];

    // Churn neutrality: the full churn scenario, wrapped vs unwrapped.
    let churn_n = params.n.clamp(40, 2000);
    let churn = |protocol| {
        let spec = ScenarioSpec::new(protocol, ScenarioGenerator::Churn, churn_n);
        run_scenario_spec(&spec, seed)
    };
    let with = churn(ProtocolKind::SwimLpbcast);
    let without = churn(ProtocolKind::Lpbcast);
    DetectorStudy {
        reports,
        churn_reliability_with: with.reliability_mean,
        churn_reliability_without: without.reliability_mean,
        churn_joins_with: with["joins_completed"].value() as usize,
        churn_joins_without: without["joins_completed"].value() as usize,
    }
}

/// Renders a study as a long-format TSV figure
/// (`scenario  fault  detector  n  metric  value`), written to
/// `results/detector.tsv` by `bench_sim`.
pub fn detector_tsv(study: &DetectorStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# SWIM failure-detector A/B: identical load and fault model, with/without the wrapper\n\
         # (see lpbcast_sim::detector; deterministic per seed)\n\
         scenario\tfault\tdetector\tn\tmetric\tvalue\n",
    );
    let opt = |v: Option<u64>| v.map_or_else(|| "never".into(), |r| r.to_string());
    for r in &study.reports {
        for (label, arm) in [("on", &r.detector), ("off", &r.baseline)] {
            let mut row = |metric: &str, value: String| {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{label}\t{}\t{metric}\t{value}",
                    r.scenario, r.fault, r.n
                );
            };
            row("recovery_rounds", opt(arm.recovery_rounds));
            row("probe_reliability", format!("{:.5}", arm.probe_reliability));
            row("evictions", arm.evictions.to_string());
            row("false_evictions", arm.false_evictions.to_string());
            row("suspicions", arm.suspicions.to_string());
            row("refutations", arm.refutations.to_string());
        }
    }
    let mut row = |metric: &str, value: String| {
        let _ = writeln!(out, "churn\tnone\tab\t-\t{metric}\t{value}");
    };
    row(
        "mean_reliability_with",
        format!("{:.5}", study.churn_reliability_with),
    );
    row(
        "mean_reliability_without",
        format!("{:.5}", study.churn_reliability_without),
    );
    row("joins_with", study.churn_joins_with.to_string());
    row("joins_without", study.churn_joins_without.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Metric;

    fn small_params(n: usize) -> DetectorParams {
        DetectorParams {
            n,
            loss_rate: 0.05,
            crash_fraction: 0.30,
            warmup: 6,
            detect_gap: 8,
            max_recovery_rounds: 30,
            noise_rounds: 20,
            config: Config::builder()
                .view_size(8)
                .fanout(3)
                .event_ids_max(256)
                .events_max(256)
                .deliver_on_digest(true)
                .build(),
            swim: SwimConfig::default(),
        }
    }

    /// Measures the fraction of dead entries left in survivors' views
    /// after the detection window, detector on vs off. This is the
    /// mechanism the A/B study banks on, asserted directly.
    #[test]
    #[ignore = "diagnostic; run with --ignored -- --nocapture"]
    fn diag_dead_view_fraction() {
        let n = 10_000;
        let params = DetectorParams::scaled(n);
        fn dead_fraction<P>(n: usize, cfg: &P::Cfg, params: &DetectorParams) -> (f64, f64)
        where
            P: ScenarioProtocol,
            P::Msg: WireMessage + Send + 'static,
        {
            let mut engine = build_engine::<P>(UniformRandom, n, cfg, params.loss_rate, None, 1);
            engine.run(params.warmup);
            let mut rng = SmallRng::seed_from_u64(1 ^ 0x6361_7461_7374_726F);
            let crashed = ((params.crash_fraction * n as f64).floor() as usize).min(n - 1);
            let mut victims = Vec::new();
            sample_distinct(&mut rng, n as u64 - 1, crashed, &mut victims);
            let dead: std::collections::HashSet<ProcessId> =
                victims.iter().map(|v| ProcessId::new(v + 1)).collect();
            for &v in &dead {
                engine.crash(v);
            }
            let mut before = 0.0;
            let mut at = 0;
            for gap in [0, params.detect_gap, 10, 10, 10] {
                engine.run(gap);
                at += gap;
                let (mut dead_entries, mut total) = (0usize, 0usize);
                for (id, node) in engine.nodes() {
                    if dead.contains(&id) {
                        continue; // survivors' views only
                    }
                    for m in node.view_members() {
                        total += 1;
                        if dead.contains(&m) {
                            dead_entries += 1;
                        }
                    }
                }
                if gap == 0 {
                    before = dead_entries as f64 / total.max(1) as f64;
                }
                println!(
                    "  gap+{at}: {dead_entries}/{total} dead view entries ({:.1}%)",
                    100.0 * dead_entries as f64 / total.max(1) as f64
                );
            }
            (before, 0.0)
        }
        println!("baseline lpbcast:");
        dead_fraction::<Lpbcast>(n, &params.config, &params);
        println!("swim+lpbcast:");
        let swim_cfg = SwimScenarioCfg {
            inner: params.config.clone(),
            swim: params.swim.clone(),
        };
        dead_fraction::<Swim<Lpbcast>>(n, &swim_cfg, &params);
    }

    #[test]
    fn swim_wrapper_runs_the_churn_scenario() {
        let spec = ScenarioSpec::new(ProtocolKind::SwimLpbcast, ScenarioGenerator::Churn, 60);
        let report = run_scenario_spec(&spec, 7);
        assert_eq!(report.protocol, "swim+lpbcast");
        assert!(
            report["joins_completed"].value() > report["joins_attempted"].value() / 2.0,
            "joins complete through the wrapper: {report:?}"
        );
        assert!(
            report.reliability_mean > 0.7,
            "dissemination survives the wrapper: {report:?}"
        );
        assert_eq!(
            report["partitioned_at_end"],
            Metric::Flag(false),
            "{report:?}"
        );
    }

    #[test]
    fn detector_confirms_catastrophe_victims() {
        let params = small_params(120);
        let report = ab_measurement(
            "catastrophe",
            "none",
            None,
            params.crash_fraction,
            &params,
            params.max_recovery_rounds,
            5,
        );
        assert!(
            report.detector.evictions > 0,
            "the crash cohort gets confirmed: {report:?}"
        );
        assert_eq!(report.baseline.evictions, 0);
        assert!(
            report.detector.probe_reliability > 0.95,
            "probe still disseminates: {report:?}"
        );
        assert!(
            report.detector.recovery_rounds.is_some(),
            "recovery completes: {report:?}"
        );
    }

    #[test]
    fn noisy_links_without_crashes_mostly_refuted() {
        let params = small_params(100);
        let report = ab_measurement(
            "noise",
            "noisy_links",
            Some(FaultSpec::noisy_links(5)),
            0.0,
            &params,
            params.noise_rounds,
            5,
        );
        // Everybody is alive, so every eviction is false by definition.
        assert_eq!(report.detector.evictions, report.detector.false_evictions);
        assert!(
            report.detector.suspicions > 0,
            "a noisy network raises suspicions: {report:?}"
        );
        assert!(
            report.detector.refutations > 0 || report.detector.false_evictions == 0,
            "incarnation bumps push back: {report:?}"
        );
        assert!(
            report.detector.probe_reliability > 0.9 && report.baseline.probe_reliability > 0.9,
            "the noise model is survivable either way: {report:?}"
        );
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let params = small_params(60);
        let a = detector_study(&params, 3);
        let b = detector_study(&params, 3);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.churn_reliability_with, b.churn_reliability_with);
    }

    #[test]
    fn tsv_has_both_arms_and_all_metrics() {
        let params = small_params(60);
        let study = detector_study(&params, 2);
        let tsv = detector_tsv(&study);
        for needle in [
            "catastrophe\tnone\ton\t",
            "catastrophe\tnone\toff\t",
            "noise\tnoisy_links\ton\t",
            "noise\tslow_cohort\ton\t",
            "recovery_rounds",
            "false_evictions",
            "refutations",
            "mean_reliability_with",
        ] {
            assert!(tsv.contains(needle), "missing {needle:?} in:\n{tsv}");
        }
    }
}
