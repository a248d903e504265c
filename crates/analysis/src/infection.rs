//! The stochastic dissemination model of §4.2–§4.3 and Appendix A.
//!
//! A snapshot of the system has `n` processes; one event is injected at
//! round 0 (s₀ = 1). Each round, every infected process gossips to `F`
//! targets drawn from its uniform view; a message is lost with probability
//! ε and the target has crashed with probability τ. Eq. (1) gives the
//! probability that a fixed susceptible process is infected by a fixed
//! gossip message:
//!
//! ```text
//! p = (F / (n − 1)) · (1 − ε) · (1 − τ)
//! ```
//!
//! — independent of the view size `l` (the paper's central analytical
//! observation). Eq. (2)–(3) then define a Markov chain on the number of
//! infected processes.

use crate::math::{ln_binomial, ln_one_minus_exp};

/// Parameters of the dissemination model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfectionParams {
    /// System size `n` (≥ 2).
    pub n: usize,
    /// Gossip fanout `F`.
    pub fanout: usize,
    /// Message-loss probability ε (paper default 0.05).
    pub epsilon: f64,
    /// Crash probability τ (paper default 0.01).
    pub tau: f64,
}

impl InfectionParams {
    /// Creates parameters with ε = τ = 0; chain with
    /// [`loss_rate`](InfectionParams::loss_rate) /
    /// [`crash_rate`](InfectionParams::crash_rate) to set them.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `fanout == 0`.
    pub fn new(n: usize, fanout: usize) -> Self {
        assert!(n >= 2, "need at least two processes");
        assert!(fanout >= 1, "fanout must be positive");
        InfectionParams {
            n,
            fanout,
            epsilon: 0.0,
            tau: 0.0,
        }
    }

    /// Paper defaults: ε = 0.05, τ = 0.01 (§4.1).
    pub fn paper_defaults(n: usize, fanout: usize) -> Self {
        InfectionParams::new(n, fanout)
            .loss_rate(0.05)
            .crash_rate(0.01)
    }

    /// Sets the message-loss probability ε ∈ [0, 1).
    #[must_use]
    pub fn loss_rate(mut self, epsilon: f64) -> Self {
        assert!((0.0..1.0).contains(&epsilon), "ε must be in [0,1)");
        self.epsilon = epsilon;
        self
    }

    /// Sets the crash probability τ ∈ [0, 1).
    #[must_use]
    pub fn crash_rate(mut self, tau: f64) -> Self {
        assert!((0.0..1.0).contains(&tau), "τ must be in [0,1)");
        self.tau = tau;
        self
    }

    /// Eq. (1), final form: `p = (F/(n−1))(1−ε)(1−τ)` — the probability
    /// that a given susceptible process is infected by a given gossip
    /// message. Clamped to 1 when `F ≥ n−1`.
    pub fn p(&self) -> f64 {
        let p =
            (self.fanout as f64 / (self.n as f64 - 1.0)) * (1.0 - self.epsilon) * (1.0 - self.tau);
        p.min(1.0)
    }

    /// Eq. (1), first-principles form, keeping the view size `l`
    /// explicit:
    ///
    /// ```text
    /// p(l) = [1 − C(n−2, l)/C(n−1, l)] · (F/l) · (1−ε)(1−τ)
    /// ```
    ///
    /// where the bracket is the probability that the gossiping process
    /// *knows* the target (uniform view of size `l` over `n−1`
    /// candidates) and `F/l` the probability it then picks it. The paper's
    /// point — verified by `p_independent_of_view_size` in the tests — is
    /// that this collapses to [`p`](InfectionParams::p) for every `l`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= l <= n - 1`.
    pub fn p_with_view_size(&self, l: usize) -> f64 {
        assert!(l >= 1 && l < self.n, "view size out of range");
        let n = self.n as u64;
        // C(n−2, l)/C(n−1, l) = (n−1−l)/(n−1); computed via log-binomials
        // to mirror the paper's derivation rather than the simplification.
        let ln_ratio = ln_binomial(n - 2, l as u64) - ln_binomial(n - 1, l as u64);
        let know = -ln_ratio.exp() + 1.0;
        let p = know * (self.fanout as f64 / l as f64) * (1.0 - self.epsilon) * (1.0 - self.tau);
        p.min(1.0)
    }

    /// `q = 1 − p`: the probability that a given process is *not*
    /// infected by a given gossip message.
    pub fn q(&self) -> f64 {
        1.0 - self.p()
    }
}

/// The Markov chain of Eq. (2)–(3): the distribution of the number of
/// infected processes per round.
///
/// The state is the probability vector `P(s_r = j)` for `j ∈ 1..=n`,
/// advanced with
///
/// ```text
/// p_ij = C(n−i, j−i) (1 − qⁱ)^(j−i) q^(i(n−j))   for j ≥ i
/// ```
///
/// computed in log space. Stepping is O(n²).
#[derive(Debug, Clone)]
pub struct InfectionModel {
    params: InfectionParams,
    /// `probs[j]` = P(s_r = j); index 0 unused.
    probs: Vec<f64>,
    /// Cached `ln(k!)` for `k = 0..=n` — the O(n²) step spends its time in
    /// binomials, so they are table-driven.
    ln_fact: Vec<f64>,
    round: u64,
}

impl InfectionModel {
    /// Creates the chain at round 0: `P(s₀ = 1) = 1` (Eq. 3).
    pub fn new(params: InfectionParams) -> Self {
        let mut probs = vec![0.0; params.n + 1];
        probs[1] = 1.0;
        let mut ln_fact = Vec::with_capacity(params.n + 1);
        ln_fact.push(0.0);
        for k in 1..=params.n {
            ln_fact.push(ln_fact[k - 1] + (k as f64).ln());
        }
        InfectionModel {
            params,
            probs,
            ln_fact,
            round: 0,
        }
    }

    /// Table-driven ln C(n, k) (exact for the model's range).
    fn ln_binom(&self, n: usize, k: usize) -> f64 {
        debug_assert!(k <= n && n < self.ln_fact.len());
        self.ln_fact[n] - self.ln_fact[k] - self.ln_fact[n - k]
    }

    /// The parameters of the model.
    pub fn params(&self) -> &InfectionParams {
        &self.params
    }

    /// The current round `r`.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current distribution `P(s_r = j)` for `j = 0..=n` (entry 0 is
    /// always 0; the vector sums to 1).
    pub fn distribution(&self) -> &[f64] {
        &self.probs
    }

    /// Advances one gossip round (Eq. 3).
    pub fn step(&mut self) {
        let n = self.params.n;
        let p = self.params.p();
        let mut next = vec![0.0; n + 1];

        if p >= 1.0 {
            // Degenerate: every susceptible process is infected at once.
            let mass: f64 = self.probs[1..].iter().sum();
            next[n] = mass;
            self.probs = next;
            self.round += 1;
            return;
        }

        let ln_q = (1.0 - p).ln();
        #[expect(
            clippy::needless_range_loop,
            reason = "the (i, j) double loop *is* the Markov kernel"
        )]
        for i in 1..=n {
            let pi = self.probs[i];
            if pi < 1e-320 {
                continue;
            }
            // ln(1 − qⁱ), stable even when qⁱ underflows.
            let ln_qi = i as f64 * ln_q;
            let ln_one_minus_qi = ln_one_minus_exp(ln_qi);
            for j in i..=n {
                let k = j - i;
                let ln_pij = self.ln_binom(n - i, k)
                    + k as f64 * ln_one_minus_qi
                    + (i * (n - j)) as f64 * ln_q;
                next[j] += pi * ln_pij.exp();
            }
        }
        self.probs = next;
        self.round += 1;
    }

    /// Expected number of infected processes at the current round.
    pub fn expected_infected(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(j, &p)| j as f64 * p)
            .sum()
    }

    /// Probability that at least `threshold` processes are infected.
    pub fn prob_at_least(&self, threshold: usize) -> f64 {
        self.probs[threshold.min(self.params.n)..].iter().sum()
    }

    /// Runs the chain from its current round and returns
    /// `[E(s_r)]` for `r = round..=round+rounds` (inclusive; first entry
    /// is the current expectation).
    pub fn expected_curve(&mut self, rounds: u64) -> Vec<f64> {
        let mut curve = vec![self.expected_infected()];
        for _ in 0..rounds {
            self.step();
            curve.push(self.expected_infected());
        }
        curve
    }

    /// Expected number of rounds until `E(s_r) ≥ fraction · n`, with
    /// linear interpolation between rounds (Figure 3(b) reports the
    /// rounds to reach 99 %). Returns `None` if not reached within
    /// `max_rounds`.
    pub fn rounds_to_expected_fraction(
        params: InfectionParams,
        fraction: f64,
        max_rounds: u64,
    ) -> Option<f64> {
        assert!((0.0..=1.0).contains(&fraction));
        let target = fraction * params.n as f64;
        let mut model = InfectionModel::new(params);
        let mut prev = model.expected_infected();
        if prev >= target {
            return Some(0.0);
        }
        for r in 1..=max_rounds {
            model.step();
            let cur = model.expected_infected();
            if cur >= target {
                let frac = (target - prev) / (cur - prev);
                return Some((r - 1) as f64 + frac);
            }
            prev = cur;
        }
        None
    }
}

/// Appendix A: the expected-value recursion
/// `E(j(i)) = n − (n − i)·qⁱ`, iterated `t` times — the cheap O(t)
/// approximation of the full Markov chain.
#[derive(Debug, Clone, Copy)]
pub struct ExpectationModel {
    params: InfectionParams,
    /// *"the obtained value might be non-integer, and thus must be
    /// rounded off"* — when `true`, rounds to the nearest integer at each
    /// step as the paper prescribes.
    pub round_each_step: bool,
}

impl ExpectationModel {
    /// Creates the recursion with the paper's per-step rounding enabled.
    pub fn new(params: InfectionParams) -> Self {
        ExpectationModel {
            params,
            round_each_step: true,
        }
    }

    /// One application of Eq. (7): `E(j(i)) = n − (n − i) qⁱ`.
    pub fn next_expected(&self, infected: f64) -> f64 {
        let n = self.params.n as f64;
        let q = self.params.q();
        let value = n - (n - infected) * q.powf(infected);
        if self.round_each_step {
            value.round()
        } else {
            value
        }
    }

    /// Rounds until the expected infected count reaches `fraction · n` —
    /// the O(rounds) analogue of
    /// [`InfectionModel::rounds_to_expected_fraction`], usable at 10⁴
    /// scale where the full Markov chain costs O(n²) per round. Returns
    /// `None` if the target is not reached within `max_rounds`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1`.
    pub fn rounds_to_fraction(&self, fraction: f64, max_rounds: u64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        let target = fraction * self.params.n as f64;
        let mut infected = 1.0;
        if infected >= target {
            return Some(0);
        }
        for r in 1..=max_rounds {
            let next = self.next_expected(infected);
            if next >= target {
                return Some(r);
            }
            if next <= infected {
                return None; // fixed point below the target
            }
            infected = next;
        }
        None
    }

    /// The whole curve `[E(s_0), ..., E(s_t)]`.
    pub fn expected_curve(&self, t: u64) -> Vec<f64> {
        let mut curve = Vec::with_capacity(t as usize + 1);
        let mut infected = 1.0;
        curve.push(infected);
        for _ in 0..t {
            infected = self.next_expected(infected);
            curve.push(infected);
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn p_matches_closed_form() {
        let params = InfectionParams::paper_defaults(125, 3);
        let expected = (3.0 / 124.0) * 0.95 * 0.99;
        assert!(close(params.p(), expected, 1e-15));
        assert!(close(params.q(), 1.0 - expected, 1e-15));
    }

    #[test]
    fn p_independent_of_view_size() {
        // The paper's key analytical claim (§4.2): the first-principles
        // form of Eq. (1) collapses to F/(n−1)·(1−ε)(1−τ) for every l.
        let params = InfectionParams::paper_defaults(125, 3);
        let p = params.p();
        for l in [1, 2, 3, 5, 10, 15, 30, 60, 124] {
            let pl = params.p_with_view_size(l);
            assert!(
                close(pl, p, 1e-9),
                "l = {l}: p(l) = {pl} differs from p = {p}"
            );
        }
    }

    #[test]
    fn distribution_stays_normalized() {
        let mut model = InfectionModel::new(InfectionParams::paper_defaults(60, 3));
        for r in 0..8 {
            let total: f64 = model.distribution().iter().sum();
            assert!(close(total, 1.0, 1e-9), "round {r}: mass {total}");
            model.step();
        }
    }

    #[test]
    fn infection_is_monotone_and_saturates() {
        let mut model = InfectionModel::new(InfectionParams::paper_defaults(125, 3));
        let curve = model.expected_curve(12);
        assert!(close(curve[0], 1.0, 1e-12));
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "expectation decreased: {w:?}");
        }
        assert!(curve[12] > 124.0, "n=125, F=3 saturates by round 12");
    }

    #[test]
    fn higher_fanout_is_faster() {
        // Figure 2: increasing F decreases rounds-to-infection.
        let rounds: Vec<f64> = [3, 4, 5, 6]
            .iter()
            .map(|&f| {
                InfectionModel::rounds_to_expected_fraction(
                    InfectionParams::paper_defaults(125, f),
                    0.99,
                    50,
                )
                .expect("converges")
            })
            .collect();
        for w in rounds.windows(2) {
            assert!(w[1] < w[0], "fanout gain not monotone: {rounds:?}");
        }
        // And the gain is sub-linear (the paper: "the gain is not
        // proportional").
        let gain_34 = rounds[0] - rounds[1];
        let gain_56 = rounds[2] - rounds[3];
        assert!(gain_56 < gain_34);
    }

    #[test]
    fn rounds_grow_with_system_size() {
        // Figure 3(b): more processes, more rounds.
        let r125 = InfectionModel::rounds_to_expected_fraction(
            InfectionParams::paper_defaults(125, 3),
            0.99,
            50,
        )
        .unwrap();
        let r500 = InfectionModel::rounds_to_expected_fraction(
            InfectionParams::paper_defaults(500, 3),
            0.99,
            50,
        )
        .unwrap();
        assert!(r500 > r125);
        // §4.3 / Fig 3(b): for n in [125, 1000] the paper reads ≈ 5.2–7.
        assert!(r125 > 4.0 && r125 < 7.5, "r125 = {r125}");
        assert!(r500 > r125 && r500 < 8.5, "r500 = {r500}");
    }

    #[test]
    fn degenerate_full_fanout_infects_in_one_round() {
        // F = n−1, no loss, no crashes ⇒ p = 1 ⇒ round 1 infects all.
        let mut model = InfectionModel::new(InfectionParams::new(10, 9));
        model.step();
        assert!(close(model.prob_at_least(10), 1.0, 1e-12));
        assert!(close(model.expected_infected(), 10.0, 1e-9));
    }

    #[test]
    fn prob_at_least_is_a_tail() {
        let mut model = InfectionModel::new(InfectionParams::paper_defaults(40, 3));
        for _ in 0..5 {
            model.step();
        }
        let p_all = model.prob_at_least(40);
        let p_half = model.prob_at_least(20);
        let p_any = model.prob_at_least(1);
        assert!(p_all <= p_half + 1e-12 && p_half <= p_any + 1e-12);
        assert!(close(p_any, 1.0, 1e-9));
    }

    #[test]
    fn appendix_a_tracks_markov_mean() {
        // The O(t) recursion should approximate the O(n²t) chain well.
        let params = InfectionParams::paper_defaults(125, 3);
        let mut markov = InfectionModel::new(params);
        let markov_curve = markov.expected_curve(8);
        let approx = ExpectationModel {
            params,
            round_each_step: false,
        };
        let approx_curve = approx.expected_curve(8);
        for (r, (m, a)) in markov_curve.iter().zip(&approx_curve).enumerate() {
            let err = (m - a).abs() / m.max(1.0);
            assert!(
                err < 0.35,
                "round {r}: markov {m:.2} vs appendix-A {a:.2} (err {err:.2})"
            );
        }
        // Both saturate to n.
        assert!(close(markov_curve[8], approx_curve[8], 5.0));
    }

    #[test]
    fn expectation_rounds_to_fraction_tracks_markov_version() {
        let params = InfectionParams::paper_defaults(125, 3);
        let markov = InfectionModel::rounds_to_expected_fraction(params, 0.99, 100)
            .expect("markov reaches 99%");
        let cheap = ExpectationModel::new(params)
            .rounds_to_fraction(0.99, 100)
            .expect("expectation reaches 99%");
        assert!(
            (cheap as f64 - markov).abs() <= 2.0,
            "O(t) recursion tracks the chain: {cheap} vs {markov:.2}"
        );
        // Grows with n, stays logarithmic-ish.
        let big = ExpectationModel::new(InfectionParams::paper_defaults(10_000, 3))
            .rounds_to_fraction(0.99, 400)
            .expect("10^4 reaches 99%");
        assert!(big as f64 > cheap as f64);
        assert!(big < 40, "still O(log n) rounds: {big}");
        // Unreachable target: fanout too small to beat losses.
        let dead = ExpectationModel::new(InfectionParams::new(1000, 1).loss_rate(0.9));
        assert_eq!(dead.rounds_to_fraction(0.99, 200), None);
    }

    #[test]
    fn appendix_a_rounding_yields_integers() {
        let model = ExpectationModel::new(InfectionParams::paper_defaults(125, 3));
        for v in model.expected_curve(10) {
            assert!(close(v, v.round(), 1e-12), "{v} not an integer");
        }
    }

    #[test]
    #[should_panic(expected = "at least two processes")]
    fn rejects_tiny_system() {
        let _ = InfectionParams::new(1, 1);
    }
}
