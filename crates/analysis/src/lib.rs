//! Analytical models from §4 and Appendix A of the lpbcast paper.
//!
//! Three families of results, all computed in log-domain arithmetic built
//! from scratch (no external math crates):
//!
//! * [`infection`] — the stochastic dissemination model: the per-round
//!   infection probability *p* of Eq. (1) (and the proof obligation that it
//!   does **not** depend on the view size *l*), the Markov chain of
//!   Eq. (2)–(3) over the number of infected processes, and the
//!   expected-value recursion of Appendix A. Regenerates Figures 2, 3(a),
//!   3(b) and the analytical halves of Figure 5.
//! * [`partition`] — membership-stability results: the partition
//!   probability Ψ(i, n, l) of Eq. (4) and the no-partition-up-to-round-r
//!   probability φ(n, l, r) of Eq. (5). Regenerates Figure 4 and the §4.4
//!   rounds-to-partition claim.
//! * [`math`] — ln-gamma / log-binomial / log1mexp primitives with
//!   accuracy tests.
//!
//! # Example: expected infection curve (Figure 2)
//!
//! ```
//! use lpbcast_analysis::infection::{InfectionModel, InfectionParams};
//!
//! let params = InfectionParams::new(125, 3).loss_rate(0.05).crash_rate(0.01);
//! let mut model = InfectionModel::new(params);
//! let curve = model.expected_curve(10);
//! assert!((curve[0] - 1.0).abs() < 1e-9, "round 0: one infected");
//! assert!(curve[10] > 124.0, "F=3 infects n=125 well within 10 rounds");
//! ```

#![warn(missing_docs, missing_debug_implementations)]

pub mod infection;
pub mod math;
pub mod partition;
pub mod reliability;
