//! Property tests for the declarative scenario layer: every
//! [`ScenarioSpec`] serialises to a string that parses back to the same
//! spec, and every run is a pure function of `(spec, seed)` — two
//! independent executions of the same cell produce byte-identical
//! reports.

use lpbcast_sim::fault::FaultSpec;
use lpbcast_sim::{run_scenario_spec, ProtocolKind, ScenarioGenerator, ScenarioSpec};
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    (0usize..ProtocolKind::ALL.len()).prop_map(|i| ProtocolKind::ALL[i])
}

fn arb_generator() -> impl Strategy<Value = ScenarioGenerator> {
    (0usize..ScenarioGenerator::ALL.len()).prop_map(|i| ScenarioGenerator::ALL[i])
}

fn arb_fault() -> impl Strategy<Value = Option<FaultSpec>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), 0.0f64..=0.5, 0.0f64..=0.5, 0.0f64..=0.2).prop_map(
            |(seed, lossy_links, link_loss, duplicate)| {
                Some(FaultSpec {
                    seed,
                    lossy_links,
                    link_loss,
                    duplicate,
                    ..FaultSpec::default()
                })
            }
        ),
    ]
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (arb_protocol(), arb_generator(), 1usize..5000),
        (0u64..200, 1usize..64, 1usize..64),
        // Half-open: `loss=1` (and `fraction=1` on a catastrophe) parse
        // as fractions but are rejected — the run would abort on them.
        (0.0f64..1.0, 0.0f64..1.0, 0u64..8),
        arb_fault(),
    )
        .prop_map(
            |(
                (protocol, generator, n),
                (rounds, rate, publishers),
                (loss_rate, fraction, cycles),
                fault,
            )| {
                let mut spec = ScenarioSpec::new(protocol, generator, n);
                spec.rounds = rounds;
                spec.rate = rate;
                spec.publishers = publishers;
                spec.loss_rate = loss_rate;
                spec.fraction = fraction;
                spec.cycles = cycles;
                spec.fault = fault;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Display` → `FromStr` reproduces every representable spec
    /// exactly, including embedded `fault.*` fragments — spec strings
    /// can live in TSV cells, env vars and bench JSON without drift.
    #[test]
    fn spec_string_roundtrips_for_all_values(spec in arb_spec()) {
        let text = spec.to_string();
        let back: ScenarioSpec = text.parse().expect("display form parses");
        prop_assert_eq!(spec, back, "round-trip drifted through {}", text);
    }

    /// Parsing is insensitive to fragment order: the key=value
    /// fragments can arrive in any permutation and still produce the
    /// same spec.
    #[test]
    fn spec_parse_is_order_insensitive(spec in arb_spec(), rot in 0usize..16) {
        let text = spec.to_string();
        let mut frags: Vec<&str> = text.split(';').collect();
        let k = rot % frags.len();
        frags.rotate_left(k);
        let shuffled = frags.join(";");
        let back: ScenarioSpec = shuffled.parse().expect("shuffled form parses");
        prop_assert_eq!(spec, back, "order sensitivity through {}", shuffled);
    }
}

proptest! {
    // Each case executes two full simulations, so keep the count low
    // and the systems small; CI further bounds this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A run is a pure function of `(spec, seed)`: two independent
    /// executions — with a string round-trip in between, so the parsed
    /// form drives one of them — produce identical reports.
    #[test]
    fn runs_are_pure_in_spec_and_seed(
        protocol in arb_protocol(),
        generator in arb_generator(),
        fault in arb_fault(),
        seed in 1u64..1000,
    ) {
        let mut spec = ScenarioSpec::new(protocol, generator, 48);
        spec.fault = fault;
        let reparsed: ScenarioSpec =
            spec.to_string().parse().expect("display form parses");
        let once = run_scenario_spec(&spec, seed);
        let twice = run_scenario_spec(&reparsed, seed);
        prop_assert_eq!(once, twice, "twin run diverged for {}", spec);
    }
}
