//! pbcast parameters.

/// Configuration of a [`Pbcast`](crate::Pbcast) process.
///
/// Defaults match the Figure 7 comparison: `F = 5` (*"because repetitions
/// and hops are limited in the case of pbcast, a higher fanout is required
/// to obtain similar results than with lpbcast (F = 5 here vs F = 3)"*),
/// bounded digest history of 60 ids, and hops/repetitions limited.
#[derive(Debug, Clone)]
pub struct PbcastConfig {
    /// Anti-entropy gossip fanout `F`.
    pub fanout: usize,
    /// Maximum rounds a process keeps advertising (and serving) a given
    /// message after first receiving it — pbcast's *limited repetitions*.
    pub max_repetitions: u64,
    /// Maximum times a message may be forwarded process-to-process —
    /// pbcast's *limited hops*. A copy received at the hop limit is
    /// delivered but not advertised onward.
    pub max_hops: u32,
    /// Maximum delivered-id history (the digest source), remove-oldest —
    /// the analogue of lpbcast's `|eventIds|m`.
    pub history_max: usize,
    /// Maximum payloads retained for serving solicitations.
    pub store_max: usize,
    /// Whether publishing triggers the best-effort first phase (a direct
    /// send to every known member, each copy subject to network loss).
    pub first_phase: bool,
    /// Solicit missing payloads from digest senders (classic pbcast
    /// pull). When `false` with
    /// [`deliver_on_digest`](PbcastConfig::deliver_on_digest), runs in the
    /// §5.2 measurement convention instead.
    pub pull: bool,
    /// The §5.2 convention: an id received in a digest counts as received;
    /// the id is absorbed, re-advertised (hop-incremented) and reported as
    /// learned. Used for Figure 7(b).
    pub deliver_on_digest: bool,
    /// `|subs|m` for the piggybacked membership layer (partial views
    /// only).
    pub subs_max: usize,
}

impl PbcastConfig {
    /// Starts building a configuration from the Figure 7 defaults.
    pub fn builder() -> PbcastConfigBuilder {
        PbcastConfigBuilder::default()
    }

    /// Validates cross-parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.fanout == 0 {
            return Err("fanout must be at least 1".into());
        }
        if self.max_repetitions == 0 {
            return Err(
                "max_repetitions must be at least 1 (a message must be advertised at least once)"
                    .into(),
            );
        }
        if self.max_hops == 0 {
            return Err("max_hops must be at least 1 (the first transfer is a hop)".into());
        }
        if self.pull && self.deliver_on_digest {
            return Err("pull and deliver_on_digest are mutually exclusive".into());
        }
        Ok(())
    }
}

impl Default for PbcastConfig {
    fn default() -> Self {
        PbcastConfigBuilder::default().build()
    }
}

/// Builder for [`PbcastConfig`].
#[derive(Debug, Clone)]
pub struct PbcastConfigBuilder {
    config: PbcastConfig,
}

impl Default for PbcastConfigBuilder {
    fn default() -> Self {
        PbcastConfigBuilder {
            config: PbcastConfig {
                fanout: 5,
                max_repetitions: 2,
                max_hops: 6,
                history_max: 60,
                store_max: 120,
                first_phase: true,
                pull: true,
                deliver_on_digest: false,
                subs_max: 15,
            },
        }
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.config.$name = value;
            self
        }
    };
}

impl PbcastConfigBuilder {
    setter!(
        /// Sets the anti-entropy fanout `F`.
        fanout: usize
    );
    setter!(
        /// Sets the repetition limit.
        max_repetitions: u64
    );
    setter!(
        /// Sets the hop limit.
        max_hops: u32
    );
    setter!(
        /// Sets the digest history bound.
        history_max: usize
    );
    setter!(
        /// Sets the payload store bound.
        store_max: usize
    );
    setter!(
        /// Enables/disables the best-effort first phase.
        first_phase: bool
    );
    setter!(
        /// Enables/disables solicitation (gossip pull).
        pull: bool
    );
    setter!(
        /// Enables the §5.2 id-counts-as-received convention.
        deliver_on_digest: bool
    );
    setter!(
        /// Sets the piggybacked `|subs|m`.
        subs_max: usize
    );

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if invalid; use [`try_build`](PbcastConfigBuilder::try_build)
    /// for a fallible variant.
    pub fn build(self) -> PbcastConfig {
        match self.try_build() {
            Ok(c) => c,
            Err(e) => panic!("invalid pbcast config: {e}"),
        }
    }

    /// Finalizes the configuration, reporting constraint violations.
    ///
    /// # Errors
    ///
    /// See [`PbcastConfig::validate`].
    pub fn try_build(self) -> Result<PbcastConfig, String> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_figure_7() {
        let c = PbcastConfig::default();
        assert_eq!(c.fanout, 5);
        assert!(c.pull);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_limits() {
        assert!(PbcastConfig::builder().fanout(0).try_build().is_err());
        assert!(PbcastConfig::builder().max_hops(0).try_build().is_err());
        assert!(PbcastConfig::builder()
            .max_repetitions(0)
            .try_build()
            .is_err());
    }

    #[test]
    fn pull_and_digest_delivery_are_exclusive() {
        let err = PbcastConfig::builder()
            .pull(true)
            .deliver_on_digest(true)
            .try_build()
            .unwrap_err();
        assert!(err.contains("mutually exclusive"));
    }

    #[test]
    #[should_panic(expected = "invalid pbcast config")]
    fn build_panics_on_invalid() {
        let _ = PbcastConfig::builder().fanout(0).build();
    }
}
