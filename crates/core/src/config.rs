//! Protocol parameters.
//!
//! Defaults follow the paper's measurement setup (§5.2): fanout `F = 3`,
//! view size `l = 15`, `|eventIds|m = 60`. The remaining bounds are not
//! published; the defaults here are the values used throughout our
//! experiments and can be changed freely via the builder.

use lpbcast_membership::TruncationStrategy;
use lpbcast_types::ProcessId;

/// How the `eventIds` history (delivered-notification digest) is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistoryMode {
    /// A bounded remove-oldest buffer of at most `|eventIds|m` ids — the
    /// structure whose size Figure 6(b) sweeps. The gossip digest is the
    /// buffer's contents.
    #[default]
    Bounded,
    /// The §3.2 optimisation: per-origin compaction (*"only retaining for
    /// each sender the identifiers of notifications delivered since the
    /// last one delivered in sequence"*). Detection is exact (no purge →
    /// no duplicate deliveries); the gossip digest is the compact form.
    Compact,
}

/// Configuration of an [`Lpbcast`](crate::Lpbcast) process.
///
/// Construct via [`Config::builder`]. All sizes are entry counts, all
/// durations are ticks of the process's gossip clock (one tick = one `T`
/// period = one synchronous round in the simulator).
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum view length `l` (§3.2). Must satisfy `fanout <= view_size`
    /// (§4.3: *"F ≤ l must always be ensured"*).
    pub view_size: usize,
    /// Gossip fanout `F`: targets per gossip emission.
    pub fanout: usize,
    /// `|events|m`: maximum notifications buffered for the next gossip.
    pub events_max: usize,
    /// `|eventIds|m`: maximum delivered-id history (bounded mode).
    pub event_ids_max: usize,
    /// `|subs|m`: maximum subscriptions buffered for forwarding.
    pub subs_max: usize,
    /// `|unSubs|m`: maximum unsubscriptions buffered for forwarding.
    pub unsubs_max: usize,
    /// View truncation / subs advertisement strategy (§6.1).
    pub strategy: TruncationStrategy,
    /// History representation (§3.2 optimisation vs. bounded buffer).
    pub history_mode: HistoryMode,
    /// Unsubscription obsolescence window in ticks (§3.4).
    pub unsub_obsolescence: u64,
    /// Refuse own unsubscription while `|unSubs|` exceeds this (§3.4).
    pub unsub_refusal_threshold: usize,
    /// Retransmission (gossip pull): number of missing ids requested from
    /// a gossip sender per received gossip; 0 disables pulls.
    pub retransmit_request_max: usize,
    /// Ticks after which an unanswered retransmission pull may be
    /// re-issued. A pull rides one request/response datagram pair, so on
    /// a lossy transport either leg can vanish — without a retry the id
    /// would stay marked in-flight forever and the notification become
    /// unrecoverable. 0 keeps the single-shot behaviour (adequate for
    /// the deterministic in-process runners, where pull legs are only
    /// lost when a fault plane says so).
    pub retransmit_retry_ticks: u64,
    /// The §5.2 measurement convention: *"once a gossip receiver has
    /// received the identifier of a notification, the notification itself
    /// is assumed to have been received"*. When `true` (and pulls are
    /// disabled), ids learnt from digests are absorbed into the local
    /// history — so ids keep disseminating through digests — and reported
    /// as [`Output::learned_ids`](crate::Output::learned_ids). When
    /// `false`, digests are only used for retransmission pulls.
    pub deliver_on_digest: bool,
    /// Capacity of the archive of old notifications kept to serve
    /// retransmission requests (§3.2: *"Older notifications are stored in
    /// a different buffer"*); 0 disables serving.
    pub archive_capacity: usize,
    /// Prioritary processes (§4.4): *"a very limited set of prioritary
    /// processes, which are constantly known by each process. They are
    /// periodically used to 'normalize' the views (and also for
    /// bootstrapping)."* Empty disables normalization.
    pub prioritary: Vec<ProcessId>,
    /// Re-insert prioritary processes into the view every this many ticks.
    pub normalization_period: u64,
    /// Ticks a joining process waits for its first gossip before
    /// re-emitting its subscription request (§3.4: *"a timeout will
    /// trigger the re-emission of the subscription request"*).
    pub join_timeout: u64,
    /// Gossip membership data only every k-th tick (k ≥ 1). The §6.1
    /// experiment: *"we have tried to reduce the frequency for the
    /// gossiping of membership information (every k-th round only)"* —
    /// kept as an ablation knob; 1 is the standard algorithm.
    pub membership_gossip_interval: u64,
}

impl Config {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Validates cross-parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint:
    /// * `fanout > view_size` violates F ≤ l (§4.3);
    /// * `fanout == 0` or `view_size == 0` cannot disseminate;
    /// * `membership_gossip_interval == 0` is meaningless.
    pub fn validate(&self) -> Result<(), String> {
        if self.view_size == 0 {
            return Err("view_size (l) must be at least 1".into());
        }
        if self.fanout == 0 {
            return Err("fanout (F) must be at least 1".into());
        }
        if self.fanout > self.view_size {
            return Err(format!(
                "fanout F = {} exceeds view size l = {}; the paper requires F <= l (§4.3)",
                self.fanout, self.view_size
            ));
        }
        if self.membership_gossip_interval == 0 {
            return Err("membership_gossip_interval must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        ConfigBuilder::default().build()
    }
}

/// Builder for [`Config`]. Every setter mirrors one field; see [`Config`]
/// for semantics.
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    config: Config,
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder {
            config: Config {
                view_size: 15,
                fanout: 3,
                events_max: 60,
                event_ids_max: 60,
                subs_max: 15,
                unsubs_max: 15,
                strategy: TruncationStrategy::Uniform,
                history_mode: HistoryMode::Bounded,
                unsub_obsolescence: 50,
                unsub_refusal_threshold: 12,
                retransmit_request_max: 0,
                retransmit_retry_ticks: 0,
                deliver_on_digest: false,
                archive_capacity: 0,
                prioritary: Vec::new(),
                normalization_period: 10,
                join_timeout: 5,
                membership_gossip_interval: 1,
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

impl ConfigBuilder {
    setter!(
        /// Sets the maximum view length `l`.
        view_size: usize
    );
    setter!(
        /// Sets the gossip fanout `F`.
        fanout: usize
    );
    setter!(
        /// Sets `|events|m`.
        events_max: usize
    );
    setter!(
        /// Sets `|eventIds|m`.
        event_ids_max: usize
    );
    setter!(
        /// Sets `|subs|m`.
        subs_max: usize
    );
    setter!(
        /// Sets `|unSubs|m`.
        unsubs_max: usize
    );
    setter!(
        /// Sets the view strategy (uniform or §6.1 weighted).
        strategy: TruncationStrategy
    );
    setter!(
        /// Sets the history representation.
        history_mode: HistoryMode
    );
    setter!(
        /// Sets the unsubscription obsolescence window (ticks).
        unsub_obsolescence: u64
    );
    setter!(
        /// Sets the own-unsubscription refusal threshold.
        unsub_refusal_threshold: usize
    );
    setter!(
        /// Sets the per-gossip retransmission request budget (0 = off).
        retransmit_request_max: usize
    );
    setter!(
        /// Sets the unanswered-pull retry window in ticks (0 = one-shot).
        retransmit_retry_ticks: u64
    );
    setter!(
        /// Enables the §5.2 id-counts-as-received convention.
        deliver_on_digest: bool
    );
    setter!(
        /// Sets the retransmission archive capacity (0 = off).
        archive_capacity: usize
    );
    setter!(
        /// Sets the prioritary process set (§4.4).
        prioritary: Vec<ProcessId>
    );
    setter!(
        /// Sets the view normalization period (ticks).
        normalization_period: u64
    );
    setter!(
        /// Sets the join re-emission timeout (ticks).
        join_timeout: u64
    );
    setter!(
        /// Sets the membership gossip interval k (ablation; 1 = standard).
        membership_gossip_interval: u64
    );

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates [`Config::validate`]; use
    /// [`try_build`](ConfigBuilder::try_build) for a fallible variant.
    pub fn build(self) -> Config {
        match self.try_build() {
            Ok(c) => c,
            Err(e) => panic!("invalid lpbcast config: {e}"),
        }
    }

    /// Finalizes the configuration, reporting constraint violations.
    ///
    /// # Errors
    ///
    /// See [`Config::validate`].
    pub fn try_build(self) -> Result<Config, String> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_measurement_setup() {
        let c = Config::default();
        assert_eq!(c.fanout, 3, "§5.2: F fixed to 3");
        assert_eq!(c.view_size, 15, "§5.2 / Fig 6(b): l = 15");
        assert_eq!(c.event_ids_max, 60, "Fig 6(a): notification list size 60");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fanout_must_not_exceed_view_size() {
        let err = Config::builder()
            .view_size(3)
            .fanout(4)
            .try_build()
            .unwrap_err();
        assert!(err.contains("F <= l"), "unexpected error: {err}");
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(Config::builder().fanout(0).try_build().is_err());
        assert!(Config::builder().view_size(0).try_build().is_err());
        assert!(Config::builder()
            .membership_gossip_interval(0)
            .try_build()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid lpbcast config")]
    fn build_panics_on_invalid() {
        let _ = Config::builder().view_size(2).fanout(5).build();
    }

    #[test]
    fn builder_sets_every_field() {
        let c = Config::builder()
            .view_size(20)
            .fanout(4)
            .events_max(10)
            .event_ids_max(30)
            .subs_max(5)
            .unsubs_max(6)
            .strategy(TruncationStrategy::Weighted)
            .history_mode(HistoryMode::Compact)
            .unsub_obsolescence(99)
            .unsub_refusal_threshold(4)
            .retransmit_request_max(8)
            .deliver_on_digest(true)
            .archive_capacity(128)
            .prioritary(vec![ProcessId::new(0)])
            .normalization_period(7)
            .join_timeout(3)
            .membership_gossip_interval(2)
            .build();
        assert_eq!(c.view_size, 20);
        assert_eq!(c.fanout, 4);
        assert_eq!(c.events_max, 10);
        assert_eq!(c.event_ids_max, 30);
        assert_eq!(c.subs_max, 5);
        assert_eq!(c.unsubs_max, 6);
        assert_eq!(c.strategy, TruncationStrategy::Weighted);
        assert_eq!(c.history_mode, HistoryMode::Compact);
        assert_eq!(c.unsub_obsolescence, 99);
        assert_eq!(c.unsub_refusal_threshold, 4);
        assert_eq!(c.retransmit_request_max, 8);
        assert!(c.deliver_on_digest);
        assert_eq!(c.archive_capacity, 128);
        assert_eq!(c.prioritary, vec![ProcessId::new(0)]);
        assert_eq!(c.normalization_period, 7);
        assert_eq!(c.join_timeout, 3);
        assert_eq!(c.membership_gossip_interval, 2);
    }
}
