//! The lpbcast membership layer: fixed-size partial views maintained by
//! gossip.
//!
//! The central membership idea of the paper (§1, §3): *"The local view of
//! every individual member consists in a random process list which
//! continuously evolves, but never exceeds a fixed size. In short, after
//! adding new processes to a view, it is truncated to the maximum length by
//! removing randomly chosen entries."*
//!
//! §6.2 stresses that this layer is *"not inherently coupled with our
//! lpbcast algorithm \[...\] It could thus be encapsulated as a membership
//! layer, on top of which many gossip-based algorithms, like pbcast, could
//! be deployed."* — which is exactly how this crate is used: both
//! `lpbcast-core` and `lpbcast-pbcast` build on [`PartialView`].
//!
//! Provided here:
//!
//! * [`PartialView`] — a view of at most `l` processes, never containing
//!   its owner, with uniform-random truncation or the **weighted** eviction
//!   heuristic of §6.1 ([`TruncationStrategy`]).
//! * [`GlobalView`] — the complete-membership baseline (used by
//!   "pbcast with total view" in Fig. 7(a)).
//! * [`View`] — the small trait both implement, consumed by protocols that
//!   only need target selection.
//! * [`ViewGraph`] — analytics over the directed "knows-about" graph:
//!   degree statistics, connected components (partition detection, §4.4),
//!   strongly connected components, reachability.
//! * [`Swim`] — a SWIM-style failure detector (ping / indirect ping-req /
//!   suspect / confirm with incarnation numbers) wrapping any
//!   [`Protocol`](lpbcast_types::Protocol), purging confirmed failures
//!   from the wrapped protocol's view immediately instead of letting
//!   them fade out.
//!
//! # Example
//!
//! ```
//! use lpbcast_membership::{PartialView, TruncationStrategy, View};
//! use lpbcast_types::ProcessId;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let me = ProcessId::new(0);
//! let mut view = PartialView::new(me, 4, TruncationStrategy::Uniform);
//! for p in 1..=9 {
//!     view.insert(ProcessId::new(p));
//! }
//! let evicted = view.truncate(&mut rng);
//! assert_eq!(view.len(), 4);
//! assert_eq!(evicted.len(), 5);
//! let targets = view.select_targets(&mut rng, 3);
//! assert_eq!(targets.len(), 3);
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod global;
mod graph;
mod swim;
mod view;

pub use global::GlobalView;
pub use graph::{ComponentLabels, DegreeStats, ViewGraph};
pub use swim::{Swim, SwimConfig, SwimMsg, SwimStats, Update, UpdateState};
pub use view::{PartialView, TruncationStrategy, ViewEntry};

use lpbcast_types::ProcessId;
use rand::Rng;

/// Minimal interface a gossip protocol needs from a membership view:
/// enumerate members and pick random gossip targets.
///
/// Implemented by [`PartialView`] (the paper's contribution) and
/// [`GlobalView`] (the traditional complete-membership assumption).
pub trait View {
    /// The process owning this view. A view never contains its owner
    /// (footnote 8: *"a process pi will never add itself to its own local
    /// view"*).
    fn owner(&self) -> ProcessId;

    /// Number of processes currently known.
    fn len(&self) -> usize;

    /// Whether no process is known (an isolated process).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `p` is currently known.
    fn contains(&self, p: ProcessId) -> bool;

    /// A snapshot of the known processes (unspecified order).
    fn members(&self) -> Vec<ProcessId>;

    /// Chooses up to `fanout` distinct gossip targets uniformly at random
    /// (Figure 1(b): *"choose F random members target1, ... targetF in
    /// view"*). Returns fewer if fewer are known.
    fn select_targets<R: Rng + ?Sized>(&self, rng: &mut R, fanout: usize) -> Vec<ProcessId>;
}
