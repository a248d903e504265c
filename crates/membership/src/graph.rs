//! Analytics over the directed "knows-about" graph induced by the views.
//!
//! §4.4 defines a partition as *"two or more distinct subsets of processes
//! in the system, in each of which no process knows about any process
//! outside its partition"* — i.e. the undirected version of the view graph
//! is disconnected. [`ViewGraph`] detects this, and also computes the
//! degree statistics used to quantify how close views are to the ideal
//! *"every process should ideally be known by exactly l other processes"*
//! (§6.1).

use lpbcast_types::{FastMap, ProcessId};

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Arithmetic mean degree.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
}

impl DegreeStats {
    fn from_degrees(degrees: &[usize]) -> Self {
        if degrees.is_empty() {
            return DegreeStats {
                mean: 0.0,
                std_dev: 0.0,
                min: 0,
                max: 0,
            };
        }
        let n = degrees.len() as f64;
        let mean = degrees.iter().sum::<usize>() as f64 / n;
        let var = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n;
        DegreeStats {
            mean,
            std_dev: var.sqrt(),
            min: *degrees.iter().min().expect("non-empty"),
            max: *degrees.iter().max().expect("non-empty"),
        }
    }

    /// Coefficient of variation (std-dev / mean); 0 for a perfectly
    /// uniform in-degree distribution. Returns 0 when the mean is 0.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Connected-component labelling of the view graph.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    labels: Vec<usize>,
    count: usize,
}

impl ComponentLabels {
    /// Number of components.
    pub const fn count(&self) -> usize {
        self.count
    }

    /// Component label of the node at dense index `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Sizes of the components, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for an empty graph). Scenario
    /// harnesses use this to report how lopsided a §4.4 partition is.
    pub fn largest_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// The directed graph where an edge `a → b` means "a's view contains b".
///
/// # Example
///
/// ```
/// use lpbcast_membership::ViewGraph;
/// use lpbcast_types::ProcessId;
///
/// let p = |i| ProcessId::new(i);
/// // A ring of 4 processes, each knowing its successor.
/// let graph = ViewGraph::from_views((0..4).map(|i| (p(i), vec![p((i + 1) % 4)])));
/// assert!(!graph.is_partitioned());
/// assert_eq!(graph.in_degree_stats().mean, 1.0);
/// assert_eq!(graph.strongly_connected_components().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ViewGraph {
    ids: Vec<ProcessId>,
    index: FastMap<ProcessId, usize>,
    /// Forward adjacency: `adj[a]` = processes in a's view.
    adj: Vec<Vec<usize>>,
    /// Reverse adjacency: `radj[b]` = processes that know b.
    radj: Vec<Vec<usize>>,
}

impl ViewGraph {
    /// Builds the graph from `(owner, view members)` pairs. Every owner
    /// becomes a node; view members that are not owners of any view (e.g.
    /// already-departed processes) also become nodes.
    pub fn from_views(views: impl IntoIterator<Item = (ProcessId, Vec<ProcessId>)>) -> Self {
        let views: Vec<(ProcessId, Vec<ProcessId>)> = views.into_iter().collect();
        let mut index: FastMap<ProcessId, usize> = FastMap::default();
        let mut ids: Vec<ProcessId> = Vec::new();
        let intern =
            |p: ProcessId, ids: &mut Vec<ProcessId>, index: &mut FastMap<ProcessId, usize>| {
                *index.entry(p).or_insert_with(|| {
                    ids.push(p);
                    ids.len() - 1
                })
            };
        for (owner, members) in &views {
            intern(*owner, &mut ids, &mut index);
            for m in members {
                intern(*m, &mut ids, &mut index);
            }
        }
        let n = ids.len();
        let mut adj = vec![Vec::new(); n];
        let mut radj = vec![Vec::new(); n];
        for (owner, members) in &views {
            let a = index[owner];
            for m in members {
                let b = index[m];
                adj[a].push(b);
                radj[b].push(a);
            }
        }
        ViewGraph {
            ids,
            index,
            adj,
            radj,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Dense index of `p`, if it appears in the graph.
    pub fn index_of(&self, p: ProcessId) -> Option<usize> {
        self.index.get(&p).copied()
    }

    /// In-degree of every node: how many processes know each process. The
    /// paper's ideal (§6.1) is in-degree ≈ l for everyone.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.radj.iter().map(Vec::len).collect()
    }

    /// Out-degree of every node (= its view size).
    pub fn out_degrees(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }

    /// Statistics of the in-degree distribution.
    pub fn in_degree_stats(&self) -> DegreeStats {
        DegreeStats::from_degrees(&self.in_degrees())
    }

    /// Histogram of in-degrees: `hist[d]` = number of processes known by
    /// exactly `d` others.
    pub fn in_degree_histogram(&self) -> Vec<usize> {
        let degrees = self.in_degrees();
        let max = degrees.iter().copied().max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for d in degrees {
            hist[d] += 1;
        }
        hist
    }

    /// Number of nodes reachable from `p` by following view edges
    /// (including `p` itself); `None` if `p` is not a node. This is the
    /// set an event published by `p` could ever reach.
    pub fn reachable_from(&self, p: ProcessId) -> Option<usize> {
        let start = self.index_of(p)?;
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 0;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        Some(count)
    }

    /// Connected components of the *undirected* view graph. More than one
    /// component means the membership is partitioned in the §4.4 sense.
    pub fn undirected_components(&self) -> ComponentLabels {
        let n = self.node_count();
        let mut labels = vec![usize::MAX; n];
        let mut count = 0;
        for start in 0..n {
            if labels[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            labels[start] = count;
            while let Some(u) = stack.pop() {
                for &v in self.adj[u].iter().chain(self.radj[u].iter()) {
                    if labels[v] == usize::MAX {
                        labels[v] = count;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        ComponentLabels { labels, count }
    }

    /// Whether the membership is partitioned (§4.4): the undirected view
    /// graph has more than one connected component.
    pub fn is_partitioned(&self) -> bool {
        self.node_count() > 1 && self.undirected_components().count() > 1
    }

    /// Strongly connected components (iterative Tarjan). Dissemination
    /// from any member of an SCC can reach every other member of it.
    pub fn strongly_connected_components(&self) -> ComponentLabels {
        let n = self.node_count();
        let mut labels = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut disc = vec![usize::MAX; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_disc = 0usize;
        let mut count = 0usize;

        // Explicit DFS frames: (node, next child index).
        for root in 0..n {
            if disc[root] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (u, ref mut child)) = frames.last_mut() {
                if *child == 0 {
                    disc[u] = next_disc;
                    low[u] = next_disc;
                    next_disc += 1;
                    stack.push(u);
                    on_stack[u] = true;
                }
                if let Some(&v) = self.adj[u].get(*child) {
                    *child += 1;
                    if disc[v] == usize::MAX {
                        frames.push((v, 0));
                    } else if on_stack[v] {
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        low[parent] = low[parent].min(low[u]);
                    }
                    if low[u] == disc[u] {
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            labels[w] = count;
                            if w == u {
                                break;
                            }
                        }
                        count += 1;
                    }
                }
            }
        }
        ComponentLabels { labels, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u64) -> ProcessId {
        ProcessId::new(p)
    }

    fn ring(n: u64) -> ViewGraph {
        ViewGraph::from_views((0..n).map(|i| (pid(i), vec![pid((i + 1) % n)])))
    }

    #[test]
    fn ring_is_connected_and_single_scc() {
        let g = ring(6);
        assert!(!g.is_partitioned());
        assert_eq!(g.undirected_components().count(), 1);
        assert_eq!(g.strongly_connected_components().count(), 1);
        assert_eq!(g.reachable_from(pid(0)), Some(6));
    }

    #[test]
    fn two_islands_are_a_partition() {
        // {0,1} know each other; {2,3} know each other; no cross edges.
        let g = ViewGraph::from_views([
            (pid(0), vec![pid(1)]),
            (pid(1), vec![pid(0)]),
            (pid(2), vec![pid(3)]),
            (pid(3), vec![pid(2)]),
        ]);
        assert!(g.is_partitioned());
        let comps = g.undirected_components();
        assert_eq!(comps.count(), 2);
        let mut sizes = comps.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2]);
        assert_eq!(comps.largest_size(), 2);
    }

    #[test]
    fn largest_component_size() {
        // {0,1,2} chained; {3,4} mutual: largest undirected component is 3.
        let g = ViewGraph::from_views([
            (pid(0), vec![pid(1)]),
            (pid(1), vec![pid(2)]),
            (pid(3), vec![pid(4)]),
            (pid(4), vec![pid(3)]),
        ]);
        assert_eq!(g.undirected_components().largest_size(), 3);
        let empty = ViewGraph::from_views(std::iter::empty());
        assert_eq!(empty.undirected_components().largest_size(), 0);
    }

    #[test]
    fn one_way_edge_joins_undirected_but_not_strongly() {
        // 0 → 1, 1 → 0 (SCC). 2 → 0 only: undirected-connected, but 2 is
        // unreachable from anyone, its own SCC.
        let g = ViewGraph::from_views([
            (pid(0), vec![pid(1)]),
            (pid(1), vec![pid(0)]),
            (pid(2), vec![pid(0)]),
        ]);
        assert!(!g.is_partitioned(), "not a §4.4 partition");
        assert_eq!(g.strongly_connected_components().count(), 2);
        assert_eq!(g.reachable_from(pid(2)), Some(3));
        assert_eq!(g.reachable_from(pid(0)), Some(2));
    }

    #[test]
    fn in_degree_statistics() {
        // Star: everyone knows p0.
        let g = ViewGraph::from_views((1..=4).map(|i| (pid(i), vec![pid(0)])));
        let degrees = g.in_degrees();
        let stats = g.in_degree_stats();
        assert_eq!(degrees.iter().sum::<usize>(), 4);
        assert_eq!(stats.max, 4);
        assert_eq!(stats.min, 0);
        assert!((stats.mean - 4.0 / 5.0).abs() < 1e-12);
        assert!(
            stats.coefficient_of_variation() > 1.0,
            "star is very skewed"
        );
        let hist = g.in_degree_histogram();
        assert_eq!(hist[0], 4);
        assert_eq!(hist[4], 1);
    }

    #[test]
    fn uniform_ring_has_zero_cv() {
        let stats = ring(10).in_degree_stats();
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 1);
        assert_eq!(stats.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn dangling_members_become_nodes() {
        // p1 appears only inside p0's view (e.g. p1 already left).
        let g = ViewGraph::from_views([(pid(0), vec![pid(1)])]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.reachable_from(pid(1)), Some(1));
    }

    #[test]
    fn tarjan_handles_nested_sccs() {
        // Two 2-cycles bridged by a one-way edge: {0,1} → {2,3}.
        let g = ViewGraph::from_views([
            (pid(0), vec![pid(1)]),
            (pid(1), vec![pid(0), pid(2)]),
            (pid(2), vec![pid(3)]),
            (pid(3), vec![pid(2)]),
        ]);
        let sccs = g.strongly_connected_components();
        assert_eq!(sccs.count(), 2);
        let (a, b) = (g.index_of(pid(0)).unwrap(), g.index_of(pid(1)).unwrap());
        let (c, d) = (g.index_of(pid(2)).unwrap(), g.index_of(pid(3)).unwrap());
        assert_eq!(sccs.label(a), sccs.label(b));
        assert_eq!(sccs.label(c), sccs.label(d));
        assert_ne!(sccs.label(a), sccs.label(c));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = ViewGraph::from_views(std::iter::empty());
        assert_eq!(empty.node_count(), 0);
        assert!(!empty.is_partitioned());
        assert_eq!(empty.undirected_components().count(), 0);

        let single = ViewGraph::from_views([(pid(0), vec![])]);
        assert_eq!(single.node_count(), 1);
        assert!(!single.is_partitioned());
        assert_eq!(single.strongly_connected_components().count(), 1);
    }

    #[test]
    fn complete_graph_stats_match_l() {
        // n=6, everyone knows everyone: in-degree = 5 = l.
        let n = 6u64;
        let g = ViewGraph::from_views((0..n).map(|i| {
            let members = (0..n).filter(|&j| j != i).map(pid).collect();
            (pid(i), members)
        }));
        let stats = g.in_degree_stats();
        assert_eq!(stats.min, 5);
        assert_eq!(stats.max, 5);
        assert_eq!(stats.coefficient_of_variation(), 0.0);
        assert_eq!(g.strongly_connected_components().count(), 1);
    }
}
