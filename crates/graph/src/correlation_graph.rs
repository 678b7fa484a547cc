//! Top-k Pearson correlation graph over companies, stored in CSR form.

use ams_stats::pearson;

/// Configuration for [`CompanyGraph::from_series`].
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct GraphConfig {
    /// Number of strongest-correlated neighbours per company (the
    /// hyperparameter `k` of §III-C; Figure 4 illustrates `k = 5`).
    pub k: usize,
    /// Keep a self-loop on every node so each company attends to itself
    /// in the GAT. Default true.
    pub self_loops: bool,
    /// Symmetrize the directed top-k relation. Default true.
    pub symmetric: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self { k: 5, self_loops: true, symmetric: true }
    }
}

/// The company correlation graph in CSR (compressed sparse row) form.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CompanyGraph {
    n: usize,
    /// CSR row offsets, length n+1.
    offsets: Vec<usize>,
    /// Neighbour ids, sorted within each row.
    neighbors: Vec<u32>,
}

impl CompanyGraph {
    /// Build from per-company revenue history: `series[i]` is company
    /// `i`'s revenue over the training window, all the same length.
    ///
    /// For each company the `k` companies with the largest Pearson
    /// correlation are selected (ties broken by lower id for
    /// determinism). Self-correlation is excluded from the ranking.
    ///
    /// # Panics
    /// Panics if the series are ragged.
    pub fn from_series(series: &[Vec<f64>], config: GraphConfig) -> Self {
        let n = series.len();
        if n > 0 {
            let len = series[0].len();
            assert!(series.iter().all(|s| s.len() == len), "from_series: ragged revenue series");
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            // Rank all other companies by correlation with company i.
            let mut scored: Vec<(f64, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (pearson(&series[i], &series[j]), j as u32))
                .collect();
            // Highest correlation first; ties by lower id.
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            for &(_, j) in scored.iter().take(config.k) {
                adj[i].push(j);
            }
        }
        if config.symmetric {
            let snapshot = adj.clone();
            for (i, neigh) in snapshot.iter().enumerate() {
                for &j in neigh {
                    if !snapshot[j as usize].contains(&(i as u32)) {
                        adj[j as usize].push(i as u32);
                    }
                }
            }
        }
        if config.self_loops {
            for (i, row) in adj.iter_mut().enumerate() {
                row.push(i as u32);
            }
        }
        Self::from_adjacency(adj)
    }

    /// Build directly from adjacency lists (deduplicated and sorted).
    pub fn from_adjacency(mut adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len();
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
            if let Some(&maxid) = row.last() {
                assert!((maxid as usize) < n, "from_adjacency: neighbour id {maxid} out of range");
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        for row in &adj {
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len());
        }
        Self { n, offsets, neighbors }
    }

    /// A complete graph with self-loops on `n` nodes (the degenerate
    /// "everything related to everything" baseline used by ablations).
    pub fn complete(n: usize) -> Self {
        Self::from_adjacency((0..n).map(|_| (0..n as u32).collect()).collect())
    }

    /// An edgeless graph (with self-loops) — the "no graph information"
    /// ablation, where the GAT degenerates into per-node transforms.
    pub fn isolated(n: usize) -> Self {
        Self::from_adjacency((0..n as u32).map(|i| vec![i]).collect())
    }

    /// Number of companies.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total number of directed edges (self-loops included).
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbours of node `i`, sorted ascending.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of node `i` (self-loop counts).
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// True when edge `i → j` exists.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.neighbors(i).binary_search(&(j as u32)).is_ok()
    }

    /// Mean degree across nodes.
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / self.n as f64
    }
}

// Deserialization is manual so a hand-edited or truncated artifact
// cannot smuggle in a malformed CSR (every accessor indexes through
// `offsets` unchecked-by-construction).
impl serde::Deserialize for CompanyGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("CompanyGraph: missing `{name}`")))
        };
        let n = usize::from_value(field("n")?)?;
        let offsets = Vec::<usize>::from_value(field("offsets")?)?;
        let neighbors = Vec::<u32>::from_value(field("neighbors")?)?;
        if offsets.len() != n + 1 || offsets.first() != Some(&0) {
            return Err(serde::Error::custom(format!(
                "CompanyGraph: offsets must have length n+1={} starting at 0",
                n + 1
            )));
        }
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(serde::Error::custom("CompanyGraph: offsets must be non-decreasing"));
        }
        if *offsets.last().expect("nonempty") != neighbors.len() {
            return Err(serde::Error::custom(format!(
                "CompanyGraph: final offset {} != neighbour count {}",
                offsets.last().expect("nonempty"),
                neighbors.len()
            )));
        }
        if neighbors.iter().any(|&j| j as usize >= n) {
            return Err(serde::Error::custom("CompanyGraph: neighbour id out of range"));
        }
        // Rows are sorted and deduplicated by every constructor; graph
        // attention accumulates over a row in that order.
        if offsets.windows(2).any(|w| neighbors[w[0]..w[1]].windows(2).any(|p| p[0] >= p[1])) {
            return Err(serde::Error::custom(
                "CompanyGraph: neighbours must be strictly ascending within each row",
            ));
        }
        Ok(CompanyGraph { n, offsets, neighbors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four companies: 0 and 1 move together, 2 and 3 move together,
    /// the pairs are anti-correlated.
    fn two_cluster_series() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![2.0, 4.1, 5.9, 8.0, 10.2],
            vec![5.0, 4.0, 3.0, 2.0, 1.0],
            vec![10.1, 8.0, 6.2, 3.9, 2.0],
        ]
    }

    #[test]
    fn topk_picks_most_correlated() {
        let g = CompanyGraph::from_series(
            &two_cluster_series(),
            GraphConfig { k: 1, self_loops: false, symmetric: false },
        );
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn self_loops_present_by_default() {
        let g = CompanyGraph::from_series(&two_cluster_series(), GraphConfig::default());
        for i in 0..4 {
            assert!(g.has_edge(i, i), "missing self-loop on {i}");
        }
    }

    #[test]
    fn symmetrization_adds_reverse_edges() {
        // Company 0 highly correlated with 1; with k=1 and asymmetric
        // correlations, symmetric=true must make has_edge symmetric.
        let g = CompanyGraph::from_series(
            &two_cluster_series(),
            GraphConfig { k: 2, self_loops: false, symmetric: true },
        );
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g.has_edge(i, j), g.has_edge(j, i), "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn k_larger_than_population_is_capped() {
        let g = CompanyGraph::from_series(
            &two_cluster_series(),
            GraphConfig { k: 100, self_loops: false, symmetric: false },
        );
        for i in 0..4 {
            assert_eq!(g.degree(i), 3); // everyone else, no self
        }
    }

    #[test]
    fn from_adjacency_dedups_and_sorts() {
        let g = CompanyGraph::from_adjacency(vec![vec![2, 1, 2, 1], vec![0], vec![]]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_adjacency_rejects_bad_ids() {
        CompanyGraph::from_adjacency(vec![vec![5]]);
    }

    #[test]
    fn complete_and_isolated() {
        let c = CompanyGraph::complete(3);
        assert_eq!(c.num_edges(), 9);
        let i = CompanyGraph::isolated(3);
        assert_eq!(i.num_edges(), 3);
        assert!(i.has_edge(1, 1));
        assert!(!i.has_edge(0, 1));
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Three identical series: correlations all tie at 1; lower ids win.
        let s = vec![vec![1.0, 2.0, 3.0]; 3];
        let g = CompanyGraph::from_series(
            &s,
            GraphConfig { k: 1, self_loops: false, symmetric: false },
        );
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn empty_graph() {
        let g = CompanyGraph::from_series(&[], GraphConfig::default());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn mean_degree() {
        let g = CompanyGraph::complete(4);
        assert_eq!(g.mean_degree(), 4.0);
    }

    #[test]
    fn serde_json_round_trip() {
        let g = CompanyGraph::from_series(&two_cluster_series(), GraphConfig::default());
        let json = serde_json::to_string(&g).unwrap();
        let back: CompanyGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);

        let cfg = GraphConfig { k: 7, self_loops: false, symmetric: true };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: GraphConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.k, cfg.k);
        assert_eq!(back.self_loops, cfg.self_loops);
        assert_eq!(back.symmetric, cfg.symmetric);
    }

    #[test]
    fn serde_rejects_malformed_csr() {
        // Neighbour id out of range for the declared node count.
        let bad = r#"{"n": 2, "offsets": [0, 1, 1], "neighbors": [5]}"#;
        assert!(serde_json::from_str::<CompanyGraph>(bad).is_err());
        // Offsets of the wrong length.
        let bad = r#"{"n": 2, "offsets": [0, 1], "neighbors": [1]}"#;
        assert!(serde_json::from_str::<CompanyGraph>(bad).is_err());
        // Decreasing offsets.
        let bad = r#"{"n": 2, "offsets": [0, 1, 0], "neighbors": []}"#;
        assert!(serde_json::from_str::<CompanyGraph>(bad).is_err());
        // A row out of order, and a repeated neighbour.
        let bad = r#"{"n": 2, "offsets": [0, 2, 2], "neighbors": [1, 0]}"#;
        assert!(serde_json::from_str::<CompanyGraph>(bad).is_err());
        let bad = r#"{"n": 2, "offsets": [0, 0, 2], "neighbors": [1, 1]}"#;
        assert!(serde_json::from_str::<CompanyGraph>(bad).is_err());
    }
}
