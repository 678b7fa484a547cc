//! A graph's edges in CSR form, the structure graph attention walks.
//!
//! [`EdgeList`] is derived once from a graph's adjacency rows and then
//! read by [`crate::kernels::graph_attention`] and its backward on every
//! pass. Each row's neighbours are kept strictly ascending: the
//! attention kernels accumulate over a row in that order, which is the
//! column order of the dense masked softmax they replace, so the order
//! is part of the bit contract, not a convenience.

use crate::element::Element;
use crate::RuntimeError;

/// The directed edges of an `n`-node graph: row `i`'s neighbours are
/// `cols[offsets[i]..offsets[i + 1]]`, strictly ascending and `< n`.
/// Edge `e` is the `e`-th entry of `cols`, the index the attention
/// kernels key per-edge values (the softmax weights α) by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    offsets: Vec<usize>,
    cols: Vec<u32>,
}

impl EdgeList {
    /// From one neighbour list per node. A row that is not strictly
    /// ascending, or that names a node outside `0..n`, is an error.
    pub fn from_rows<'a, I>(rows: I) -> Result<Self, RuntimeError>
    where
        I: IntoIterator<Item = &'a [u32]>,
        I::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        let n = rows.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut cols = Vec::new();
        for (i, row) in rows.enumerate() {
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(RuntimeError::BadEdges { row: i, reason: "is not strictly ascending" });
            }
            if row.last().is_some_and(|&j| j as usize >= n) {
                return Err(RuntimeError::BadEdges { row: i, reason: "names a node out of range" });
            }
            cols.extend_from_slice(row);
            offsets.push(cols.len());
        }
        Ok(Self { offsets, cols })
    }

    /// The dense row-major `n×n` 0/1 mask of these edges.
    pub fn to_mask<E: Element>(&self) -> Vec<E> {
        let n = self.nodes();
        let mut mask = vec![E::ZERO; n * n];
        for i in 0..n {
            for &j in self.row(i) {
                mask[i * n + j as usize] = E::ONE;
            }
        }
        mask
    }

    /// Number of nodes `n`.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (self-loops included).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the graph has no edges at all.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Node `i`'s neighbours, ascending.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Edge ids of node `i`'s row: `row(i)[k]` is edge `first + k`.
    #[inline]
    pub fn first_edge(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Nodes with no edges at all, not even a self-loop. Attention
    /// gives them all-zero weights, so their aggregated features are 0.
    pub fn isolated(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] == w[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_the_mask() {
        let rows: [&[u32]; 3] = [&[0, 2], &[], &[1, 2]];
        let edges = EdgeList::from_rows(rows).unwrap();
        assert_eq!((edges.nodes(), edges.len(), edges.isolated()), (3, 4, 1));
        assert_eq!(edges.row(0), &[0, 2]);
        assert!(edges.row(1).is_empty());
        assert_eq!(edges.first_edge(2), 2);
        assert_eq!(edges.to_mask::<f64>(), [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let unsorted: [&[u32]; 2] = [&[1, 0], &[1]];
        let err = EdgeList::from_rows(unsorted).unwrap_err();
        assert_eq!(err, RuntimeError::BadEdges { row: 0, reason: "is not strictly ascending" });
        let duplicate: [&[u32]; 2] = [&[0], &[1, 1]];
        assert!(EdgeList::from_rows(duplicate).is_err());
        let out_of_range: [&[u32]; 2] = [&[0], &[2]];
        assert!(EdgeList::from_rows(out_of_range).unwrap_err().to_string().contains("row 1"));
    }

    #[test]
    fn empty_graph_has_no_nodes() {
        let edges = EdgeList::from_rows(std::iter::empty::<&[u32]>()).unwrap();
        assert_eq!((edges.nodes(), edges.len(), edges.isolated()), (0, 0, 0));
        assert!(edges.to_mask::<f32>().is_empty());
    }
}
