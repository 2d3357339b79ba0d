//! The core immutable CSR graph type.
//!
//! [`Graph`] stores a weighted undirected multigraph in compressed sparse
//! row (CSR) form. Every undirected edge has a stable [`EdgeId`] (its index
//! in the edge list) so that higher layers — the AKPW contraction, the
//! low-stretch subgraph output, the incremental sparsifier — can refer to
//! edges of the *original* graph across transformations.

use crate::parutil::{exclusive_prefix_sum, SyncMutPtr, SEQ_CUTOFF};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Vertex identifier. Vertices are numbered `0..n`.
pub type VertexId = u32;

/// Undirected edge identifier. Edges are numbered `0..m` in the order they
/// were supplied to the builder.
pub type EdgeId = u32;

/// Sentinel for "no vertex" (used in BFS parents, component labels, ...).
pub const INVALID_VERTEX: VertexId = u32::MAX;

/// A structural defect found while validating graph input data.
///
/// Returned by [`Graph::validated`]; every variant pins the offending edge
/// index so callers (and error messages) can point at the exact input
/// record. The panicking constructors ([`Graph::from_edges`],
/// [`GraphBuilder::add_edge`](crate::builder::GraphBuilder::add_edge))
/// enforce the same invariants with `assert!`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphDataError {
    /// An edge weight is NaN or ±∞.
    NonFiniteWeight {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// An edge weight is zero or negative (weights are conductances and
    /// must be strictly positive).
    NonPositiveWeight {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// An edge connects a vertex to itself.
    SelfLoop {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The looping vertex.
        vertex: VertexId,
    },
    /// An edge references a vertex `>= n` (a "ghost" vertex outside the
    /// declared vertex set).
    EndpointOutOfRange {
        /// Index of the offending edge in the input list.
        edge: usize,
        /// The out-of-range endpoint.
        endpoint: VertexId,
        /// The declared vertex count.
        n: usize,
    },
}

impl std::fmt::Display for GraphDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphDataError::NonFiniteWeight { edge, weight } => {
                write!(f, "edge {edge} has non-finite weight {weight}")
            }
            GraphDataError::NonPositiveWeight { edge, weight } => {
                write!(f, "edge {edge} has non-positive weight {weight}")
            }
            GraphDataError::SelfLoop { edge, vertex } => {
                write!(f, "edge {edge} is a self-loop at vertex {vertex}")
            }
            GraphDataError::EndpointOutOfRange { edge, endpoint, n } => {
                write!(
                    f,
                    "edge {edge} references vertex {endpoint} outside the vertex set 0..{n}"
                )
            }
        }
    }
}

impl std::error::Error for GraphDataError {}

/// Checks one edge against the graph invariants (used by both the
/// panicking and the fallible constructors).
pub(crate) fn check_edge(i: usize, e: &Edge, n: usize) -> Result<(), GraphDataError> {
    if (e.u as usize) >= n {
        return Err(GraphDataError::EndpointOutOfRange {
            edge: i,
            endpoint: e.u,
            n,
        });
    }
    if (e.v as usize) >= n {
        return Err(GraphDataError::EndpointOutOfRange {
            edge: i,
            endpoint: e.v,
            n,
        });
    }
    if e.u == e.v {
        return Err(GraphDataError::SelfLoop {
            edge: i,
            vertex: e.u,
        });
    }
    if !e.w.is_finite() {
        return Err(GraphDataError::NonFiniteWeight {
            edge: i,
            weight: e.w,
        });
    }
    if e.w <= 0.0 {
        return Err(GraphDataError::NonPositiveWeight {
            edge: i,
            weight: e.w,
        });
    }
    Ok(())
}

/// An undirected weighted edge `{u, v}` with weight `w > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Positive edge weight. In Laplacian terms this is the conductance;
    /// in metric terms the *length* of the edge is `1/w` for some uses and
    /// `w` for others — the stretch module documents which convention it
    /// uses (the paper treats `w(e)` as a length).
    pub w: f64,
}

impl Edge {
    /// Creates a new edge.
    #[inline]
    pub fn new(u: VertexId, v: VertexId, w: f64) -> Self {
        Edge { u, v, w }
    }

    /// Returns the endpoint different from `x`; panics if `x` is not an
    /// endpoint of this edge.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v);
            self.u
        }
    }
}

/// A weighted undirected multigraph in CSR form with stable edge ids.
///
/// The graph is immutable after construction (use
/// [`GraphBuilder`](crate::builder::GraphBuilder) or the constructors on
/// this type). Self-loops are not allowed; parallel edges are.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Arc targets, length `2m`.
    targets: Vec<VertexId>,
    /// Arc weights, length `2m` (mirrors the undirected edge weight).
    weights: Vec<f64>,
    /// Undirected edge id of each arc, length `2m`.
    arc_edge: Vec<EdgeId>,
    /// The undirected edge list, length `m`.
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Panics if an edge references a vertex `>= n`, has a non-positive or
    /// non-finite weight, or is a self-loop. [`Graph::validated`] is the
    /// fallible alternative for untrusted input.
    pub fn from_edges(n: usize, edges: Vec<Edge>) -> Self {
        match Self::validated(n, edges) {
            Ok(g) => g,
            Err(e) => panic!("Graph::from_edges: {e}"),
        }
    }

    /// Builds a graph with `n` vertices from an untrusted undirected edge
    /// list, returning a typed [`GraphDataError`] (instead of panicking)
    /// on the first self-loop, out-of-range endpoint, or non-finite /
    /// non-positive weight.
    pub fn validated(n: usize, edges: Vec<Edge>) -> Result<Self, GraphDataError> {
        Self::validate_edges(n, &edges)?;
        Ok(Self::from_edges_unchecked(n, edges))
    }

    /// Checks an edge list against the invariants [`Graph::validated`]
    /// enforces, in place, without building anything: the error names the
    /// offending edge with the lowest index, at every pool width.
    pub fn validate_edges(n: usize, edges: &[Edge]) -> Result<(), GraphDataError> {
        if edges.len() < SEQ_CUTOFF {
            for (i, e) in edges.iter().enumerate() {
                check_edge(i, e, n)?;
            }
        } else if let Some((_, err)) = edges
            .par_iter()
            .enumerate()
            .with_min_len(SEQ_CUTOFF)
            .filter_map(|(i, e)| check_edge(i, e, n).err().map(|err| (i, err)))
            .min_by(|a, b| a.0.cmp(&b.0))
        {
            return Err(err);
        }
        Ok(())
    }

    /// Builds a graph assuming the edge list has already been validated.
    ///
    /// Above [`SEQ_CUTOFF`] edges the CSR is
    /// assembled in parallel (atomic degree counting, parallel prefix sums,
    /// atomic-cursor scatter, then a per-vertex segment sort by edge id that
    /// restores the sequential fill's exact arc order) — the result is
    /// bitwise identical to the sequential path at every pool width.
    pub fn from_edges_unchecked(n: usize, edges: Vec<Edge>) -> Self {
        let m = edges.len();
        if m < SEQ_CUTOFF {
            return Self::from_edges_sequential(n, edges);
        }
        // Parallel degree counting. Arc counts are exact integers, so the
        // scatter order does not affect them.
        let degree: Vec<AtomicU32> = (0..n)
            .into_par_iter()
            .with_min_len(SEQ_CUTOFF)
            .map(|_| AtomicU32::new(0))
            .collect();
        edges.par_iter().with_min_len(SEQ_CUTOFF).for_each(|e| {
            degree[e.u as usize].fetch_add(1, Ordering::Relaxed);
            degree[e.v as usize].fetch_add(1, Ordering::Relaxed);
        });
        let counts: Vec<usize> = degree
            .par_iter()
            .with_min_len(SEQ_CUTOFF)
            .map(|d| d.load(Ordering::Relaxed) as usize)
            .collect();
        // Parallel prefix sums -> offsets.
        let offsets = exclusive_prefix_sum(&counts);
        debug_assert_eq!(offsets[n], 2 * m);
        // Scatter arcs through per-vertex atomic cursors. Arrival order
        // within a vertex is nondeterministic here; the segment sort below
        // canonicalises it.
        let cursor: Vec<AtomicUsize> = offsets[..n]
            .par_iter()
            .with_min_len(SEQ_CUTOFF)
            .map(|&o| AtomicUsize::new(o))
            .collect();
        let mut targets = vec![0 as VertexId; 2 * m];
        let mut weights = vec![0.0f64; 2 * m];
        let mut arc_edge = vec![0 as EdgeId; 2 * m];
        {
            let tp = SyncMutPtr(targets.as_mut_ptr());
            let wp = SyncMutPtr(weights.as_mut_ptr());
            let ep = SyncMutPtr(arc_edge.as_mut_ptr());
            edges
                .par_iter()
                .enumerate()
                .with_min_len(SEQ_CUTOFF / 4)
                .for_each(|(id, e)| {
                    let pu = cursor[e.u as usize].fetch_add(1, Ordering::Relaxed);
                    let pv = cursor[e.v as usize].fetch_add(1, Ordering::Relaxed);
                    // SAFETY: fetch_add hands every arc a distinct slot in
                    // the vertex's `offsets[u]..offsets[u+1]` segment.
                    unsafe {
                        tp.write(pu, e.v);
                        wp.write(pu, e.w);
                        ep.write(pu, id as EdgeId);
                        tp.write(pv, e.u);
                        wp.write(pv, e.w);
                        ep.write(pv, id as EdgeId);
                    }
                });
        }
        // Canonicalise every vertex segment to edge-id order — exactly the
        // layout the sequential fill produces (each edge contributes one arc
        // per endpoint, in input order).
        {
            let tp = SyncMutPtr(targets.as_mut_ptr());
            let wp = SyncMutPtr(weights.as_mut_ptr());
            let ep = SyncMutPtr(arc_edge.as_mut_ptr());
            let targets_r = &targets;
            let weights_r = &weights;
            let arc_edge_r = &arc_edge;
            let offsets_r = &offsets;
            (0..n)
                .into_par_iter()
                .with_min_len(SEQ_CUTOFF / 4)
                .for_each(|v| {
                    let lo = offsets_r[v];
                    let hi = offsets_r[v + 1];
                    if hi - lo < 2 {
                        return;
                    }
                    let mut seg: Vec<(EdgeId, VertexId, f64)> = (lo..hi)
                        .map(|i| (arc_edge_r[i], targets_r[i], weights_r[i]))
                        .collect();
                    seg.sort_unstable_by_key(|a| a.0);
                    for (k, (e, t, w)) in seg.into_iter().enumerate() {
                        // SAFETY: vertex segments are disjoint; this task
                        // owns `lo..hi` exclusively.
                        unsafe {
                            ep.write(lo + k, e);
                            tp.write(lo + k, t);
                            wp.write(lo + k, w);
                        }
                    }
                });
        }
        Graph {
            n,
            offsets,
            targets,
            weights,
            arc_edge,
            edges,
        }
    }

    /// Sequential CSR assembly (small inputs and the reference layout for
    /// the parallel path above).
    fn from_edges_sequential(n: usize, edges: Vec<Edge>) -> Self {
        let m = edges.len();
        // Degree counting.
        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        // Prefix sums -> offsets.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        debug_assert_eq!(acc, 2 * m);
        // Fill arcs.
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; 2 * m];
        let mut weights = vec![0.0f64; 2 * m];
        let mut arc_edge = vec![0 as EdgeId; 2 * m];
        for (id, e) in edges.iter().enumerate() {
            let pu = cursor[e.u as usize];
            targets[pu] = e.v;
            weights[pu] = e.w;
            arc_edge[pu] = id as EdgeId;
            cursor[e.u as usize] += 1;

            let pv = cursor[e.v as usize];
            targets[pv] = e.u;
            weights[pv] = e.w;
            arc_edge[pv] = id as EdgeId;
            cursor[e.v as usize] += 1;
        }
        Graph {
            n,
            offsets,
            targets,
            weights,
            arc_edge,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes this graph's CSR + edge list occupy (offsets, arc
    /// targets/weights/edge-ids, and the undirected edge array): the cost
    /// of *retaining* the graph, as opposed to the bytes a solver kernel
    /// streams. Used by the chain's resident-memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<f64>()
            + self.arc_edge.len() * std::mem::size_of::<EdgeId>()
            + self.edges.len() * std::mem::size_of::<Edge>()
    }

    /// Degree of vertex `v` (counting parallel edges).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The undirected edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with identifier `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Neighbors of `v` (with multiplicity), as a slice of vertex ids.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates over the arcs leaving `v` as `(neighbor, weight, edge_id)`.
    #[inline]
    pub fn arcs(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64, EdgeId)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        (lo..hi).map(move |i| (self.targets[i], self.weights[i], self.arc_edge[i]))
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.par_iter().map(|e| e.w).sum()
    }

    /// Minimum edge weight (`None` for the empty graph).
    pub fn min_weight(&self) -> Option<f64> {
        self.edges.par_iter().map(|e| e.w).reduce_with(f64::min)
    }

    /// Maximum edge weight (`None` for the empty graph).
    pub fn max_weight(&self) -> Option<f64> {
        self.edges.par_iter().map(|e| e.w).reduce_with(f64::max)
    }

    /// The *spread* Δ = max weight / min weight (1.0 for the empty graph).
    pub fn spread(&self) -> f64 {
        match (self.min_weight(), self.max_weight()) {
            (Some(lo), Some(hi)) => hi / lo,
            _ => 1.0,
        }
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .into_par_iter()
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Returns a copy of the graph with every edge weight replaced by `1.0`.
    pub fn unweighted(&self) -> Graph {
        let edges = self
            .edges
            .par_iter()
            .map(|e| Edge::new(e.u, e.v, 1.0))
            .collect();
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// Returns the subgraph consisting of the listed edge ids, on the same
    /// vertex set.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> Graph {
        let edges: Vec<Edge> = edge_ids.iter().map(|&e| self.edge(e)).collect();
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// Merges parallel edges by summing their weights, returning a simple
    /// graph (no parallel edges, no self-loops). Edge ids are renumbered.
    ///
    /// Implemented as a parallel sort + run merge (no hash map, so peak
    /// memory stays flat at web scale). Parallel edges are summed in input
    /// order and output edges are sorted by `(u, v)`, matching the original
    /// hash-map implementation bitwise.
    pub fn simplify(&self) -> Graph {
        let m = self.m();
        // (min, max, id) triples; sorting the full triple keeps input order
        // within each endpoint group, so the weight sums below accumulate
        // parallel edges in edge-id order.
        let mut keyed: Vec<(VertexId, VertexId, EdgeId)> = self
            .edges
            .par_iter()
            .enumerate()
            .with_min_len(SEQ_CUTOFF)
            .map(|(id, e)| {
                let (a, b) = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
                (a, b, id as EdgeId)
            })
            .collect();
        keyed.par_sort_unstable();
        // Group starts, compacted in order.
        let keyed_r = &keyed;
        let starts: Vec<usize> = (0..m)
            .into_par_iter()
            .with_min_len(SEQ_CUTOFF)
            .filter(|&i| {
                i == 0 || (keyed_r[i].0, keyed_r[i].1) != (keyed_r[i - 1].0, keyed_r[i - 1].1)
            })
            .collect();
        let starts_r = &starts;
        let edges: Vec<Edge> = (0..starts.len())
            .into_par_iter()
            .with_min_len(SEQ_CUTOFF / 4)
            .map(|gi| {
                let lo = starts_r[gi];
                let hi = if gi + 1 < starts_r.len() {
                    starts_r[gi + 1]
                } else {
                    m
                };
                let (u, v, _) = keyed_r[lo];
                let mut w = 0.0;
                for k in keyed_r[lo..hi].iter() {
                    w += self.edges[k.2 as usize].w;
                }
                Edge::new(u, v, w)
            })
            .collect();
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// True when the graph contains no parallel edges.
    pub fn is_simple(&self) -> bool {
        let mut keys: Vec<u64> = self
            .edges
            .par_iter()
            .with_min_len(SEQ_CUTOFF)
            .map(|e| {
                let (a, b) = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
                ((a as u64) << 32) | b as u64
            })
            .collect();
        keys.par_sort_unstable();
        !keys
            .par_windows(2)
            .with_min_len(SEQ_CUTOFF)
            .any(|w| w[0] == w[1])
    }

    /// The raw CSR offset array, length `n + 1`. `offsets[v]..offsets[v+1]`
    /// is vertex `v`'s arc segment in [`csr_targets`](Self::csr_targets) /
    /// [`csr_weights`](Self::csr_weights) / [`csr_arc_edges`](Self::csr_arc_edges).
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw arc-target array, length `2m`.
    #[inline]
    pub fn csr_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The raw arc-weight array, length `2m`.
    #[inline]
    pub fn csr_weights(&self) -> &[f64] {
        &self.weights
    }

    /// The raw arc→edge-id array, length `2m`.
    #[inline]
    pub fn csr_arc_edges(&self) -> &[EdgeId] {
        &self.arc_edge
    }

    /// Volume (sum of degrees) of a set of vertices.
    pub fn volume(&self, vertices: &[VertexId]) -> usize {
        vertices.iter().map(|&v| self.degree(v)).sum()
    }

    /// Weighted degree (sum of incident edge weights) of vertex `v`.
    pub fn weighted_degree(&self, v: VertexId) -> f64 {
        self.arcs(v).map(|(_, w, _)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
                Edge::new(2, 0, 4.0),
            ],
        )
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_and_arcs() {
        let g = triangle();
        let mut nbrs: Vec<_> = g.neighbors(0).to_vec();
        nbrs.sort();
        assert_eq!(nbrs, vec![1, 2]);
        let arcs: Vec<_> = g.arcs(1).collect();
        assert_eq!(arcs.len(), 2);
        for (nbr, w, id) in arcs {
            let e = g.edge(id);
            assert!((e.u == 1 && e.v == nbr) || (e.v == 1 && e.u == nbr));
            assert_eq!(e.w, w);
        }
    }

    #[test]
    fn weight_statistics() {
        let g = triangle();
        assert_eq!(g.total_weight(), 7.0);
        assert_eq!(g.min_weight(), Some(1.0));
        assert_eq!(g.max_weight(), Some(4.0));
        assert_eq!(g.spread(), 4.0);
        assert!((g.weighted_degree(2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn unweighted_copy() {
        let g = triangle().unweighted();
        assert!(g.edges().iter().all(|e| e.w == 1.0));
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn edge_subgraph_selects_edges() {
        let g = triangle();
        let sub = g.edge_subgraph(&[0, 2]);
        assert_eq!(sub.m(), 2);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.degree(1), 1);
    }

    #[test]
    fn simplify_merges_parallel_edges() {
        let g = Graph::from_edges(
            2,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 0, 2.5),
                Edge::new(0, 1, 0.5),
            ],
        );
        assert!(!g.is_simple());
        let s = g.simplify();
        assert!(s.is_simple());
        assert_eq!(s.m(), 1);
        assert!((s.edge(0).w - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let _ = Graph::from_edges(2, vec![Edge::new(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        let _ = Graph::from_edges(2, vec![Edge::new(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        let _ = Graph::from_edges(2, vec![Edge::new(0, 1, 0.0)]);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7, 1.0);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    /// Deterministic pseudo-random edge list large enough to exercise the
    /// parallel CSR assembly path (splitmix64-style mixing).
    fn scrambled_edges(n: u32, m: usize) -> Vec<Edge> {
        let mut out = Vec::with_capacity(m);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..m {
            let mut next = || {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            let u = (next() % n as u64) as u32;
            let mut v = (next() % n as u64) as u32;
            if v == u {
                v = (v + 1) % n;
            }
            let w = 0.5 + (next() % 1000) as f64 / 250.0;
            out.push(Edge::new(u, v, w));
        }
        out
    }

    #[test]
    fn parallel_build_matches_sequential_layout() {
        let n = 503;
        let edges = scrambled_edges(n as u32, SEQ_CUTOFF + 1717);
        let par = Graph::from_edges_unchecked(n, edges.clone());
        let seq = Graph::from_edges_sequential(n, edges);
        assert_eq!(par.offsets, seq.offsets);
        assert_eq!(par.targets, seq.targets);
        assert_eq!(par.arc_edge, seq.arc_edge);
        assert!(par
            .weights
            .iter()
            .zip(&seq.weights)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn simplify_matches_hashmap_reference() {
        use std::collections::HashMap;
        let n = 97;
        let edges = scrambled_edges(n as u32, SEQ_CUTOFF + 311);
        let g = Graph::from_edges_unchecked(n, edges.clone());
        let mut map: HashMap<(VertexId, VertexId), f64> = HashMap::new();
        for e in &edges {
            let key = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            *map.entry(key).or_insert(0.0) += e.w;
        }
        let mut expect: Vec<Edge> = map
            .into_iter()
            .map(|((u, v), w)| Edge::new(u, v, w))
            .collect();
        expect.sort_by_key(|e| (e.u, e.v));
        let s = g.simplify();
        assert!(s.is_simple());
        assert_eq!(s.m(), expect.len());
        for (a, b) in s.edges().iter().zip(&expect) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.w.to_bits(), b.w.to_bits());
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(5, vec![]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_weight(), None);
        assert_eq!(g.spread(), 1.0);
        assert_eq!(g.max_degree(), 0);
    }
}
