//! Random graph families.
//!
//! These are the expander classes of the paper's Theorem 2 examples:
//! random `d`-regular graphs (`λ = O(1/√d)` w.h.p.) and Erdős–Rényi
//! `G(n,p)` above the connectivity threshold (`λ ≤ (1+o(1))·2/√(np)`
//! w.h.p.), plus two structured random families (Watts–Strogatz,
//! Barabási–Albert) used as additional workloads.

use rand::{Rng, RngCore};

use crate::{prefetch, Graph, GraphBuilder, GraphError};

/// Maximum number of full restarts before
/// [`random_regular`] reports [`GraphError::GenerationFailed`].
const REGULAR_MAX_ATTEMPTS: usize = 1_000;
/// Consecutive rejected stub pairs after which [`random_regular`] checks
/// exhaustively whether any valid pair remains.
const PAIR_TRIES: usize = 64;
/// Capacity of [`random_regular`]'s lookahead ring of raw RNG words.
const RING: usize = 64;
/// How many stub pairs ahead [`random_regular`] prefetches the stub
/// slots; the two vertices' adjacency rows follow `D / 2` pairs ahead.
const D: usize = 16;

/// A random simple `d`-regular graph on `n` vertices, via the
/// Steger–Wormald pairing algorithm.
///
/// Stubs (half-edges) are paired one edge at a time, each time drawing a
/// uniform pair among the remaining stubs and rejecting only pairs that
/// would create a loop or a parallel edge; if the process wedges (the
/// remaining stubs admit no valid pair) the whole attempt restarts.  The
/// resulting distribution is asymptotically uniform over simple
/// `d`-regular graphs (Steger & Wormald 1999) and the algorithm is fast
/// for `d = o(n^{1/3})`, covering every degree used in the experiments.
///
/// The sample is *not* conditioned on connectivity; for `d ≥ 3` it is
/// connected with high probability.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `d == 0`, `d >= n`, or `nd`
/// is odd, and [`GraphError::GenerationFailed`] if no simple sample is
/// found within the restart budget.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), div_graph::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = div_graph::generators::random_regular(100, 4, &mut rng)?;
/// assert!(g.is_regular());
/// assert_eq!(g.min_degree(), 4);
/// # Ok(())
/// # }
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if d == 0 {
        return Err(GraphError::invalid("random_regular requires d >= 1"));
    }
    if d >= n {
        return Err(GraphError::invalid(format!(
            "random_regular requires d < n (got d={d}, n={n})"
        )));
    }
    // The stub list indexes vertices as u32 and holds n·d entries: both
    // bounds are checked up front so million-vertex requests fail loudly
    // on narrow targets instead of truncating through `as` casts.
    if n > u32::MAX as usize {
        return Err(GraphError::overflow(
            "random_regular",
            format!("vertex count {n} exceeds the u32 stub index"),
        ));
    }
    let num_stubs = n
        .checked_mul(d)
        .ok_or_else(|| GraphError::overflow("random_regular", format!("stub count {n} * {d}")))?;
    if !num_stubs.is_multiple_of(2) {
        return Err(GraphError::invalid(format!(
            "random_regular requires n*d even (got n={n}, d={d})"
        )));
    }

    let mut table = Adjacency {
        d,
        adj: vec![0; num_stubs],
        fill: vec![0; n],
    };
    let mut stubs: Vec<u32> = Vec::with_capacity(num_stubs);
    let mut ring = WordRing {
        words: [0; RING],
        head: 0,
        len: 0,
    };
    for _ in 0..REGULAR_MAX_ATTEMPTS {
        // Stub list: vertex v appears once per unit of residual degree.
        stubs.clear();
        stubs.extend((0..num_stubs).map(|i| (i / d) as u32));
        table.fill.fill(0);
        if pair_stubs(&mut stubs, &mut table, &mut ring, rng) {
            debug_assert_eq!(ring.len, 0);
            drop(stubs); // before the edge list is allocated: lower peak memory
            return Ok(table.into_graph());
        }
    }
    debug_assert_eq!(ring.len, 0);
    Err(GraphError::GenerationFailed {
        generator: "random_regular",
        attempts: REGULAR_MAX_ATTEMPTS,
    })
}

/// One attempt of [`random_regular`]'s pairing loop: pairs up `stubs`
/// into `table`, returning `false` if the attempt wedges.
///
/// Each trial draws `i = gen_range(0..L)` and `j = gen_range(0..L − 1)`
/// (shifted past `i`) over the `L` remaining stubs and keeps the pair
/// unless it is a loop or repeats an edge; after [`PAIR_TRIES`] rejections
/// in a row an exhaustive scan decides between "unlucky, keep sampling"
/// and "wedged".
///
/// The draws go through `ring`, a lookahead buffer of raw RNG words,
/// so the stub slots and adjacency rows a coming pair will touch can be
/// prefetched while earlier pairs are placed.  The ring is exact: before
/// each trial it is topped up to at most `min(RING, L − 1, PAIR_TRIES −
/// rejections)` words, and the loop always draws at least that many more
/// — a completed attempt at least `L − 1` (two words a pair, one for the
/// last pair, whose `gen_range(0..1)` draws none) and a wedge at least one
/// word per trial left in the rejection streak.  So the ring never runs
/// ahead of the stream and is empty whenever the loop returns, leaving the
/// generator exactly where drawing each word on demand would have.
fn pair_stubs<R: RngCore + ?Sized>(
    stubs: &mut Vec<u32>,
    table: &mut Adjacency,
    ring: &mut WordRing,
    rng: &mut R,
) -> bool {
    let mut rejections = 0;
    while !stubs.is_empty() {
        let len = stubs.len();
        ring.fill(rng, RING.min(len - 1).min(PAIR_TRIES - rejections));
        prefetch_ahead(ring, stubs, table);
        let i = ring.gen_index(rng, len);
        let mut j = ring.gen_index(rng, len - 1);
        if j >= i {
            j += 1;
        }
        let (u, v) = (stubs[i], stubs[j]);
        if u != v && !table.adjacent(u, v) {
            table.link(u, v);
            // Remove both stubs (higher index first).
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            stubs.swap_remove(hi);
            stubs.swap_remove(lo);
            rejections = 0;
            continue;
        }
        rejections += 1;
        if rejections == PAIR_TRIES {
            // Exhaustively verify whether any valid pair remains.
            let any = (0..len).any(|a| {
                (a + 1..len).any(|b| stubs[a] != stubs[b] && !table.adjacent(stubs[a], stubs[b]))
            });
            if !any {
                return false; // wedged; restart
            }
            // Valid pairs exist but we were unlucky; keep sampling.
            rejections = 0;
        }
    }
    true
}

/// Prefetches for the pairs `D` and `D / 2` trials ahead, assuming every
/// pair until then is accepted (two words a pair, the stub count falling
/// by two each time): `D` pairs ahead the two stub slots, `D / 2` pairs
/// ahead the two vertices' adjacency rows and fill counts.  A rejection
/// or a Lemire redraw in between only mis-aims a prefetch.
#[inline(always)]
fn prefetch_ahead(ring: &WordRing, stubs: &[u32], table: &Adjacency) {
    // The slots pair `k` ahead would draw, if its words are buffered.
    let slots = |k: usize| {
        let len = stubs.len().checked_sub(2 * k).filter(|&len| len >= 3)?;
        let i = rand::bounded_accept(ring.peek(2 * k)?, len as u64)? as usize;
        let j = rand::bounded_accept(ring.peek(2 * k + 1)?, len as u64 - 1)? as usize;
        Some((i, j + usize::from(j >= i)))
    };
    if let Some((i, j)) = slots(D) {
        prefetch(stubs, i);
        prefetch(stubs, j);
    }
    if let Some((i, j)) = slots(D / 2) {
        for w in [stubs[i], stubs[j]] {
            prefetch(&table.adj, w as usize * table.d);
            prefetch(&table.fill, w as usize);
        }
    }
}

/// The adjacency table of the graph under construction: `d` slots per
/// vertex, the first `fill[v]` of row `v` holding its neighbours so far.
struct Adjacency {
    d: usize,
    adj: Vec<u32>,
    fill: Vec<u32>,
}

impl Adjacency {
    /// Whether the edge `{u, v}` is already placed (a scan of `u`'s
    /// filled slots).
    #[inline(always)]
    fn adjacent(&self, u: u32, v: u32) -> bool {
        let row = u as usize * self.d;
        self.adj[row..row + self.fill[u as usize] as usize].contains(&v)
    }

    /// Places the edge `{u, v}`.
    #[inline(always)]
    fn link(&mut self, u: u32, v: u32) {
        for (a, b) in [(u, v), (v, u)] {
            let fill = &mut self.fill[a as usize];
            self.adj[a as usize * self.d + *fill as usize] = b;
            *fill += 1;
        }
    }

    /// The finished table as a [`Graph`]: every row is full, so sorting
    /// each row in place yields the CSR neighbour array directly, with
    /// `offsets[v] = v·d`.
    fn into_graph(self) -> Graph {
        let Adjacency { d, mut adj, .. } = self;
        let n = adj.len() / d;
        let mut edges = Vec::with_capacity(adj.len() / 2);
        for (u, row) in adj.chunks_exact_mut(d).enumerate() {
            row.sort_unstable();
            let above = row.partition_point(|&v| v as usize <= u);
            edges.extend(row[above..].iter().map(|&v| (u as u32, v)));
        }
        let offsets = (0..=n).map(|v| v * d).collect();
        Graph::from_parts(offsets, adj, edges)
    }
}

/// Raw RNG words drawn ahead of [`pair_stubs`]'s `gen_range` calls, in
/// stream order.
struct WordRing {
    words: [u64; RING],
    head: usize,
    len: usize,
}

impl WordRing {
    /// Draws words until `target` are buffered.
    #[inline(always)]
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R, target: usize) {
        while self.len < target {
            self.words[(self.head + self.len) % RING] = rng.next_u64();
            self.len += 1;
        }
    }

    /// The `k`-th buffered word (0 is the next), if buffered.
    #[inline(always)]
    fn peek(&self, k: usize) -> Option<u64> {
        (k < self.len).then(|| self.words[(self.head + k) % RING])
    }

    /// The next word of the stream: the oldest buffered one, else fresh.
    #[inline(always)]
    fn next<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u64 {
        if self.len == 0 {
            return rng.next_u64();
        }
        let word = self.words[self.head];
        self.head = (self.head + 1) % RING;
        self.len -= 1;
        word
    }

    /// Exactly `rng.gen_range(0..span)`, drawn through the ring.
    #[inline(always)]
    fn gen_index<R: RngCore + ?Sized>(&mut self, rng: &mut R, span: usize) -> usize {
        if span == 1 {
            return 0; // `gen_range` draws no word for a single value
        }
        loop {
            if let Some(x) = rand::bounded_accept(self.next(rng), span as u64) {
                return x as usize;
            }
        }
    }
}

/// The Erdős–Rényi random graph `G(n, p)`: each of the `C(n,2)` possible
/// edges is present independently with probability `p`.
///
/// Implemented with geometric gap-skipping, so the cost is
/// `O(n + m)` rather than `O(n²)` for sparse `p`.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `n == 0` and
/// [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or is NaN.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), div_graph::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let g = div_graph::generators::gnp(200, 0.05, &mut rng)?;
/// assert_eq!(g.num_vertices(), 200);
/// # Ok(())
/// # }
/// ```
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::invalid(format!(
            "gnp requires p in [0, 1] (got {p})"
        )));
    }
    if p == 1.0 {
        return crate::generators::complete(n);
    }
    let mut builder = GraphBuilder::new(n)?;
    if p > 0.0 {
        // Enumerate pairs (u, v), u < v, in lexicographic order as a single
        // index in 0..C(n,2), skipping ahead by geometric gaps.
        let total = n as u64 * (n as u64 - 1) / 2;
        let log_q = (1.0 - p).ln();
        let mut idx: u64 = 0;
        let mut first = true;
        loop {
            let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap = (r.ln() / log_q).floor() as u64;
            idx = if first {
                first = false;
                gap
            } else {
                match idx.checked_add(gap + 1) {
                    Some(x) => x,
                    None => break,
                }
            };
            if idx >= total {
                break;
            }
            let (u, v) = pair_from_index(n as u64, idx);
            builder.add_edge(u as usize, v as usize)?;
        }
    }
    builder.build()
}

/// Maps a lexicographic pair index in `0..C(n,2)` to the pair `(u, v)`,
/// `u < v`.
fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    // Row u owns indices [S(u), S(u) + n-1-u) where S(u) = u*n - u*(u+1)/2.
    // Solve by binary search over u (robust against floating-point edge
    // cases that a closed-form quadratic inversion would have).
    let row_start = |u: u64| u * n - u * (u + 1) / 2;
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let u = if row_start(hi) <= idx { hi } else { lo };
    let v = u + 1 + (idx - row_start(u));
    (u, v)
}

/// The Watts–Strogatz small-world graph: a ring lattice where each vertex
/// is joined to its `k/2` nearest neighbours on each side, with every edge
/// rewired independently with probability `beta` (avoiding loops and
/// duplicates).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k` is odd, `k == 0`,
/// `k >= n - 1`, or `beta` is not in `[0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k == 0 || !k.is_multiple_of(2) {
        return Err(GraphError::invalid(format!(
            "watts_strogatz requires even k >= 2 (got {k})"
        )));
    }
    if k >= n.saturating_sub(1) {
        return Err(GraphError::invalid(format!(
            "watts_strogatz requires k < n - 1 (got k={k}, n={n})"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::invalid(format!(
            "watts_strogatz requires beta in [0, 1] (got {beta})"
        )));
    }
    let lattice_edges = n.checked_mul(k).map(|nk| nk / 2).ok_or_else(|| {
        GraphError::overflow("watts_strogatz", format!("edge count {n} * {k} / 2"))
    })?;
    // Edge set maintained as a hash set of canonical pairs, then built.
    let mut edges: std::collections::HashSet<(usize, usize)> =
        std::collections::HashSet::with_capacity(lattice_edges);
    let canon = |u: usize, v: usize| if u < v { (u, v) } else { (v, u) };
    for u in 0..n {
        for j in 1..=(k / 2) {
            edges.insert(canon(u, (u + j) % n));
        }
    }
    if beta > 0.0 {
        // Rewire the lattice edges in a deterministic sweep order.
        for u in 0..n {
            for j in 1..=(k / 2) {
                let old = canon(u, (u + j) % n);
                if !edges.contains(&old) || rng.gen::<f64>() >= beta {
                    continue;
                }
                // Choose a fresh endpoint; give up after a bounded number
                // of tries (dense corner cases), keeping the old edge.
                for _ in 0..32 {
                    let w = rng.gen_range(0..n);
                    let candidate = canon(u, w);
                    if w != u && candidate != old && !edges.contains(&candidate) {
                        edges.remove(&old);
                        edges.insert(candidate);
                        break;
                    }
                }
            }
        }
    }
    let mut builder = GraphBuilder::with_capacity(n, edges.len())?;
    for (u, v) in edges {
        builder.add_edge(u, v)?;
    }
    builder.build()
}

/// The Barabási–Albert preferential-attachment graph: starting from a
/// complete graph on `m + 1` vertices, each new vertex attaches to `m`
/// distinct existing vertices chosen with probability proportional to
/// degree.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m == 0` or `n < m + 1`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if m == 0 {
        return Err(GraphError::invalid("barabasi_albert requires m >= 1"));
    }
    if n < m + 1 {
        return Err(GraphError::invalid(format!(
            "barabasi_albert requires n >= m + 1 (got n={n}, m={m})"
        )));
    }
    let overflow =
        || GraphError::overflow("barabasi_albert", format!("edge budget for n={n}, m={m}"));
    let num_edges = (m * (m + 1) / 2)
        .checked_add((n - m - 1).checked_mul(m).ok_or_else(overflow)?)
        .ok_or_else(overflow)?;
    let num_stubs = num_edges.checked_mul(2).ok_or_else(overflow)?;
    let mut builder = GraphBuilder::with_capacity(n, num_edges)?;
    // `stubs` holds each vertex once per unit of degree; sampling a uniform
    // element is exactly degree-proportional sampling.
    let mut stubs: Vec<usize> = Vec::with_capacity(num_stubs);
    for u in 0..=m {
        for v in (u + 1)..=m {
            builder.add_edge(u, v)?;
            stubs.push(u);
            stubs.push(v);
        }
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    for v in (m + 1)..n {
        chosen.clear();
        while chosen.len() < m {
            let t = stubs[rng.gen_range(0..stubs.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            builder.add_edge(v, t)?;
            stubs.push(v);
            stubs.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Test oracle: `random_regular` as it was before the adjacency table
    /// and the lookahead ring, with its `HashSet` of placed edges, kept
    /// verbatim so the rewrite can be diffed against it.
    fn reference_random_regular<R: Rng + ?Sized>(
        n: usize,
        d: usize,
        rng: &mut R,
    ) -> Result<Graph, GraphError> {
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if d == 0 {
            return Err(GraphError::invalid("random_regular requires d >= 1"));
        }
        if d >= n {
            return Err(GraphError::invalid(format!(
                "random_regular requires d < n (got d={d}, n={n})"
            )));
        }
        // The stub list indexes vertices as u32 and holds n·d entries: both
        // bounds are checked up front so million-vertex requests fail loudly
        // on narrow targets instead of truncating through `as` casts.
        if n > u32::MAX as usize {
            return Err(GraphError::overflow(
                "random_regular",
                format!("vertex count {n} exceeds the u32 stub index"),
            ));
        }
        let num_stubs = n.checked_mul(d).ok_or_else(|| {
            GraphError::overflow("random_regular", format!("stub count {n} * {d}"))
        })?;
        if !num_stubs.is_multiple_of(2) {
            return Err(GraphError::invalid(format!(
                "random_regular requires n*d even (got n={n}, d={d})"
            )));
        }

        'attempt: for _ in 0..REGULAR_MAX_ATTEMPTS {
            // Stub list: vertex v appears once per unit of residual degree.
            let mut stubs: Vec<u32> = (0..num_stubs).map(|i| (i / d) as u32).collect();
            let mut seen = std::collections::HashSet::with_capacity(num_stubs / 2);
            let mut edges: Vec<(usize, usize)> = Vec::with_capacity(num_stubs / 2);
            while !stubs.is_empty() {
                // A uniform stub pair is valid unless it is a loop or repeats
                // an edge. If the remaining stubs admit no valid pair at all,
                // restart; detect that case after a bounded streak of
                // rejections by an exhaustive check.
                let mut placed = false;
                for _ in 0..64 {
                    let i = rng.gen_range(0..stubs.len());
                    let mut j = rng.gen_range(0..stubs.len() - 1);
                    if j >= i {
                        j += 1;
                    }
                    let (u, v) = (stubs[i] as usize, stubs[j] as usize);
                    if u == v {
                        continue;
                    }
                    let key = if u < v { (u, v) } else { (v, u) };
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.insert(key);
                    edges.push(key);
                    // Remove both stubs (higher index first).
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    placed = true;
                    break;
                }
                if !placed {
                    // Exhaustively verify whether any valid pair remains.
                    let mut any = false;
                    'scan: for a in 0..stubs.len() {
                        for b in (a + 1)..stubs.len() {
                            let (u, v) = (stubs[a] as usize, stubs[b] as usize);
                            if u != v {
                                let key = if u < v { (u, v) } else { (v, u) };
                                if !seen.contains(&key) {
                                    any = true;
                                    break 'scan;
                                }
                            }
                        }
                    }
                    if !any {
                        continue 'attempt; // wedged; restart
                    }
                    // Valid pairs exist but we were unlucky; keep sampling.
                }
            }
            let mut builder = GraphBuilder::with_capacity(n, edges.len())?;
            for (u, v) in edges {
                builder.add_edge(u, v)?;
            }
            return builder.build();
        }
        Err(GraphError::GenerationFailed {
            generator: "random_regular",
            attempts: REGULAR_MAX_ATTEMPTS,
        })
    }

    /// FNV-1a over the edge list as little-endian `u32` pairs.
    fn edge_hash(g: &Graph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (u, v) in g.edges() {
            for b in [u as u32, v as u32].iter().flat_map(|x| x.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Asserts the edge hash of `random_regular(n, d)` from `seed` and the
    /// generator word that follows it.
    fn assert_pin(n: usize, d: usize, seed: u64, hash: u64, next: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_regular(n, d, &mut rng).unwrap();
        assert_eq!(edge_hash(&g), hash, "edges of ({n}, {d}, {seed})");
        assert_eq!(rng.next_u64(), next, "next word after ({n}, {d}, {seed})");
    }

    #[test]
    fn random_regular_golden_pins() {
        // (10, 7, 3) restarts five times and (12, 9, 5) once, so the
        // restart path and the ring carried across it are pinned too.
        assert_pin(10, 7, 3, 0x5d94_1660_f459_bcf4, 0xd8d1_890c_0a8c_2665);
        assert_pin(12, 9, 5, 0x4f74_15c3_5956_37c5, 0x2bb8_155b_a77f_849d);
        assert_pin(1000, 8, 7, 0xc2ab_3faf_8a00_c141, 0xbba9_bf63_cfca_208a);
        assert_pin(100_000, 3, 11, 0xdec5_cfdb_e608_dc09, 0x04fc_e571_3008_22fc);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "million-vertex build; run with --release")]
    fn random_regular_golden_pin_n1m() {
        // The trial-1m benchmark graph (`regular:1000000:8`, seed 601).
        assert_pin(
            1_000_000,
            8,
            601,
            0x171e_83ae_4e2d_f2e1,
            0x6fe2_b1db_8106_46f9,
        );
    }

    #[test]
    fn exhausted_restart_budget_matches_reference() {
        // (36, 34, 1) wedges in all 1 000 attempts, so the ring's bound
        // must hold up to the error return too: same error, same next
        // generator word.
        let mut rng = StdRng::seed_from_u64(1);
        let mut oracle_rng = rng.clone();
        let err = random_regular(36, 34, &mut rng).unwrap_err();
        assert_eq!(Err(err), reference_random_regular(36, 34, &mut oracle_rng));
        assert_eq!(rng.next_u64(), oracle_rng.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The adjacency-table, lookahead-ring pairing loop draws the same
        /// words and makes the same decisions as the `HashSet` oracle:
        /// same graph (or same error), same next generator word, and a
        /// CSR identical to the builder's for the same edges.
        #[test]
        fn random_regular_matches_hash_set_reference(
            (n, d, seed) in (4usize..60).prop_flat_map(|n| (Just(n), 1..n, any::<u64>()))
        ) {
            prop_assume!((n * d).is_multiple_of(2));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            let got = random_regular(n, d, &mut rng);
            let want = reference_random_regular(n, d, &mut oracle_rng);
            prop_assert_eq!(&got, &want, "n={} d={} seed={}", n, d, seed);
            prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
            if let Ok(g) = got {
                prop_assert_eq!(Graph::from_edges(n, g.edges()).unwrap(), g);
            }
        }
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(n, d) in &[(10, 3), (50, 4), (101, 6), (200, 3)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.num_vertices(), n);
            assert!(g.is_regular(), "n={n} d={d}");
            assert_eq!(g.min_degree(), d);
            assert_eq!(g.num_edges(), n * d / 2);
            // d >= 3 samples are connected w.h.p.; with this fixed seed
            // they all are.
            assert!(algo::is_connected(&g), "n={n} d={d}");
        }
    }

    #[test]
    fn random_regular_parameter_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(0, 3, &mut rng).is_err());
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
    }

    #[test]
    fn oversized_requests_fail_loudly_before_allocating() {
        let mut rng = StdRng::seed_from_u64(0);
        // Each of these would overflow an intermediate size product (or
        // the u32 stub index); the typed error must fire eagerly instead
        // of truncating or aborting on a huge allocation.
        let err = random_regular(u32::MAX as usize + 2, 2, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::SizeOverflow { .. }), "{err:?}");
        let err = watts_strogatz(usize::MAX / 2, 4, 0.0, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::SizeOverflow { .. }), "{err:?}");
        let err = barabasi_albert(usize::MAX / 2, 3, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::SizeOverflow { .. }), "{err:?}");
    }

    #[test]
    fn random_regular_d1_is_perfect_matching() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(10, 1, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 5);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = gnp(20, 0.0, &mut rng).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = gnp(20, 1.0, &mut rng).unwrap();
        assert_eq!(full.num_edges(), 190);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 400;
        let p = 0.1;
        let total = (n * (n - 1) / 2) as f64;
        let mut sum = 0.0;
        let reps = 20;
        for _ in 0..reps {
            sum += gnp(n, p, &mut rng).unwrap().num_edges() as f64;
        }
        let mean = sum / reps as f64;
        let expect = total * p;
        let sd = (total * p * (1.0 - p) / reps as f64).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sd,
            "mean {mean} vs expectation {expect}"
        );
    }

    #[test]
    fn gnp_connected_above_threshold() {
        let mut rng = StdRng::seed_from_u64(9);
        // np = 3 log n, comfortably above the log n threshold.
        let n = 300;
        let p = 3.0 * (n as f64).ln() / n as f64;
        for _ in 0..5 {
            let g = gnp(n, p, &mut rng).unwrap();
            assert!(algo::is_connected(&g));
        }
    }

    #[test]
    fn gnp_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(gnp(0, 0.5, &mut rng).is_err());
        assert!(gnp(10, -0.1, &mut rng).is_err());
        assert!(gnp(10, 1.5, &mut rng).is_err());
        assert!(gnp(10, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn pair_from_index_roundtrip() {
        let n = 13u64;
        let mut idx = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_from_index(n, idx), (u, v), "idx={idx}");
                idx += 1;
            }
        }
        assert_eq!(idx, n * (n - 1) / 2);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_ring_lattice() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = watts_strogatz(20, 4, 0.0, &mut rng).unwrap();
        assert!(g.is_regular());
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.num_edges(), 40);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 19));
        assert!(g.has_edge(0, 18));
    }

    #[test]
    fn watts_strogatz_preserves_edge_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = watts_strogatz(60, 6, 0.3, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 180);
        assert_eq!(g.num_vertices(), 60);
    }

    #[test]
    fn watts_strogatz_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(watts_strogatz(10, 3, 0.1, &mut rng).is_err()); // odd k
        assert!(watts_strogatz(10, 0, 0.1, &mut rng).is_err());
        assert!(watts_strogatz(5, 4, 0.1, &mut rng).is_err()); // k >= n-1
        assert!(watts_strogatz(10, 4, 1.5, &mut rng).is_err());
    }

    #[test]
    fn barabasi_albert_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = barabasi_albert(50, 3, &mut rng).unwrap();
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 6 + 46 * 3);
        assert!(algo::is_connected(&g));
        assert!(g.min_degree() >= 3);
    }

    #[test]
    fn barabasi_albert_hubs_emerge() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = barabasi_albert(400, 2, &mut rng).unwrap();
        // Preferential attachment produces a heavy tail: the max degree
        // should far exceed the mean degree (4).
        assert!(g.max_degree() > 12, "max degree {}", g.max_degree());
    }

    #[test]
    fn barabasi_albert_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(barabasi_albert(10, 0, &mut rng).is_err());
        assert!(barabasi_albert(3, 3, &mut rng).is_err());
    }
}
