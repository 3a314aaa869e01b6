//! Undirected simple graphs for voting-process simulation.
//!
//! This crate is the graph substrate of the *discrete incremental voting*
//! reproduction.  It provides:
//!
//! * [`Graph`] — an immutable, compressed-sparse-row (CSR) representation of
//!   a finite undirected simple graph, optimised for the two access patterns
//!   the voting processes need: *uniform neighbour of a vertex* (vertex
//!   process) and *uniform edge* (edge process).
//! * [`GraphBuilder`] — validated construction from edge lists.
//! * [`generators`] — the deterministic and random graph families used in
//!   the paper's analysis: complete graphs, paths/cycles, random `d`-regular
//!   graphs, Erdős–Rényi `G(n,p)`, and several irregular families used to
//!   separate the vertex and edge processes.
//! * [`algo`] — basic structural algorithms (BFS, connectivity,
//!   bipartiteness, diameter, degree statistics).
//!
//! # Examples
//!
//! ```
//! use div_graph::generators;
//!
//! # fn main() -> Result<(), div_graph::GraphError> {
//! let g = generators::complete(5)?;
//! assert_eq!(g.num_vertices(), 5);
//! assert_eq!(g.num_edges(), 10);
//! assert_eq!(g.degree(0), 4);
//! assert!(div_graph::algo::is_connected(&g));
//! # Ok(())
//! # }
//! ```

// Unsafe policy: `unsafe_code` is denied crate-wide and re-allowed only
// in `prefetch`, a cache hint (it never faults and has no memory effect)
// shared by `generators::random_regular`'s pairing loop and the fast
// engine's lookahead stepper in `div-core`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
mod builder;
pub mod dot;
mod error;
pub mod generators;
mod graph;
pub mod graph6;
pub mod ops;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Edges, Graph, Neighbors};

/// Crate-wide result alias.
pub type Result<T, E = GraphError> = std::result::Result<T, E>;

/// Hints the CPU to pull the cache line holding `slice[i]` into L1 — the
/// one memory-level-parallelism primitive of the workspace's lookahead
/// loops (`random_regular`'s pairing loop here and the fast engine's
/// edge stepper in `div-core`).  A no-op off x86-64.  Not part of the
/// graph API: public only so that both loops share this one copy.
#[doc(hidden)]
#[inline(always)]
#[allow(unsafe_code)] // a prefetch hint (see SAFETY note)
pub fn prefetch<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = slice.as_ptr().wrapping_add(i);
        // SAFETY: SSE is baseline on x86-64, and a prefetch is only a
        // hint: it never faults (not even on an invalid address) and has
        // no architecturally visible memory effect.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}
