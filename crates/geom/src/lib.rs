//! Geometry and graph primitives shared by the global router.
//!
//! Everything in this crate is deliberately free of circuit-level concepts:
//! points, bounding boxes, rectilinear distance, union-find, minimum
//! spanning trees over explicit point sets, and the column-indexed density
//! profiles used to score channel congestion. The router crates build the
//! TimberWolf-style algorithms on top of these.

pub mod bbox;
pub mod mst;
pub mod point;
pub mod profile;
pub mod rng;
pub mod steiner;
pub mod unionfind;

pub use bbox::BBox;
pub use mst::{mst_adjacency_limited, mst_prim, LimitedMstScratch, MstEdge};
pub use point::{manhattan, Point};
pub use profile::DensityProfile;
pub use rng::{derive_seed, shuffled_indices};
pub use steiner::{refine_mst, steiner_point, RefinedTree};
pub use unionfind::UnionFind;
