//! Nine-objective Postgres-style cost model (paper §4).
//!
//! The paper extends the Postgres 9.2.4 cost model to nine objectives. The
//! formulas here are analytical reconstructions with the same structure:
//! every objective's recursive formula combines the children's costs using
//! only **sum, maximum, minimum and multiplication by constants** — plus the
//! special tuple-loss formula `1 − (1−a)(1−b)` — so the principle of
//! near-optimality (paper §6.1, Definition 7) holds for every operator and
//! objective. This structural property is what the RTA/IRA guarantees rest
//! on, and it is property-tested in `tests/pono.rs`.
//!
//! The nine objectives and the shape of their formulas:
//!
//! | objective        | children combined via | notes |
//! |------------------|----------------------|-------|
//! | total time       | `max` (parallel branches) or `+` (pipelines), `+` own work / DOP | paper's `max(t_L, t_R) + t_M` example |
//! | startup time     | `max` / `+` of child startup/total | hash build & sorts block, IdxNL streams |
//! | IO load          | `+` | pages read/written, incl. spill |
//! | CPU load         | `+` | DOP adds coordination overhead |
//! | used cores       | `max(c_L + c_R, dop)` for parallel branches | paper: up to 4 cores/op |
//! | disk footprint   | `+` | spill beyond `work_mem` |
//! | buffer footprint | `+` | conservative concurrent-peak model |
//! | energy           | `+`, own work × (1 + coord·(dop−1)) | Flach-style: parallelism costs energy |
//! | tuple loss       | `1−(1−a)(1−b)` | sampling scans: `1 − rate` |
//!
//! Units: time in Postgres optimizer units (the paper's Figure 4 axis is
//! "Time (PG Optimizer Units)"), IO in pages, CPU in optimizer units, disk
//! and buffer in bytes, energy in abstract Joule-like units, tuple loss as a
//! fraction in `[0, 1]`.

#![warn(missing_docs)]

mod join;
mod model;
mod params;

pub use join::{InnerIndex, JoinKey, JoinPair, JoinSplit};
pub use model::CostModel;
pub use params::CostModelParams;
