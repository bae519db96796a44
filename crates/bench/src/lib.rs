//! The paper's evaluation as data: [`figures`] computes every table and
//! figure as rows; the `figures` binary prints them, and the `fleet_*`
//! binaries hold the engine to a wall-clock budget.

pub mod figures;
