//! # eras-bench
//!
//! The benchmark harness: one binary per table and figure of the paper's
//! evaluation section (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results).
//!
//! | binary      | reproduces |
//! |-------------|------------|
//! | `table3`    | Hit@1 of fixed scoring functions by relation pattern |
//! | `table6`    | main link-prediction comparison |
//! | `table7`    | dataset statistics |
//! | `table8`    | pattern-level ERAS vs ERAS^{N=1} |
//! | `table9`    | running-time analysis |
//! | `table10`   | triplet classification |
//! | `table11`   | ablation variants |
//! | `fig2`      | search-efficiency curves |
//! | `fig3_4`    | searched-function case study |
//! | `fig5`      | one-shot vs stand-alone correlation |
//! | `fig6`      | group-count sweep N ∈ 1..5 |
//! | `fig7`      | block-count sweep M ∈ {3,4,5} |
//!
//! Every binary takes `--quick` for a reduced-budget smoke run and writes
//! machine-readable results to `crates/bench/results/<name>.json` next to
//! the ASCII table on stdout.

pub mod comparators;
pub mod harness;
pub mod literature;
pub mod profiles;
pub mod report;

pub use comparators::{run_comparator, Comparator, EvalRow};
pub use profiles::Profile;
