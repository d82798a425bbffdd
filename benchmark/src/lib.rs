//! The repo's benchmark: five workloads over the whole stack, measured
//! from outside through public functions. `main.rs` is the command
//! line; `README.md` says what each workload and metric is for.

pub mod child;
pub mod compare;
pub mod expected;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod seam;
pub mod sys;
pub mod workloads;
