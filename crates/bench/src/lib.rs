//! # `xvc-bench` — workloads, paper figures, and the deferred evaluation
//!
//! The paper publishes no experimental numbers ("We defer experimental
//! evaluation and full consideration of optimized execution strategies ...
//! to future research", §1). This crate builds the evaluation it defers:
//!
//! * [`workload`] — a seeded generator for the Figure 2 hotel schema with
//!   scale and selectivity knobs;
//! * [`synthetic`] — chain and fan view/stylesheet families for the §4.5
//!   complexity studies (polynomial and exponential regimes);
//! * [`experiments`] — the E1/E2/E3 naive-vs-composed comparisons, each
//!   verifying `v'(I) = x(v(I))` before timing anything, the C1/C2
//!   composition-cost sweeps, and the E4 micro-benchmarks of the
//!   paper-fixture compositions and the substrate layers;
//! * [`figures`] — programmatic regeneration of every paper figure;
//! * [`random_stylesheet`] — a seeded `XSLT_basic` stylesheet fuzzer for
//!   the equivalence property.
//!
//! The `figures` binary prints all artifacts and experiment tables, and is
//! the crate's only benchmark harness.

#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod random_stylesheet;
pub mod synthetic;
pub mod workload;
