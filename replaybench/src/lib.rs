//! The CRAID replay benchmark.
//!
//! Three workloads ([`workloads`]) replay synthetic traces through the
//! simulator's public [`craid::Scenario`] API on one thread. An untraced
//! run ([`run::run_end_to_end`]) measures what a simulator user sees: host
//! throughput, set-up time and memory, and the model's simulated latencies.
//! A traced run ([`run::run_traced`]) rebuilds the replay loop from the
//! simulator's public calls ([`traced`]), times every call from outside, and
//! splits `submit` by replaying its captured streams through each layer
//! ([`layers`]). Neither publishes a number unless its correctness gates
//! pass.

pub mod endtoend;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workloads;
