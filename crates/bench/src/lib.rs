//! The two drivers and what they share: [`repro`] regenerates the paper's
//! tables, figure and quantitative claims, [`harness`] runs the gated
//! `bench` suites; live feature probes and table rendering sit under both.
//!
//! Every *technical* cell of Tables 1–5 is derived by exercising the
//! corresponding code path ([`probes`]); only
//! social facts (versions, champions, contributor counts, documentation
//! grades) are copied from the survey and labelled `survey-reported`.

#![forbid(unsafe_code)]

pub mod adapt_suite;
pub mod build_suite;
pub mod chaos_suite;
pub mod guard;
pub mod harness;
pub mod json;
pub mod lazy_suite;
pub mod probes;
pub mod repro;
pub mod storm_suite;
pub mod suite;
pub mod tables;
pub mod workloads;
