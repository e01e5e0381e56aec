//! # bnb-queueing
//!
//! The event schedulers of the *Balls into non-uniform bins*
//! reproduction. The queueing simulator itself — servers draining work
//! at their speed, d-choice placement, arrivals and churn — lives in
//! `bnb-cluster`; this crate holds the future-event lists it and the
//! benchmarks run on:
//!
//! * [`events`] — the [`EventScheduler`] trait (earliest-first,
//!   FIFO-on-ties determinism contract), the binary-heap
//!   [`EventQueue`] reference implementation and oracle, and the
//!   simulation clock,
//! * [`lazy`] — the [`LazyBoard`]: a slot-keyed scheduler for the
//!   at-most-one-event-per-slot workload (O(1) schedules of idle
//!   slots, unsorted candidate bags argmin-scanned on pop, a two-level
//!   far side refilled one lap at a time) — the departure board of the
//!   cluster's drive loop,
//! * [`calendar`] — the [`CalendarQueue`]: a bucketed timing wheel with
//!   dynamic bucket-width resizing and an overflow ladder, amortised
//!   O(1) for general payloads,
//! * [`stats`] — always-on scheduler-internals telemetry: the lazy
//!   board's [`LazyStats`].
//!
//! Every scheduler pops in the same `(time, insertion sequence)` order,
//! and the test-suite checks each against an independent heap oracle.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod calendar;
pub mod events;
pub mod lazy;
pub mod stats;

pub use calendar::CalendarQueue;
pub use events::{EventQueue, EventScheduler};
pub use lazy::LazyBoard;
pub use stats::LazyStats;
